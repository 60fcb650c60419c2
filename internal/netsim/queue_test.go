package netsim

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"
)

// The event queue is checked against a model that keeps events and
// timers in plain slices and finds the next one by sorting on
// (time, seq): no heap, nothing to get wrong. Both run the same
// self-extending schedule — closures and frame deliveries, ties on
// purpose, events that schedule events from inside their handlers —
// under the same random mix of Step, Run and RunUntil,
// and must agree on every return value, on the clock, and on the order
// and time of everything that ran.

type refEvent struct {
	at  time.Duration
	seq uint64
	id  int
}

type refTimer struct {
	due, interval time.Duration
	seq           uint64
	id            int
}

type refSim struct {
	now      time.Duration
	seq      uint64
	executed uint64
	events   []refEvent
	timers   []*refTimer
	run      func(id int) // an event's body
	fire     func(id int) // a timer's body
}

func (r *refSim) schedule(delay time.Duration, id int) {
	r.seq++
	r.events = append(r.events, refEvent{at: r.now + delay, seq: r.seq, id: id})
}

func (r *refSim) every(interval time.Duration, id int) {
	r.seq++
	r.timers = append(r.timers, &refTimer{due: r.now + interval, interval: interval, seq: r.seq, id: id})
}

// sortQueues puts the next event and the next timer first.
func (r *refSim) sortQueues() {
	sort.Slice(r.events, func(i, j int) bool {
		a, b := r.events[i], r.events[j]
		return a.at < b.at || a.at == b.at && a.seq < b.seq
	})
	sort.Slice(r.timers, func(i, j int) bool {
		a, b := r.timers[i], r.timers[j]
		return a.due < b.due || a.due == b.due && a.seq < b.seq
	})
}

func (r *refSim) popEvent() {
	ev := r.events[0]
	r.events = r.events[1:]
	r.now = ev.at
	r.executed++
	r.run(ev.id)
}

func (r *refSim) fireTimer() {
	t := r.timers[0]
	r.now = t.due
	r.executed++
	t.due += t.interval
	r.seq++
	t.seq = r.seq
	r.fire(t.id)
}

func (r *refSim) step() bool {
	if len(r.events) == 0 {
		return false
	}
	r.sortQueues()
	if len(r.timers) > 0 && r.timers[0].due <= r.events[0].at {
		r.fireTimer()
	} else {
		r.popEvent()
	}
	return true
}

func (r *refSim) runBudget(budget int) int {
	n := 0
	for n < budget && r.step() {
		n++
	}
	return n
}

func (r *refSim) runUntil(deadline time.Duration) int {
	n := 0
	for {
		r.sortQueues()
		next, timerFirst := deadline+1, false
		if len(r.events) > 0 {
			next = r.events[0].at
		}
		if len(r.timers) > 0 && r.timers[0].due <= next {
			next, timerFirst = r.timers[0].due, true
		}
		if next > deadline {
			break
		}
		if timerFirst {
			r.fireTimer()
		} else {
			r.popEvent()
		}
		n++
	}
	if r.now < deadline {
		r.now = deadline
	}
	return n
}

// ran is one log entry: what ran (timers are negative) and when.
type ran struct {
	id int
	at time.Duration
}

// queueWorkload is the schedule both simulators run. What an event does is a
// function of its id alone, so the two sides stay comparable even after
// a divergence.
type queueWorkload struct {
	seed    int64
	maxIDs  int
	latency time.Duration // of the link frame events cross
}

func (w queueWorkload) rng(id int) *rand.Rand {
	return rand.New(rand.NewSource(w.seed*1_000_003 + int64(id)))
}

// Delays are few and small so that many events share a timestamp, and
// some match the link latency and the timer intervals.
var queueDelays = []time.Duration{0, 0, 1, 1, 2, 3, 5, 8}

const queueTimers = 3

// child describes one event an event or timer body schedules.
type child struct {
	frame bool
	delay time.Duration
}

func (w queueWorkload) children(id int) (out []child) {
	r := w.rng(id)
	for n := r.Intn(4); n > 0; n-- { // mean 1.5: the schedule grows until maxIDs caps it
		out = append(out, child{frame: r.Intn(3) == 0, delay: queueDelays[r.Intn(len(queueDelays))] * time.Millisecond})
	}
	return out
}

func TestEventQueueMatchesSortedReference(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			w := queueWorkload{seed: seed, maxIDs: 600, latency: 2 * time.Millisecond}

			// The real simulator.
			sim := New(seed)
			link := sim.NewLink("q", w.latency, 0)
			var gotLog []ran
			gotIDs := 0
			var body func(id int)
			spawn := func(c child) {
				if gotIDs >= w.maxIDs {
					return
				}
				id := gotIDs
				gotIDs++
				if c.frame {
					link.A().Forward(binary.BigEndian.AppendUint32(nil, uint32(id)))
				} else {
					sim.Schedule(c.delay, func() { body(id) })
				}
			}
			body = func(id int) {
				gotLog = append(gotLog, ran{id, sim.Now()})
				for _, c := range w.children(id) {
					spawn(c)
				}
			}
			link.B().Attach(HandlerFunc(func(frame []byte, _ *Port) {
				body(int(binary.BigEndian.Uint32(frame)))
			}), "sink")

			// The model.
			ref := &refSim{}
			var wantLog []ran
			wantIDs := 0
			refSpawn := func(c child) {
				if wantIDs >= w.maxIDs {
					return
				}
				delay := c.delay
				if c.frame {
					delay = w.latency
				}
				ref.schedule(delay, wantIDs)
				wantIDs++
			}
			ref.run = func(id int) {
				wantLog = append(wantLog, ran{id, ref.now})
				for _, c := range w.children(id) {
					refSpawn(c)
				}
			}

			// Timers: each firing logs itself and schedules one event.
			for i := 0; i < queueTimers; i++ {
				i := i
				interval := time.Duration(i+1) * time.Millisecond
				sim.Every(interval, func() {
					gotLog = append(gotLog, ran{-1 - i, sim.Now()})
					spawn(child{delay: time.Millisecond})
				})
				ref.every(interval, i)
			}
			ref.fire = func(i int) {
				wantLog = append(wantLog, ran{-1 - i, ref.now})
				refSpawn(child{delay: time.Millisecond})
			}

			// Roots: a burst at a handful of timestamps.
			drv := rand.New(rand.NewSource(seed ^ 0x5eed))
			for i := 0; i < 12; i++ {
				c := child{frame: i%4 == 0, delay: queueDelays[drv.Intn(len(queueDelays))] * time.Millisecond}
				spawn(c)
				refSpawn(c)
			}

			check := func(op string) {
				t.Helper()
				if sim.Now() != ref.now || sim.Pending() != len(ref.events) || sim.Events() != ref.executed {
					t.Fatalf("%s: now %v pending %d executed %d, model %v %d %d",
						op, sim.Now(), sim.Pending(), sim.Events(), ref.now, len(ref.events), ref.executed)
				}
				if len(sim.queue) > 0 {
					ref.sortQueues()
					if at := sim.queue[0].at; at != ref.events[0].at {
						t.Fatalf("%s: queue head at %v, model %v", op, at, ref.events[0].at)
					}
				}
				if len(gotLog) != len(wantLog) {
					t.Fatalf("%s: %d ran, model ran %d", op, len(gotLog), len(wantLog))
				}
				for i := range gotLog {
					if gotLog[i] != wantLog[i] {
						t.Fatalf("%s: entry %d ran %+v, model ran %+v", op, i, gotLog[i], wantLog[i])
					}
				}
			}
			for op := 0; op < 400; op++ {
				switch drv.Intn(3) {
				case 0:
					for n := 1 + drv.Intn(5); n > 0; n-- {
						if got, want := sim.Step(), ref.step(); got != want {
							t.Fatalf("op %d: Step %v, model %v", op, got, want)
						}
					}
					check(fmt.Sprint("Step op ", op))
				case 1:
					budget := 1 + drv.Intn(20)
					if got, want := sim.Run(budget), ref.runBudget(budget); got != want {
						t.Fatalf("op %d: Run(%d) %d, model %d", op, budget, got, want)
					}
					check(fmt.Sprint("Run op ", op))
				case 2:
					// Often lands exactly on an event or timer time;
					// sometimes does not move the clock at all.
					deadline := sim.Now() + time.Duration(drv.Intn(4))*time.Millisecond
					if got, want := sim.RunUntil(deadline), ref.runUntil(deadline); got != want {
						t.Fatalf("op %d: RunUntil(%v) %d, model %d", op, deadline, got, want)
					}
					check(fmt.Sprint("RunUntil op ", op))
				}
			}
			if got, want := sim.Run(1<<20), ref.runBudget(1<<20); got != want {
				t.Fatalf("drain: Run %d, model %d", got, want)
			}
			check("drain")
			if gotIDs != w.maxIDs {
				t.Fatalf("schedule ended at %d events, want it to reach the %d cap", gotIDs, w.maxIDs)
			}
		})
	}
}

// TestFrameEventAllocs pins what makes a frame in flight cheap: once
// the queue's backing array has grown, forwarding a frame and stepping
// its delivery allocates nothing — no event object, no closure, no copy.
func TestFrameEventAllocs(t *testing.T) {
	sim := New(1)
	l := sim.NewLink("alloc", time.Millisecond, 0)
	var held []byte // the sink owns what it is given and hands it back
	l.B().Attach(HandlerFunc(func(frame []byte, _ *Port) { held = frame }), "sink")
	for i := 0; i < 64; i++ {
		l.A().Forward(make([]byte, 128))
	}
	sim.Run(1 << 10)
	allocs := testing.AllocsPerRun(200, func() {
		l.A().Forward(held)
		if !sim.Step() {
			t.Fatal("frame event not queued")
		}
	})
	if allocs != 0 {
		t.Errorf("forward + step allocates %v per frame, want 0", allocs)
	}
}

// Runs are checked against the simulator itself: one schedule is played
// twice, to nodes that implement BatchHandler and to the same nodes
// behind HandlerFunc, which hides HandleFrames so that every frame comes
// alone. Three nodes own two ports each, on links with equal, different
// and zero latencies, two of them with jitter and duplication in steps
// coarse enough to tie; what a node does about a frame — send more
// frames, some with no delay at all, schedule functions that send —
// depends on the frame alone; timers fire throughout; and the driver
// mixes RunUntil with Run under budgets small enough to stop inside a
// run. Both plays must log the same (node, frame, port, time) sequence
// and agree on every return value, on Events and on the clock.

// delivery is one log entry of a run play.
type delivery struct {
	node  int // -1: a scheduled function, -2: a timer
	frame uint32
	port  string
	at    time.Duration
}

type runPlay struct {
	t     *testing.T
	seed  int64
	sim   *Simulator
	links []*Link
	log   []delivery
	runs  []int // the length of every run handed over
	next  uint32
	void  int // frames sent toward the port nothing is attached to
}

const runPlayFrames = 1500

type runNode struct {
	p  *runPlay
	id int
}

func (n *runNode) HandleFrame(frame []byte, from *Port) {
	p := n.p
	id := binary.BigEndian.Uint32(frame)
	p.log = append(p.log, delivery{n.id, id, from.Label(), p.sim.Now()})
	r := rand.New(rand.NewSource(p.seed*1_000_003 + int64(id)))
	for k := r.Intn(4); k > 0; k-- {
		link := p.links[r.Intn(len(p.links))]
		if r.Intn(4) > 0 {
			p.send(link)
			continue
		}
		p.sim.Schedule(time.Duration(r.Intn(3)), func() {
			p.log = append(p.log, delivery{node: -1, frame: id, at: p.sim.Now()})
			p.send(link)
		})
	}
}

func (n *runNode) HandleFrames(frames [][]byte, from []*Port) {
	n.p.runs = append(n.p.runs, len(frames))
	for i, frame := range frames {
		if from[i].Owner() != Handler(n) {
			n.p.t.Errorf("node %d was handed a frame for %s in its run", n.id, from[i].Label())
		}
		n.HandleFrame(frame, from[i])
	}
}

func (p *runPlay) send(l *Link) {
	if p.next < runPlayFrames {
		if l.B().Owner() == nil {
			p.void++
		}
		l.A().Forward(binary.BigEndian.AppendUint32(nil, p.next))
		p.next++
	}
}

func newRunPlay(t *testing.T, seed int64, batched bool) *runPlay {
	p := &runPlay{t: t, seed: seed, sim: New(seed)}
	for i, latency := range []time.Duration{0, 1, 0, 2, 1, 1} {
		l := p.sim.NewLink(fmt.Sprint("l", i), latency, 0)
		if i >= 4 {
			l.SetChaos(ChaosConfig{Jitter: 2, DupProb: 0.2})
		}
		node := &runNode{p, i / 2}
		if i%2 == 1 {
			node = p.links[i-1].B().Owner().(*runNode) // one handler value per node
		}
		l.B().Attach(node, fmt.Sprint("n", node.id, "/", i))
		p.links = append(p.links, l)
	}
	if !batched {
		for _, l := range p.links {
			l.B().Attach(HandlerFunc(l.B().Owner().HandleFrame), l.B().Label())
		}
	}
	// A link to nowhere: its frames are events like any other.
	p.links = append(p.links, p.sim.NewLink("void", 1, 0))
	for i := 1; i <= 2; i++ {
		l := p.links[i]
		p.sim.Every(time.Duration(i), func() {
			p.log = append(p.log, delivery{node: -2, at: p.sim.Now()})
			p.send(l)
		})
	}
	for i := 0; i < 40; i++ {
		p.send(p.links[i%len(p.links)])
	}
	return p
}

func TestRunsDeliverWhatSingleFramesDeliver(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		runs, single := newRunPlay(t, seed, true), newRunPlay(t, seed, false)
		drv := rand.New(rand.NewSource(seed ^ 0xba7c4))
		for op := 0; runs.sim.Pending() > 0 || single.sim.Pending() > 0; op++ {
			var got, want int
			var what string
			if drv.Intn(3) > 0 {
				budget := 1 + drv.Intn(12)
				what = fmt.Sprintf("Run(%d)", budget)
				got, want = runs.sim.Run(budget), single.sim.Run(budget)
				if got > budget {
					t.Fatalf("seed %d op %d: %s executed %d events", seed, op, what, got)
				}
			} else {
				deadline := single.sim.Now() + time.Duration(drv.Intn(3))
				what = fmt.Sprintf("RunUntil(%v)", deadline)
				got, want = runs.sim.RunUntil(deadline), single.sim.RunUntil(deadline)
			}
			if got != want || runs.sim.Events() != single.sim.Events() || runs.sim.Now() != single.sim.Now() {
				t.Fatalf("seed %d op %d: %s = %d, events %d, now %v; frame by frame %d, %d, %v", seed, op, what,
					got, runs.sim.Events(), runs.sim.Now(), want, single.sim.Events(), single.sim.Now())
			}
		}
		if len(runs.log) != len(single.log) {
			t.Fatalf("seed %d: %d log entries in runs, %d frame by frame", seed, len(runs.log), len(single.log))
		}
		for i, d := range runs.log {
			if d != single.log[i] {
				t.Fatalf("seed %d: entry %d is %+v in runs, %+v frame by frame", seed, i, d, single.log[i])
			}
		}
		if runs.next != runPlayFrames {
			t.Fatalf("seed %d: the schedule ended at %d frames, want it to reach the %d cap", seed, runs.next, runPlayFrames)
		}
		longest, frames := 0, 0
		for _, n := range runs.runs {
			longest, frames = max(longest, n), frames+n
		}
		if len(single.runs) != 0 || longest < 4 || len(runs.runs) > frames*3/4 {
			t.Fatalf("seed %d: %d frames came in %d runs, the longest of %d (and %d runs behind HandlerFunc): the schedule does not exercise runs",
				seed, frames, len(runs.runs), longest, len(single.runs))
		}
		if got, want := runs.void, single.void; got == 0 || got != want {
			t.Fatalf("seed %d: %d frames went to the unattached port in runs, %d frame by frame", seed, got, want)
		}
	}
}
