// Package netsim is the network substrate: a deterministic
// discrete-event simulator in which the APNA entities (hosts, border
// routers, AS services) run. It replaces the paper's physical testbed.
//
// Time is virtual: link latencies advance a simulated clock instead of
// sleeping, so protocol latency experiments (e.g. the
// connection-establishment RTT analysis of Section VII-C) are exact,
// fast and reproducible. The border forwarding experiments drive the
// router pipelines directly (internal/engine over internal/pktgen
// worlds); every host-side experiment, scenario spec and the host_* benchmark
// workloads run through the simulator, so what a frame costs here is
// part of their numbers.
//
// # Frame ownership
//
// A frame in flight is one buffer with one owner at a time:
//
//   - Port.Send copies. The caller keeps its slice and may reuse it the
//     moment Send returns.
//   - Port.Forward transfers. The caller gives the slice up: it must not
//     read, write or retain it afterwards. No copy is made on the way to
//     the peer.
//   - Handler.HandleFrame owns what it is given. The frame is private to
//     the handler: it may mutate it in place (a transit hop-limit
//     decrement), retain it (a host keeps it as evidence), or hand it on
//     with Forward.
//   - Taps and duplicates get copies. Every tap receives its own copy at
//     send time, and a duplicating chaos link copies for the second
//     delivery, so no two receivers ever share a backing array.
//
// # Runs
//
// A border router verifies packets many at a time, so a handler that
// also implements BatchHandler is handed every frame due at one instant
// in one HandleFrames call — a run — instead of one HandleFrame call
// each. A run is the longest stretch of consecutive queue entries, in
// (time, seq) order, that are frame deliveries at the same instant to
// ports of the same handler. It ends at the first entry that is
// anything else: a Schedule'd function, a frame for another handler, a
// later instant — or at the budget of the Run call executing it. The
// boundary is therefore a function of the queue order alone; every
// frame still counts as one event; and nothing can come between two
// frames of a run that could not come between them delivered one by
// one, because whatever a handler schedules sorts after everything
// already queued for that instant and no timer can fall due inside an
// instant it did not open (see dueTimer). The frames of a run belong
// to the handler like any delivered frame; the two slices that carry
// them belong to the simulator and are reused once HandleFrames
// returns. A handler that does not implement BatchHandler — hosts,
// services, anything behind HandlerFunc — sees no difference.
package netsim

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"time"
)

// Simulator is a single-threaded discrete-event scheduler with a virtual
// clock. All handlers run on the caller's goroutine during Run; this
// makes simulations deterministic for a fixed seed and schedule.
type Simulator struct {
	now    time.Duration // virtual time since simulation start
	seq    uint64        // tie-breaker for events at equal times
	queue  eventQueue
	timers timerQueue
	rng    *rand.Rand
	epoch  int64 // Unix seconds corresponding to virtual time zero
	events uint64

	// The slices a run is handed to its BatchHandler in, kept between
	// runs. runNext takes them out while a run is being handled, so a
	// handler that steps the simulator itself gets a nested run its own.
	runFrames [][]byte
	runFrom   []*Port

	// Fault capture/replay state (see faults.go). At most one of
	// faultCap/faultReplay is non-nil.
	faultCap    *FaultTrace
	faultReplay *faultReplay
	faultSeq    uint64
}

// DefaultEpoch is the Unix time at which simulations start unless
// overridden: 2026-01-01 00:00:00 UTC.
const DefaultEpoch int64 = 1_767_225_600

// New creates a simulator seeded for deterministic pseudo-randomness
// (link loss, jitter).
func New(seed int64) *Simulator {
	return &Simulator{
		rng:   rand.New(rand.NewSource(seed)),
		epoch: DefaultEpoch,
	}
}

// SetEpoch overrides the Unix time of virtual time zero.
func (s *Simulator) SetEpoch(unix int64) { s.epoch = unix }

// Now returns the current virtual time since simulation start.
func (s *Simulator) Now() time.Duration { return s.now }

// NowUnix returns the current virtual wall-clock time in Unix seconds,
// the time base used for EphID expiration checks.
func (s *Simulator) NowUnix() int64 {
	return s.epoch + int64(s.now/time.Second)
}

// Rand exposes the simulator's deterministic randomness source.
func (s *Simulator) Rand() *rand.Rand { return s.rng }

// Schedule runs fn at now+delay. A negative delay panics: the simulator
// cannot travel back in time.
func (s *Simulator) Schedule(delay time.Duration, fn func()) {
	s.enqueue(delay, event{fn: fn})
}

// scheduleFrame queues the delivery of buf to dst at now+delay: the
// typed form of Schedule for the one event kind that dominates every
// run, so a frame in flight costs no closure.
func (s *Simulator) scheduleFrame(delay time.Duration, dst *Port, buf []byte) {
	s.enqueue(delay, event{dst: dst, buf: buf})
}

func (s *Simulator) enqueue(delay time.Duration, ev event) {
	if delay < 0 { //apna:coldpath
		panic(fmt.Sprintf("netsim: negative delay %v", delay))
	}
	s.seq++
	ev.at, ev.seq = s.now+delay, s.seq
	s.queue.push(ev)
}

// runNext pops and executes the earliest queued event and returns how
// many events that was: one, unless the event opens a run (see the
// package comment), which is executed whole or up to budget frames.
func (s *Simulator) runNext(budget int) int {
	ev := s.queue.pop()
	s.now = ev.at
	s.events++
	if ev.dst == nil {
		ev.fn()
		return 1
	}
	h := ev.dst.batch
	if h == nil {
		if ev.dst.owner != nil {
			ev.dst.owner.HandleFrame(ev.buf, ev.dst)
		} else {
			ev.dst.link.stats.Dropped++
		}
		return 1
	}
	frames, from := append(s.runFrames, ev.buf), append(s.runFrom, ev.dst)
	s.runFrames, s.runFrom = nil, nil
	for len(frames) < budget && len(s.queue) > 0 {
		head := &s.queue[0]
		if head.at != ev.at || head.dst == nil || head.dst.batch != h {
			break
		}
		frames, from = append(frames, head.buf), append(from, head.dst)
		s.queue.pop()
	}
	n := len(frames)
	s.events += uint64(n - 1)
	h.HandleFrames(frames, from)
	clear(frames) // the frames are the handler's now
	clear(from)
	s.runFrames, s.runFrom = frames[:0], from[:0]
	return n
}

// PeekNext returns the timestamp of the earliest queued event, or false
// if the queue is empty. Drivers that step the simulator toward a
// deadline use it to stop before executing events past the deadline.
func (s *Simulator) PeekNext() (time.Duration, bool) {
	if len(s.queue) == 0 {
		return 0, false
	}
	return s.queue[0].at, true
}

// Step executes the next event — a queued event or a recurring timer
// firing, whichever is due first, and with a frame that opens a run the
// rest of the run — returning false if the event queue is empty. Timers
// never fire against an empty queue: quiescence ("nothing left to
// simulate") is defined by real events, so maintenance timers cannot
// keep a drained timeline alive. Use RunUntil / RunFor to sweep timers
// across idle gaps when a scenario explicitly passes time.
func (s *Simulator) Step() bool { return s.step(math.MaxInt) > 0 }

// step is Step under a budget of events, returning how many it executed.
func (s *Simulator) step(budget int) int {
	if len(s.queue) == 0 {
		return 0
	}
	if t := s.dueTimer(s.queue[0].at); t != nil {
		s.fireTimer(t)
		return 1
	}
	return s.runNext(budget)
}

// dueTimer returns the earliest running timer due at or before `at`, or
// nil. Ties go to the timer so maintenance runs before the traffic it
// gates (e.g. a renewal fires before the packet that needed it). Once an
// event at some instant has run, no timer is due at or before that
// instant until the clock moves on: the ones that were have fired and
// moved past it, and a new one is first due a positive interval later.
func (s *Simulator) dueTimer(at time.Duration) *Timer {
	if s.timers.Len() == 0 || s.timers[0].due > at {
		return nil
	}
	return s.timers[0]
}

// fireTimer advances the clock to the timer's deadline, runs its
// callback, and reschedules the next occurrence.
func (s *Simulator) fireTimer(t *Timer) {
	s.now = t.due
	s.events++
	t.due += t.interval
	s.seq++
	t.seq = s.seq
	heap.Fix(&s.timers, 0)
	t.fn()
}

// Run executes events until the queue is empty or the budget of events
// is exhausted, returning the number of events executed. A budget guards
// against livelocked simulations (two nodes bouncing a packet forever).
func (s *Simulator) Run(budget int) int {
	n := 0
	for n < budget {
		k := s.step(budget - n)
		if k == 0 {
			break
		}
		n += k
	}
	return n
}

// RunUntil executes events and recurring timers with timestamps at or
// before the deadline (virtual time since start). Unlike Step, timers
// fire here even when the event queue is empty: the caller is explicitly
// passing virtual time, so scheduled maintenance (EphID renewal checks,
// revocation GC) happens across idle gaps exactly as it would under
// live traffic.
func (s *Simulator) RunUntil(deadline time.Duration) int {
	n := 0
	for {
		next := deadline + 1
		if len(s.queue) > 0 {
			next = s.queue[0].at
		}
		timerFirst := s.timers.Len() > 0 && s.timers[0].due <= next
		if timerFirst {
			next = s.timers[0].due
		}
		if next > deadline {
			break
		}
		if timerFirst {
			s.fireTimer(s.timers[0])
			n++
		} else {
			n += s.runNext(math.MaxInt)
		}
	}
	if s.now < deadline {
		s.now = deadline
	}
	return n
}

// Timer is a recurring virtual-time callback created by Every. It fires
// interleaved with ordinary events in strict time order; see Step and
// RunUntil for when due timers actually run.
type Timer struct {
	due      time.Duration
	seq      uint64
	index    int // heap position, -1 when stopped
	interval time.Duration
	fn       func()
	queue    *timerQueue
}

// Every schedules fn to run every interval of virtual time, first at
// now+interval. It panics on non-positive intervals (a zero-interval
// timer would livelock the clock). Stop the returned Timer to cancel.
func (s *Simulator) Every(interval time.Duration, fn func()) *Timer {
	if interval <= 0 {
		panic(fmt.Sprintf("netsim: non-positive timer interval %v", interval))
	}
	s.seq++
	t := &Timer{due: s.now + interval, seq: s.seq, interval: interval, fn: fn, queue: &s.timers}
	heap.Push(&s.timers, t)
	return t
}

// Stop cancels the timer. Safe to call more than once.
func (t *Timer) Stop() {
	if t.index < 0 {
		return
	}
	// The owning simulator's heap holds the timer; remove by index.
	t.heapRemove()
}

// heapRemove detaches the timer from its queue. Timers keep their heap
// index up to date through timerQueue's Swap, so removal is O(log n)
// without a back-pointer to the simulator.
func (t *Timer) heapRemove() {
	q := t.queue
	if q == nil || t.index < 0 {
		return
	}
	heap.Remove(q, t.index)
	t.index = -1
	t.queue = nil
}

// Pending reports the number of queued events.
func (s *Simulator) Pending() int { return len(s.queue) }

// Events reports the total number of events executed so far.
func (s *Simulator) Events() uint64 { return s.events }

// event is one queued occurrence: a frame delivery when dst is set (buf
// handed to dst's owner), otherwise a call of fn.
type event struct {
	at  time.Duration
	seq uint64
	fn  func()
	dst *Port
	buf []byte
}

// before is the queue order: time, then scheduling sequence. seq is
// unique, so the order is total and the pop sequence is a function of
// the schedule alone, not of the heap's shape.
func (e *event) before(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// eventQueue is a binary min-heap of event values ordered by before.
// Events are stored by value and sifted by hand: the queue is the
// simulator's innermost loop, and a container/heap of *event costs an
// allocation per event and an interface call per comparison.
type eventQueue []event

func (q *eventQueue) push(ev event) {
	h := append(*q, ev) //apna:alloc-ok
	*q = h
	// Sift up: move parents down into the hole until ev fits.
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !ev.before(&h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = ev
}

// pop removes and returns the earliest event. The queue must not be
// empty.
func (q *eventQueue) pop() event {
	h := *q
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = event{} // release the closure and the frame
	h = h[:n]
	*q = h
	if n == 0 {
		return top
	}
	// Sift down: move the smaller child up into the hole until last fits.
	i := 0
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && h[r].before(&h[child]) {
			child = r
		}
		if !h[child].before(&last) {
			break
		}
		h[i] = h[child]
		i = child
	}
	h[i] = last
	return top
}

// timerQueue is the min-heap of recurring timers, ordered like the
// event queue (time, then creation sequence).
type timerQueue []*Timer

func (q timerQueue) Len() int { return len(q) }
func (q timerQueue) Less(i, j int) bool {
	if q[i].due != q[j].due {
		return q[i].due < q[j].due
	}
	return q[i].seq < q[j].seq
}
func (q timerQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}
func (q *timerQueue) Push(x any) {
	t := x.(*Timer)
	t.index = len(*q)
	*q = append(*q, t)
}
func (q *timerQueue) Pop() any {
	old := *q
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	t.index = -1
	*q = old[:n-1]
	return t
}
