package netsim

import (
	"testing"
	"testing/quick"
	"time"

	"apna/internal/ephid"
)

func TestSimulatorOrdersEvents(t *testing.T) {
	s := New(1)
	var order []int
	s.Schedule(30*time.Millisecond, func() { order = append(order, 3) })
	s.Schedule(10*time.Millisecond, func() { order = append(order, 1) })
	s.Schedule(20*time.Millisecond, func() { order = append(order, 2) })
	if n := s.Run(100); n != 3 {
		t.Fatalf("ran %d events", n)
	}
	for i, v := range order {
		if v != i+1 {
			t.Fatalf("order = %v", order)
		}
	}
	if s.Now() != 30*time.Millisecond {
		t.Errorf("Now = %v", s.Now())
	}
}

func TestSimulatorFIFOAtSameTime(t *testing.T) {
	s := New(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.Schedule(time.Millisecond, func() { order = append(order, i) })
	}
	s.Run(100)
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events reordered: %v", order)
		}
	}
}

func TestSimulatorNestedScheduling(t *testing.T) {
	s := New(1)
	var fired []time.Duration
	s.Schedule(time.Millisecond, func() {
		s.Schedule(time.Millisecond, func() {
			fired = append(fired, s.Now())
		})
	})
	s.Run(100)
	if len(fired) != 1 || fired[0] != 2*time.Millisecond {
		t.Errorf("fired = %v", fired)
	}
}

func TestSimulatorNegativeDelayPanics(t *testing.T) {
	s := New(1)
	defer func() {
		if recover() == nil {
			t.Error("no panic for negative delay")
		}
	}()
	s.Schedule(-1, func() {})
}

func TestSimulatorRunBudget(t *testing.T) {
	s := New(1)
	var bounce func()
	bounce = func() { s.Schedule(time.Microsecond, bounce) }
	s.Schedule(0, bounce)
	if n := s.Run(50); n != 50 {
		t.Errorf("budget run executed %d", n)
	}
	if s.Pending() == 0 {
		t.Error("livelock drained unexpectedly")
	}
}

func TestRunUntil(t *testing.T) {
	s := New(1)
	var count int
	for i := 1; i <= 10; i++ {
		s.Schedule(time.Duration(i)*time.Second, func() { count++ })
	}
	s.RunUntil(5 * time.Second)
	if count != 5 {
		t.Errorf("count = %d", count)
	}
	if s.Now() != 5*time.Second {
		t.Errorf("Now = %v", s.Now())
	}
	// RunUntil advances the clock even with no events.
	s.RunUntil(20 * time.Second)
	if s.Now() != 20*time.Second || count != 10 {
		t.Errorf("Now = %v, count = %d", s.Now(), count)
	}
}

func TestNowUnix(t *testing.T) {
	s := New(1)
	s.Schedule(90*time.Second, func() {})
	s.Run(10)
	if got := s.NowUnix(); got != epoch+90 {
		t.Errorf("NowUnix = %d", got)
	}
}

func TestLinkDeliversWithLatency(t *testing.T) {
	s := New(1)
	l := s.NewLink("ab", 25*time.Millisecond, 0)
	var arrived time.Duration
	var got []byte
	n := 0
	l.B().Attach(HandlerFunc(func(frame []byte, from *Port) {
		arrived = s.Now()
		got = frame
		n++
	}))
	l.A().Attach(HandlerFunc(func([]byte, *Port) {}))

	l.A().Send([]byte("hello"))
	s.Run(10)
	if string(got) != "hello" {
		t.Fatalf("got %q", got)
	}
	if arrived != 25*time.Millisecond {
		t.Errorf("arrived at %v", arrived)
	}
	if n != 1 || len(got) != 5 {
		t.Errorf("%d frames, %d bytes arrived; want 1, 5", n, len(got))
	}
}

func TestLinkCopiesFrames(t *testing.T) {
	s := New(1)
	l := s.NewLink("ab", 0, 0)
	var got []byte
	l.B().Attach(HandlerFunc(func(frame []byte, from *Port) { got = frame }))
	buf := []byte("mutate-me")
	l.A().Send(buf)
	buf[0] = 'X'
	s.Run(10)
	if string(got) != "mutate-me" {
		t.Errorf("frame aliased sender buffer: %q", got)
	}
}

func TestLinkBidirectional(t *testing.T) {
	s := New(1)
	l := s.NewLink("ab", time.Millisecond, 0)
	var aGot, bGot string
	l.A().Attach(HandlerFunc(func(f []byte, _ *Port) { aGot = string(f) }))
	l.B().Attach(HandlerFunc(func(f []byte, _ *Port) { bGot = string(f) }))
	l.A().Send([]byte("to-b"))
	l.B().Send([]byte("to-a"))
	s.Run(10)
	if aGot != "to-a" || bGot != "to-b" {
		t.Errorf("aGot=%q bGot=%q", aGot, bGot)
	}
}

func TestLinkLossStatistical(t *testing.T) {
	s := New(42)
	trace := s.CaptureFaults()
	l := s.NewLink("lossy", 0, 0.5)
	delivered := 0
	l.B().Attach(HandlerFunc(func([]byte, *Port) { delivered++ }))
	const sent = 2000
	for i := 0; i < sent; i++ {
		l.A().Send([]byte{1})
	}
	s.Run(sent + 10)
	if delivered < 850 || delivered > 1150 {
		t.Errorf("delivered %d of %d at 50%% loss", delivered, sent)
	}
	if draws, drops := faultCount(trace, FaultLoss); drops+delivered != sent || draws != sent {
		t.Errorf("drops %d + delivered %d != %d, or %d loss draws", drops, delivered, sent, draws)
	}
}

func TestLossDeterministicPerSeed(t *testing.T) {
	run := func(seed int64) int {
		s := New(seed)
		l := s.NewLink("lossy", 0, 0.3)
		n := 0
		l.B().Attach(HandlerFunc(func([]byte, *Port) { n++ }))
		for i := 0; i < 500; i++ {
			l.A().Send([]byte{1})
		}
		s.Run(1000)
		return n
	}
	if run(7) != run(7) {
		t.Error("same seed gave different delivery counts")
	}
}

func TestPortAccessors(t *testing.T) {
	s := New(1)
	l := s.NewLink("x", 0, 0)
	h := HandlerFunc(func([]byte, *Port) {})
	l.A().Attach(h)
	if l.A().Owner() == nil || l.A().Sim() != s {
		t.Error("port accessors")
	}
	if l.String() != "link(x)" {
		t.Errorf("String = %q", l)
	}
	// Send to unattached port must not panic.
	l.B().Send([]byte{1})
	l.A().Send([]byte{1}) // B unattached
	s.Run(10)
}

func lineTopology(n int) map[ephid.AID][]ephid.AID {
	adj := make(map[ephid.AID][]ephid.AID)
	for i := 0; i < n-1; i++ {
		a, b := ephid.AID(i), ephid.AID(i+1)
		adj[a] = append(adj[a], b)
		adj[b] = append(adj[b], a)
	}
	return adj
}

func TestComputeRoutesLine(t *testing.T) {
	adj := lineTopology(5)
	r := ComputeRoutes(adj, 0)
	for dst := ephid.AID(1); dst < 5; dst++ {
		if r[dst] != 1 {
			t.Errorf("next hop to %v = %v, want 1", dst, r[dst])
		}
	}
	r4 := ComputeRoutes(adj, 4)
	if r4[0] != 3 {
		t.Errorf("next hop 4->0 = %v", r4[0])
	}
}

func TestComputeRoutesStar(t *testing.T) {
	// Hub 0, leaves 1..4.
	adj := map[ephid.AID][]ephid.AID{}
	for i := ephid.AID(1); i <= 4; i++ {
		adj[0] = append(adj[0], i)
		adj[i] = []ephid.AID{0}
	}
	r1 := ComputeRoutes(adj, 1)
	for dst := ephid.AID(2); dst <= 4; dst++ {
		if r1[dst] != 0 {
			t.Errorf("leaf next hop to %v = %v, want hub", dst, r1[dst])
		}
	}
}

func TestPathLength(t *testing.T) {
	adj := lineTopology(6)
	tables := ComputeAllRoutes(adj)
	n, err := PathLength(tables, 0, 5)
	if err != nil || n != 5 {
		t.Errorf("PathLength = %d, %v", n, err)
	}
	if n, err := PathLength(tables, 3, 3); err != nil || n != 0 {
		t.Errorf("self path = %d, %v", n, err)
	}
	// Disconnected node.
	adj[99] = nil
	tables = ComputeAllRoutes(adj)
	if _, err := PathLength(tables, 0, 99); err == nil {
		t.Error("unreachable destination did not error")
	}
}

func TestRoutesReachabilityProperty(t *testing.T) {
	// Random connected graphs: every node pair must be connected with
	// a path of at most n-1 hops.
	f := func(seed int64, sz uint8) bool {
		n := int(sz%10) + 2
		rng := New(seed).Rand()
		adj := make(map[ephid.AID][]ephid.AID)
		// Random spanning tree guarantees connectivity.
		for i := 1; i < n; i++ {
			p := ephid.AID(rng.Intn(i))
			adj[ephid.AID(i)] = append(adj[ephid.AID(i)], p)
			adj[p] = append(adj[p], ephid.AID(i))
		}
		// Extra random edges.
		for e := 0; e < n; e++ {
			a, b := ephid.AID(rng.Intn(n)), ephid.AID(rng.Intn(n))
			if a != b {
				adj[a] = append(adj[a], b)
				adj[b] = append(adj[b], a)
			}
		}
		tables := ComputeAllRoutes(adj)
		for s := 0; s < n; s++ {
			for d := 0; d < n; d++ {
				hops, err := PathLength(tables, ephid.AID(s), ephid.AID(d))
				if err != nil || hops > n-1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTimerFiresInOrderWithEvents(t *testing.T) {
	s := New(1)
	var log []string
	s.Every(10*time.Millisecond, func() { log = append(log, "tick@"+s.Now().String()) })
	s.Schedule(25*time.Millisecond, func() { log = append(log, "ev@"+s.Now().String()) })
	s.Run(100)
	want := []string{"tick@10ms", "tick@20ms", "ev@25ms"}
	if len(log) != len(want) {
		t.Fatalf("log = %v", log)
	}
	for i := range want {
		if log[i] != want[i] {
			t.Errorf("log[%d] = %q, want %q", i, log[i], want[i])
		}
	}
}

// TestTimerDoesNotPreventIdleness: with an empty event queue, Step and
// Run refuse to fire timers — quiescence is defined by real events, so
// maintenance timers cannot keep a drained timeline alive forever.
func TestTimerDoesNotPreventIdleness(t *testing.T) {
	s := New(1)
	fired := 0
	s.Every(time.Millisecond, func() { fired++ })
	if n := s.Run(1000); n != 0 || fired != 0 {
		t.Errorf("empty-queue run executed %d events, %d ticks", n, fired)
	}
	if s.Step() {
		t.Error("Step fired against an empty queue")
	}
}

// TestTimerSweepsIdleGapsUnderRunUntil: RunUntil explicitly passes
// virtual time, so due timers fire across gaps with no queued events —
// how scheduled GC and renewal checks run through quiet periods.
func TestTimerSweepsIdleGapsUnderRunUntil(t *testing.T) {
	s := New(1)
	fired := 0
	s.Every(10*time.Second, func() { fired++ })
	s.RunUntil(35 * time.Second)
	if fired != 3 {
		t.Errorf("fired %d, want 3", fired)
	}
	if s.Now() != 35*time.Second {
		t.Errorf("now = %v", s.Now())
	}
}

// TestTimerCallbackSchedulesEvents: a timer that schedules real work
// (the renewal pattern) has that work executed in the same sweep.
func TestTimerCallbackSchedulesEvents(t *testing.T) {
	s := New(1)
	ran := 0
	s.Every(10*time.Second, func() {
		s.Schedule(time.Millisecond, func() { ran++ })
	})
	s.RunUntil(25 * time.Second)
	if ran != 2 {
		t.Errorf("scheduled work ran %d times, want 2", ran)
	}
}

// TestTimerTieBreak: a timer due exactly when an event is due fires
// first, so maintenance precedes the traffic it gates.
func TestTimerTieBreak(t *testing.T) {
	s := New(1)
	var log []string
	s.Schedule(10*time.Millisecond, func() { log = append(log, "ev") })
	s.Every(10*time.Millisecond, func() { log = append(log, "tick") })
	s.Run(10)
	if len(log) != 2 || log[0] != "tick" || log[1] != "ev" {
		t.Errorf("log = %v", log)
	}
}
