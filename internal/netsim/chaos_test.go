package netsim

import (
	"slices"
	"testing"
	"time"
)

// collector records delivered frames with their arrival times.
type collector struct {
	sim    *Simulator
	frames [][]byte
	times  []time.Duration
}

func (c *collector) HandleFrame(frame []byte, _ *Port) {
	c.frames = append(c.frames, frame)
	c.times = append(c.times, c.sim.Now())
}

// faultCount returns how many decisions of one kind the trace recorded
// and how many of them hit.
func faultCount(trace *FaultTrace, kind string) (draws, hits int) {
	for _, ev := range trace.Events {
		if ev.Kind == kind {
			draws++
			if ev.Hit {
				hits++
			}
		}
	}
	return draws, hits
}

func chaosPair(t *testing.T, seed int64, latency time.Duration, cfg ChaosConfig) (*Simulator, *Link, *collector) {
	t.Helper()
	sim := New(seed)
	l := sim.NewLink("chaos", latency, 0)
	l.SetChaos(cfg)
	c := &collector{sim: sim}
	l.A().Attach(HandlerFunc(func([]byte, *Port) {}), "src")
	l.B().Attach(c, "dst")
	return sim, l, c
}

func TestChaosJitterBoundsAndReordering(t *testing.T) {
	const latency = 10 * time.Millisecond
	const jitter = 8 * time.Millisecond
	sim, l, c := chaosPair(t, 7, latency, ChaosConfig{Jitter: jitter})
	const n = 200
	for i := 0; i < n; i++ {
		l.A().Send([]byte{byte(i)})
	}
	sim.Run(1 << 20)
	if len(c.frames) != n {
		t.Fatalf("delivered %d of %d", len(c.frames), n)
	}
	reordered := false
	for i, at := range c.times {
		if at < latency || at > latency+jitter {
			t.Fatalf("frame %d arrived at %v outside [%v, %v]", i, at, latency, latency+jitter)
		}
		if c.frames[i][0] != byte(i) {
			reordered = true
		}
	}
	// All frames left at t=0 with independent jitter draws; ties are
	// broken by schedule order, but 200 draws over 8ms virtually
	// guarantee at least one inversion.
	if !reordered {
		t.Error("jitter produced no reordering across 200 frames")
	}
}

func TestChaosDuplication(t *testing.T) {
	sim, l, c := chaosPair(t, 1, time.Millisecond, ChaosConfig{DupProb: 1})
	trace := sim.CaptureFaults()
	const n = 50
	for i := 0; i < n; i++ {
		l.A().Send([]byte{byte(i)})
	}
	sim.Run(1 << 20)
	if len(c.frames) != 2*n {
		t.Fatalf("delivered %d, want %d (every frame duplicated)", len(c.frames), 2*n)
	}
	if draws, hits := faultCount(trace, FaultDup); hits != n || draws != n {
		t.Errorf("%d duplication draws, %d hits; want %d, %d (duplicates are not offered frames)", draws, hits, n, n)
	}
}

func TestChaosReorderDelay(t *testing.T) {
	// ReorderProb 1 holds every frame back by the reorder delay; the
	// arrival time proves the path was taken.
	const latency, hold = time.Millisecond, 5 * time.Millisecond
	sim, l, c := chaosPair(t, 1, latency, ChaosConfig{ReorderProb: 1, ReorderDelay: hold})
	trace := sim.CaptureFaults()
	l.A().Send([]byte{1})
	sim.Run(1 << 10)
	if len(c.times) != 1 || c.times[0] != latency+hold {
		t.Fatalf("arrival %v, want %v", c.times, latency+hold)
	}
	if _, hits := faultCount(trace, FaultReorder); hits != 1 {
		t.Errorf("%d reorder hits, want 1", hits)
	}
}

func TestChaosTimedPartition(t *testing.T) {
	sim, l, c := chaosPair(t, 1, time.Millisecond, ChaosConfig{})
	l.Partition(10*time.Millisecond, 20*time.Millisecond)
	trace := sim.CaptureFaults()

	send := func(at time.Duration, b byte) {
		sim.Schedule(at, func() { l.A().Send([]byte{b}) })
	}
	send(5*time.Millisecond, 1)  // before: delivered
	send(15*time.Millisecond, 2) // inside: dropped
	send(25*time.Millisecond, 3) // after: delivered
	sim.Run(1 << 10)

	if len(c.frames) != 2 || c.frames[0][0] != 1 || c.frames[1][0] != 3 {
		t.Fatalf("delivered %v, want frames 1 and 3", c.frames)
	}
	if len(trace.Events) != 1 || trace.Events[0].Kind != FaultPartition || trace.Events[0].At != int64(15*time.Millisecond) {
		t.Errorf("fault trace %+v, want the one partition drop at 15ms", trace.Events)
	}
}

func TestChaosExtraLossIndependentOfBaseLoss(t *testing.T) {
	sim, l, c := chaosPair(t, 3, time.Millisecond, ChaosConfig{Loss: 0.5})
	trace := sim.CaptureFaults()
	const n = 400
	for i := 0; i < n; i++ {
		l.A().Send([]byte{byte(i)})
	}
	sim.Run(1 << 20)
	draws, dropped := faultCount(trace, FaultChaosLoss)
	if dropped == 0 || len(c.frames) == 0 {
		t.Fatalf("chaos loss 0.5: %d delivered, %d dropped — want both nonzero", len(c.frames), dropped)
	}
	if len(c.frames)+dropped != n || draws != n || len(trace.Events) != n {
		t.Errorf("%d delivered + %d dropped != %d, or %d chaos-loss draws in %d fault events (want %d, and no base-loss draw)",
			len(c.frames), dropped, n, draws, len(trace.Events), n)
	}
}

func TestChaosTapCapturesCopies(t *testing.T) {
	sim, l, c := chaosPair(t, 1, time.Millisecond, ChaosConfig{})
	var captured [][]byte
	l.AddTap(func(frame []byte, from *Port) {
		if from != l.A() {
			t.Errorf("tap saw sender %v, want port A", from.Label())
		}
		captured = append(captured, frame)
	})
	l.A().Send([]byte{42})
	if len(captured) != 1 {
		t.Fatalf("captured %d frames at send time, want 1", len(captured))
	}
	captured[0][0] = 99 // the tap's copy must not alias the delivery
	sim.Run(1 << 10)
	if len(c.frames) != 1 || c.frames[0][0] != 42 {
		t.Fatalf("delivered %v, want untainted frame 42", c.frames)
	}
}

func TestChaosTapsAccumulate(t *testing.T) {
	// Two wiretaps on the same link (two adversaries sharing a path)
	// must both capture: installing the second cannot displace the
	// first.
	_, l, _ := chaosPair(t, 1, time.Millisecond, ChaosConfig{})
	var first, second int
	l.AddTap(func([]byte, *Port) { first++ })
	l.AddTap(func([]byte, *Port) { second++ })
	l.A().Send([]byte{1})
	l.B().Send([]byte{2})
	if first != 2 || second != 2 {
		t.Errorf("taps saw %d/%d frames, want 2/2", first, second)
	}
}

func TestChaosDeterministicAcrossRuns(t *testing.T) {
	run := func() ([]byte, []FaultEvent) {
		sim, l, c := chaosPair(t, 11, time.Millisecond, ChaosConfig{
			Loss: 0.2, Jitter: 3 * time.Millisecond, DupProb: 0.3,
			ReorderProb: 0.2, ReorderDelay: 2 * time.Millisecond,
		})
		trace := sim.CaptureFaults()
		for i := 0; i < 100; i++ {
			l.A().Send([]byte{byte(i)})
		}
		sim.Run(1 << 20)
		var order []byte
		for _, f := range c.frames {
			order = append(order, f[0])
		}
		return order, trace.Events
	}
	o1, f1 := run()
	o2, f2 := run()
	if string(o1) != string(o2) || !slices.Equal(f1, f2) {
		t.Error("same seed produced different chaotic timelines")
	}
}
