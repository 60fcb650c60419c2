package netsim

import (
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
	const n = 50
	for i := 0; i < n; i++ {
		l.A().Send([]byte{byte(i)})
	}
	sim.Run(1 << 20)
	if len(c.frames) != 2*n {
		t.Fatalf("delivered %d, want %d (every frame duplicated)", len(c.frames), 2*n)
	}
	if got := l.Stats().Duplicated; got != n {
		t.Errorf("Duplicated = %d, want %d", got, n)
	}
	if got := l.Stats().Frames; got != n {
		t.Errorf("Frames = %d, want %d (duplicates are not offered frames)", got, n)
	}
}

func TestChaosReorderDelay(t *testing.T) {
	// ReorderProb 1 holds every frame back by the reorder delay; the
	// arrival time proves the path was taken.
	const latency, hold = time.Millisecond, 5 * time.Millisecond
	sim, l, c := chaosPair(t, 1, latency, ChaosConfig{ReorderProb: 1, ReorderDelay: hold})
	l.A().Send([]byte{1})
	sim.Run(1 << 10)
	if len(c.times) != 1 || c.times[0] != latency+hold {
		t.Fatalf("arrival %v, want %v", c.times, latency+hold)
	}
	if l.Stats().Reordered != 1 {
		t.Errorf("Reordered = %d, want 1", l.Stats().Reordered)
	}
}

func TestChaosTimedPartition(t *testing.T) {
	sim, l, c := chaosPair(t, 1, time.Millisecond, ChaosConfig{})
	l.Partition(10*time.Millisecond, 20*time.Millisecond)

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
	st := l.Stats()
	if st.PartitionDrops != 1 || st.Dropped != 1 {
		t.Errorf("stats = %+v, want 1 partition drop", st)
	}
}

func TestChaosExtraLossIndependentOfBaseLoss(t *testing.T) {
	sim, l, c := chaosPair(t, 3, time.Millisecond, ChaosConfig{Loss: 0.5})
	const n = 400
	for i := 0; i < n; i++ {
		l.A().Send([]byte{byte(i)})
	}
	sim.Run(1 << 20)
	st := l.Stats()
	if st.Dropped == 0 || len(c.frames) == 0 {
		t.Fatalf("chaos loss 0.5: %d delivered, %d dropped — want both nonzero", len(c.frames), st.Dropped)
	}
	if int(st.Frames)+int(st.Dropped) != n {
		t.Errorf("Frames %d + Dropped %d != %d", st.Frames, st.Dropped, n)
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
	run := func() ([]byte, LinkStats) {
		sim, l, c := chaosPair(t, 11, time.Millisecond, ChaosConfig{
			Loss: 0.2, Jitter: 3 * time.Millisecond, DupProb: 0.3,
			ReorderProb: 0.2, ReorderDelay: 2 * time.Millisecond,
		})
		for i := 0; i < 100; i++ {
			l.A().Send([]byte{byte(i)})
		}
		sim.Run(1 << 20)
		var order []byte
		for _, f := range c.frames {
			order = append(order, f[0])
		}
		return order, l.Stats()
	}
	o1, s1 := run()
	o2, s2 := run()
	if string(o1) != string(o2) || s1 != s2 {
		t.Error("same seed produced different chaotic timelines")
	}
}
