package netsim

import (
	"testing"
	"time"
)

// stamper is deferred work of the kind Defer exists for: it writes the
// first byte of every frame sent through it, and only when settled.
// The test keeps an alias of each frame it hands over, so it can look
// at a frame in places a well-behaved reader never could.
type stamper struct {
	sim     *Simulator
	pending [][]byte
	settled int // Settle calls
}

// send forwards a fresh unstamped frame over p, deferring its stamp,
// and returns the frame.
func (s *stamper) send(p *Port) []byte {
	if len(s.pending) == 0 {
		s.sim.Defer(s)
	}
	frame := make([]byte, 8)
	s.pending = append(s.pending, frame)
	p.Forward(frame)
	return frame
}

func (s *stamper) Settle() {
	for _, f := range s.pending {
		f[0] = 1
	}
	s.pending = s.pending[:0]
	s.settled++
}

// stamped fails the test unless every frame carries its stamp.
func stamped(t *testing.T, where string, frames ...[]byte) {
	t.Helper()
	for i, f := range frames {
		if f[0] != 1 {
			t.Errorf("%s: frame %d read before its deferred work was settled", where, i)
		}
	}
}

// TestSettleBeforeEveryRead pins each settle point: deferred work is
// done before the simulator executes a queued event (a handler, a run,
// a scheduled function, a nested Step inside a handler) or fires a
// timer, and before a tap or a duplicating link copies a frame.
func TestSettleBeforeEveryRead(t *testing.T) {
	t.Run("handler and run", func(t *testing.T) {
		sim := New(1)
		s := &stamper{sim: sim}
		l := sim.NewLink("l", time.Millisecond, 0)
		var got int
		l.B().Attach(HandlerFunc(func(frame []byte, _ *Port) { stamped(t, "HandleFrame", frame); got++ }))
		s.send(l.A())
		run := &runSink{t: t}
		m := sim.NewLink("m", time.Millisecond, 0)
		m.B().Attach(run)
		s.send(m.A())
		s.send(m.A())
		sim.Run(10)
		if got != 1 || run.frames != 2 || s.settled != 1 {
			t.Fatalf("%d frames, %d in runs, %d settles; want 1, 2 and one settle for one instant", got, run.frames, s.settled)
		}
	})
	t.Run("scheduled function", func(t *testing.T) {
		sim := New(1)
		s := &stamper{sim: sim}
		f := s.send(sim.NewLink("l", time.Millisecond, 0).A())
		sim.Schedule(0, func() { stamped(t, "Schedule", f) })
		sim.Run(10)
	})
	t.Run("timer", func(t *testing.T) {
		sim := New(1)
		s := &stamper{sim: sim}
		var f []byte
		fired := 0
		sim.Every(time.Millisecond, func() {
			if f != nil {
				stamped(t, "timer", f)
			}
			fired++
			f = s.send(sim.NewLink("l", 5*time.Millisecond, 0).A())
		})
		// The first frame goes out from outside any event; the timer,
		// due before it arrives, is the next thing to run.
		f = s.send(sim.NewLink("l", 5*time.Millisecond, 0).A())
		sim.RunUntil(3 * time.Millisecond)
		if fired != 3 {
			t.Fatalf("timer fired %d times, want 3", fired)
		}
	})
	t.Run("nested step", func(t *testing.T) {
		sim := New(1)
		s := &stamper{sim: sim}
		in, out := sim.NewLink("in", 0, 0), sim.NewLink("out", 0, 0)
		var nested []byte
		out.B().Attach(HandlerFunc(func(frame []byte, _ *Port) { nested = frame; stamped(t, "nested Step", frame) }))
		in.B().Attach(HandlerFunc(func([]byte, *Port) {
			s.send(out.A())
			if !sim.Step() || nested == nil {
				t.Error("the nested Step did not deliver the frame sent from the handler")
			}
		}))
		s.send(in.A())
		sim.Run(10)
	})
	t.Run("tap and duplicate", func(t *testing.T) {
		sim := New(1)
		s := &stamper{sim: sim}
		l := sim.NewLink("l", time.Millisecond, 0)
		l.SetChaos(ChaosConfig{DupProb: 1})
		var taps, copies int
		l.AddTap(func(frame []byte, _ *Port) { stamped(t, "tap", frame); taps++ })
		l.B().Attach(HandlerFunc(func(frame []byte, _ *Port) { stamped(t, "duplicate", frame); copies++ }))
		s.send(l.A())
		sim.Run(10)
		if taps != 1 || copies != 2 {
			t.Fatalf("%d tap copies and %d deliveries, want 1 and 2", taps, copies)
		}
	})
}

// runSink is a BatchHandler that checks every frame of its runs.
type runSink struct {
	t      *testing.T
	frames int
}

func (r *runSink) HandleFrame(frame []byte, from *Port) {
	stamped(r.t, "HandleFrames", frame)
	r.frames++
}

func (r *runSink) HandleFrames(frames [][]byte, from []*Port) {
	for i, f := range frames {
		r.HandleFrame(f, from[i])
	}
}

// TestDeferAllocs pins that deferring costs nothing once the list has
// grown: a send, its Defer and the step that settles it allocate no
// more than the frame itself.
func TestDeferAllocs(t *testing.T) {
	sim := New(1)
	s := &stamper{sim: sim}
	l := sim.NewLink("alloc", time.Millisecond, 0)
	l.B().Attach(HandlerFunc(func([]byte, *Port) {}))
	for range 4 {
		s.send(l.A())
		sim.Run(10)
	}
	allocs := testing.AllocsPerRun(200, func() {
		s.send(l.A())
		if !sim.Step() {
			t.Fatal("frame event not queued")
		}
	})
	if allocs != 1 {
		t.Errorf("send + Defer + step allocates %v times, want 1 (the frame)", allocs)
	}
}

// TestSharedPerSimulator pins that Shared keeps one value per key and
// per simulator: components of one simulation find the same value, and
// a second simulator gets its own.
func TestSharedPerSimulator(t *testing.T) {
	type key struct{}
	a, b := New(1), New(2)
	made := 0
	mk := func() any { made++; return new(int) }
	pa, pb := a.Shared(key{}, mk), b.Shared(key{}, mk)
	if a.Shared(key{}, mk) != pa || b.Shared(key{}, mk) != pb || pa == pb || made != 2 {
		t.Fatalf("Shared made %d values; one simulator's value is the other's: %v", made, pa == pb)
	}
	if l := a.NewLink("l", 0, 0); l.A().Sim() != a {
		t.Fatal("a port does not report its simulator")
	}
}
