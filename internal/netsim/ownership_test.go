package netsim

import (
	"testing"
	"time"
)

// The frame-ownership contract of the package comment, one clause per
// test: Send copies, Forward transfers, taps and duplicates get copies.

// sameArray reports whether two non-empty slices share a backing array
// position.
func sameArray(a, b []byte) bool { return &a[0] == &b[0] }

func TestSendCopiesForwardTransfers(t *testing.T) {
	sim, l, c := chaosPair(t, 1, time.Millisecond, ChaosConfig{})

	sent := []byte{1, 2, 3}
	l.A().Send(sent)
	sent[0] = 99 // the caller kept its buffer and reuses it
	forwarded := []byte{4, 5, 6}
	l.A().Forward(forwarded)
	sim.Run(1 << 10)

	if len(c.frames) != 2 {
		t.Fatalf("delivered %d frames, want 2", len(c.frames))
	}
	if sameArray(c.frames[0], sent) || c.frames[0][0] != 1 {
		t.Errorf("Send delivered %v aliasing=%v, want a private copy of {1 2 3}", c.frames[0], sameArray(c.frames[0], sent))
	}
	if !sameArray(c.frames[1], forwarded) {
		t.Error("Forward copied the frame; it must deliver the buffer it was given")
	}
}

func TestDuplicateDeliveriesDoNotShareABuffer(t *testing.T) {
	for name, transmit := range map[string]func(*Port, []byte){
		"Send": (*Port).Send, "Forward": (*Port).Forward,
	} {
		sim, l, c := chaosPair(t, 1, time.Millisecond, ChaosConfig{DupProb: 1})
		transmit(l.A(), []byte{7, 7})
		sim.Run(1 << 10)
		if len(c.frames) != 2 {
			t.Fatalf("%s: delivered %d, want the frame and its duplicate", name, len(c.frames))
		}
		if sameArray(c.frames[0], c.frames[1]) {
			t.Fatalf("%s: the two deliveries share a backing array", name)
		}
		// A receiver that owns its frame may scribble on it.
		c.frames[0][0] = 0
		if c.frames[1][0] != 7 {
			t.Errorf("%s: writing one delivery changed the other", name)
		}
	}
}

func TestTapCopyIsIndependentOfAForwardedFrame(t *testing.T) {
	sim, l, c := chaosPair(t, 1, time.Millisecond, ChaosConfig{})
	var captured []byte
	l.AddTap(func(frame []byte, _ *Port) { captured = frame })
	frame := []byte{42}
	l.A().Forward(frame)
	sim.Run(1 << 10)
	if len(c.frames) != 1 || captured == nil {
		t.Fatalf("delivered %d, captured %v", len(c.frames), captured)
	}
	if sameArray(captured, c.frames[0]) {
		t.Fatal("the tap was handed the buffer in flight, not a copy")
	}
	c.frames[0][0]-- // what a transit hop-limit decrement does downstream
	if captured[0] != 42 {
		t.Errorf("tap's capture changed to %d when the receiver mutated its frame", captured[0])
	}
}

// runKeeper is a BatchHandler that keeps everything it is handed: the
// frames, which are its own, and the two slices, which are not.
type runKeeper struct {
	sim          *Simulator
	frames       [][]byte // kept frame by frame
	slices       [][][]byte
	from         [][]*Port
	stepInsideOf int // the run during which it steps the simulator itself
}

func (k *runKeeper) HandleFrame(frame []byte, _ *Port) { k.frames = append(k.frames, frame) }

func (k *runKeeper) HandleFrames(frames [][]byte, from []*Port) {
	k.slices, k.from = append(k.slices, frames), append(k.from, from)
	for i, frame := range frames {
		if i == 1 && len(k.slices) == k.stepInsideOf {
			k.sim.Run(1 << 10) // a run inside the run
		}
		k.HandleFrame(frame, from[i])
	}
}

func TestRunFramesBelongToTheHandlerItsSlicesToTheSimulator(t *testing.T) {
	sim := New(1)
	l := sim.NewLink("run", time.Millisecond, 0)
	k := &runKeeper{sim: sim}
	l.B().Attach(k)
	sent := [][]byte{{1}, {2}, {3}}
	for _, f := range sent {
		l.A().Forward(f)
	}
	sim.Run(1 << 10)
	if len(k.slices) != 1 || len(k.frames) != len(sent) {
		t.Fatalf("%d frames came in %d runs, want %d in one", len(k.frames), len(k.slices), len(sent))
	}
	for i, f := range k.frames {
		if !sameArray(f, sent[i]) {
			t.Errorf("frame %d of the run is not the buffer that was forwarded", i)
		}
	}
	// Nobody keeps the run's slices: what the handler held on to has been
	// emptied, so the simulator pins no frame the handler let go of.
	for i := range sent {
		if k.slices[0][i] != nil || k.from[0][i] != nil {
			t.Errorf("entry %d of the run's slices still set after HandleFrames returned", i)
		}
	}
	// The next run reuses the slices and leaves the kept frames alone.
	l.A().Forward([]byte{4})
	sim.Run(1 << 10)
	if len(k.frames) != 4 || k.frames[0][0] != 1 || k.frames[3][0] != 4 {
		t.Fatalf("kept frames changed under a later run: %v", k.frames)
	}
}

func TestRunInsideARunGetsItsOwnSlices(t *testing.T) {
	sim := New(1)
	l := sim.NewLink("outer", time.Millisecond, 0)
	k := &runKeeper{sim: sim, stepInsideOf: 2}
	l.B().Attach(k)
	// A first run, so that the simulator has slices to reuse.
	for i := 0; i < 8; i++ {
		l.A().Forward([]byte{0})
	}
	sim.Run(1 << 10)
	k.frames = nil

	for i := byte(1); i <= 3; i++ {
		l.A().Forward([]byte{i})
	}
	for i := byte(4); i <= 6; i++ { // a later instant: the inner run
		sim.Schedule(2*time.Millisecond, func() { l.A().Forward([]byte{i}) })
	}
	if n := sim.Run(1 << 10); n != 3 {
		t.Fatalf("the outer Run counted %d events, want its own run of 3", n)
	}
	if sim.Events() != 8+9 {
		t.Fatalf("%d events executed, want 17", sim.Events())
	}
	// The outer run went on where it stopped, over its own frames.
	var got []byte
	for _, f := range k.frames {
		got = append(got, f[0])
	}
	if want := []byte{1, 4, 5, 6, 2, 3}; string(got) != string(want) {
		t.Fatalf("frames handled in order %v, want %v", got, want)
	}
}
