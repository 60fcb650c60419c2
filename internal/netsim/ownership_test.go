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
