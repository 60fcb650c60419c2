package pktgen

import (
	"math"
	"testing"

	"apna/internal/border"
	"apna/internal/wire"
)

func TestLineRatePPS(t *testing.T) {
	// 120 Gbps at 1518 B frames: 120e9 / ((1518+20)*8) = 9.75 Mpps.
	got := LineRatePPS(120, 1518)
	want := 120e9 / ((1518 + 20) * 8)
	if math.Abs(got-want) > 1 {
		t.Errorf("line rate = %f, want %f", got, want)
	}
	// Smaller frames mean higher packet rates.
	if LineRatePPS(120, 128) <= LineRatePPS(120, 1518) {
		t.Error("line rate not monotone in frame size")
	}
}

func TestFixtureFramesValid(t *testing.T) {
	f, err := NewFixture(16, 256)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Frames) != 16 {
		t.Fatalf("frames = %d", len(f.Frames))
	}
	pipe := f.Router.NewEgressPipeline()
	for i, frame := range f.Frames {
		if len(frame) != 256 {
			t.Fatalf("frame %d size %d", i, len(frame))
		}
		if !wire.ValidFrame(frame) {
			t.Fatalf("frame %d invalid", i)
		}
		if v := pipe.Process(frame); v != border.VerdictForward {
			t.Fatalf("frame %d verdict %v", i, v)
		}
	}
}

func TestFixtureRejectsTinyFrames(t *testing.T) {
	if _, err := NewFixture(1, wire.HeaderSize-1); err == nil {
		t.Error("sub-header frame size accepted")
	}
}
