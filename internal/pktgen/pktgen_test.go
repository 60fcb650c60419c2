package pktgen

import (
	"math"
	"testing"
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
