package benchgate

import (
	"math"
	"testing"
)

func TestMannWhitneyExactKnownValues(t *testing.T) {
	cases := []struct {
		name string
		a, b []float64
		want float64
	}{
		// Perfect separation at 3v3: both one-sided tails are 1/20, so
		// the two-sided exact p is 0.1 — the floor CI's minimum rerun
		// count can reach, and exactly the gate's alpha.
		{"3v3 separated", []float64{1, 2, 3}, []float64{4, 5, 6}, 0.1},
		{"3v3 separated reversed", []float64{4, 5, 6}, []float64{1, 2, 3}, 0.1},
		// 4v4 perfect separation: 2/C(8,4) = 2/70.
		{"4v4 separated", []float64{1, 2, 3, 4}, []float64{5, 6, 7, 8}, 2.0 / 70},
		// Interleaved: U=3 of 9, so the two-sided tail is
		// 2*P(U<=3) = 2*(1+1+2+3)/20 = 0.7 — nowhere near rejection.
		{"3v3 interleaved", []float64{1, 3, 5}, []float64{2, 4, 6}, 0.7},
		{"empty side", nil, []float64{1, 2}, 1.0},
	}
	for _, tc := range cases {
		got := MannWhitneyU(tc.a, tc.b)
		if math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("%s: p=%v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestMannWhitneyTiesNeverReject(t *testing.T) {
	// All-identical sides must yield p = 1: a deterministic metric that
	// did not change is the strongest possible "no evidence".
	a := []float64{7, 7, 7}
	b := []float64{7, 7, 7}
	if p := MannWhitneyU(a, b); p != 1 {
		t.Errorf("identical tied samples: p=%v, want 1", p)
	}
}

func TestMannWhitneyTieCorrectionPath(t *testing.T) {
	// Cross-side ties force the normal approximation; a clearly
	// separated pair must still come out significant, an overlapping
	// pair must not.
	sep := MannWhitneyU([]float64{1, 1, 2, 2, 3}, []float64{8, 8, 9, 9, 10})
	if sep > 0.05 {
		t.Errorf("separated tied samples: p=%v, want <= 0.05", sep)
	}
	same := MannWhitneyU([]float64{1, 2, 2, 3}, []float64{1, 2, 3, 3})
	if same < 0.5 {
		t.Errorf("overlapping tied samples: p=%v, want >= 0.5", same)
	}
}

func TestMannWhitneyLargeSampleApproximation(t *testing.T) {
	// Past exactLimit the normal path takes over; a big shifted sample
	// must be overwhelmingly significant.
	var a, b []float64
	for i := 0; i < 25; i++ {
		a = append(a, float64(i))
		b = append(b, float64(i)+100)
	}
	if p := MannWhitneyU(a, b); p > 1e-6 {
		t.Errorf("25v25 shifted: p=%v, want tiny", p)
	}
}

func TestMedian(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{5}, 5},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	}
	for _, tc := range cases {
		if got := median(tc.in); got != tc.want {
			t.Errorf("median(%v)=%v, want %v", tc.in, got, tc.want)
		}
	}
	// median must not mutate its input.
	in := []float64{3, 1, 2}
	median(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Errorf("median reordered its input: %v", in)
	}
}

func TestUDistributionSumsToBinomial(t *testing.T) {
	// The enumerated null distribution must count every arrangement:
	// sum over u of counts = C(n+m, n).
	binom := func(n, k int) float64 {
		r := 1.0
		for i := 0; i < k; i++ {
			r = r * float64(n-i) / float64(i+1)
		}
		return r
	}
	for _, nm := range [][2]int{{1, 1}, {2, 3}, {3, 3}, {4, 4}, {5, 7}} {
		dist := uDistribution(nm[0], nm[1])
		total := 0.0
		for _, c := range dist {
			total += c
		}
		if want := binom(nm[0]+nm[1], nm[0]); math.Abs(total-want) > 1e-6 {
			t.Errorf("n=%d m=%d: total %v, want %v", nm[0], nm[1], total, want)
		}
	}
}
