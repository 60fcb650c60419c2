package quantile

import (
	"testing"
	"time"
)

func TestNearestRank(t *testing.T) {
	hundred := make([]int, 100) // 1…100
	for i := range hundred {
		hundred[i] = i + 1
	}
	cases := []struct {
		name   string
		sorted []int
		q      float64
		want   int
	}{
		{"empty", nil, 0.5, 0},
		{"one sample", []int{7}, 0.99, 7},
		{"median of 100", hundred, 0.50, 50},
		{"p90 of 100", hundred, 0.90, 90},
		{"p99 of 100", hundred, 0.99, 99},
		{"max", hundred, 1, 100},
		{"q 0 is the minimum", hundred, 0, 1},
		{"q above 1 clamps", hundred, 1.5, 100},
		// ⌈0.98·10⌉ = 10: the 10th of 10 samples, not the 9th.
		{"p98 of 10", hundred[:10], 0.98, 10},
		// ⌈0.5·5⌉ = 3: the middle sample of an odd count.
		{"median of 5", hundred[:5], 0.5, 3},
		// ⌈0.5·4⌉ = 2: the lower middle of an even count.
		{"median of 4", hundred[:4], 0.5, 2},
	}
	for _, tc := range cases {
		if got := NearestRank(tc.sorted, tc.q); got != tc.want {
			t.Errorf("%s: NearestRank(q=%v) = %d, want %d", tc.name, tc.q, got, tc.want)
		}
	}
	if got := NearestRank([]time.Duration{time.Second, time.Minute}, 0.5); got != time.Second {
		t.Errorf("durations: median %v, want 1s", got)
	}
}
