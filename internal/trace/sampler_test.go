package trace

import (
	"math"
	"math/rand"
	"testing"
)

// TestPoissonMean checks the Poisson sampler's mean in both regimes
// (Knuth below the normal-approximation threshold, normal above).
func TestPoissonMean(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, lambda := range []float64{2.5, 200} {
		const n = 100_000
		var sum float64
		for i := 0; i < n; i++ {
			sum += float64(Poisson(rng, lambda))
		}
		mean := sum / n
		if rel := math.Abs(mean-lambda) / lambda; rel > 0.05 {
			t.Errorf("Poisson(%v) mean %.2f (rel err %.3f)", lambda, mean, rel)
		}
	}
}

// TestIntensityEndpoints pins the raised cosine's extremes — the peak
// rate at 14/24 of the period, the base rate half a period away — and
// the flat peak rate a non-positive period stands for.
func TestIntensityEndpoints(t *testing.T) {
	const period = 86_400
	if v := Intensity(4, 1, period*14/24, period); math.Abs(v-4) > 1e-6 {
		t.Errorf("intensity at the peak hour = %v, want 4", v)
	}
	if v := Intensity(4, 1, period*2/24, period); math.Abs(v-1) > 1e-6 {
		t.Errorf("intensity at the trough hour = %v, want 1", v)
	}
	if v := Intensity(4, 1, 17, 0); v != 4 {
		t.Errorf("intensity without a period = %v, want the peak rate", v)
	}
}
