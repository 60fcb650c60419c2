// Package trace holds the session samplers of the flow-arrival model
// that sizes the MS experiment (paper Section V-A3): a diurnal arrival
// intensity, Poisson arrivals and a dragonfly/tortoise session-duration
// mixture in the spirit of Brownlee & Claffy (the paper's own citation
// for "98% of flows last less than 15 minutes"). The population engine
// draws its workload from them.
//
// The authors used a proprietary 24-hour HTTP(S) trace from a national
// research network (1,266,598 unique hosts, a peak of 3,888 new
// sessions per second). E2 is TestPaperScaleTrace: it synthesizes a
// streaming equivalent from these samplers plus Zipf host popularity
// (generate_test.go) and holds its scalars to the paper's.
package trace

import (
	"math"
	"math/rand"
)

// Intensity is the diurnal arrival rate at the given tick of a
// period-long virtual day: a raised cosine peaking at 14/24 of the
// period (14:00) with its trough half a period away (02:00), wrapping
// proportionally for periods other than 24h. A non-positive period
// means no diurnal shape: the peak rate throughout.
func Intensity(peak, base float64, tick, period int) float64 {
	if period <= 0 {
		return peak
	}
	phase := 2 * math.Pi * (float64(tick)/float64(period) - 14.0/24.0)
	shape := (1 + math.Cos(phase)) / 2 // 1 at the peak hour, 0 at the trough
	return base + (peak-base)*shape
}

// Poisson samples a Poisson variate: Knuth's product method for small
// lambda, the normal approximation above 30 (indistinguishable there
// and O(1), which matters when lambda is in the thousands).
func Poisson(rng *rand.Rand, lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	if lambda > 30 {
		n := int(math.Round(lambda + math.Sqrt(lambda)*rng.NormFloat64()))
		if n < 0 {
			return 0
		}
		return n
	}
	l := math.Exp(-lambda)
	k, p := 0, 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// Duration-mixture parameters (Brownlee & Claffy dragonflies and
// tortoises, the paper's citation for "98% of flows last less than 15
// minutes"): most flows are short exponentials, a heavy Pareto tail
// keeps a few alive for hours.
const (
	dragonflyFrac  = 0.95
	dragonflyMeanS = 45.0
	tortoiseAlpha  = 1.3
	tortoiseXmS    = 60.0
	tortoiseCapS   = 6 * 3600.0
)

// SampleDuration draws a session lifetime in seconds from the
// dragonfly/tortoise mixture.
func SampleDuration(rng *rand.Rand) float64 {
	if rng.Float64() < dragonflyFrac {
		return rng.ExpFloat64() * dragonflyMeanS
	}
	x := tortoiseXmS * math.Pow(rng.Float64(), -1/tortoiseAlpha)
	if x > tortoiseCapS {
		x = tortoiseCapS
	}
	return x
}
