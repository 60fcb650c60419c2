// Workload model: the samplers that turn a seed into realistic host
// behavior. Arrival intensity, Poisson counts and flow durations are
// internal/trace's (the Section V-A3 trace synthesizer); this file adds
// the whole-second duration and a heavy-tailed Pareto flow-size law so
// the modeled population also produces a byte volume. Everything is
// driven by explicit *rand.Rand instances so one seed yields one event
// trace.
package population

import (
	"math"
	"math/rand"

	"apna/internal/trace"
)

// sampleDuration draws a flow duration in whole seconds (at least 1)
// from internal/trace's dragonfly/tortoise mixture — the long tail is
// the flows that must renew their EphIDs, repeatedly, at
// validity-window edges.
func sampleDuration(rng *rand.Rand) uint32 {
	s := trace.SampleDuration(rng)
	if s < 1 {
		return 1
	}
	return uint32(s)
}

// Flow-size law: Pareto with alpha just above 1, so the mean exists but
// the tail carries most of the bytes (the elephants-and-mice shape of
// measured Internet traffic).
const (
	sizeAlpha = 1.2
	sizeXmB   = 4 << 10 // 4 KiB minimum flow
	sizeCapB  = 1 << 30 // 1 GiB cap keeps counters sane
)

// sampleSize draws a flow size in bytes.
func sampleSize(rng *rand.Rand) uint64 {
	x := sizeXmB * math.Pow(rng.Float64(), -1/sizeAlpha)
	if x > sizeCapB {
		x = sizeCapB
	}
	return uint64(x)
}
