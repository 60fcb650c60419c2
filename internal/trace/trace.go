// Package trace synthesizes the flow-arrival trace used to size the MS
// experiment (paper Section V-A3). The authors used a proprietary
// 24-hour HTTP(S) packet trace from a national research network with
// 104M + 74M entries, 1,266,598 unique hosts, and a peak rate of 3,888
// new sessions per second. That trace is not available, so this package
// generates a synthetic equivalent with the same two scalar outputs the
// experiment consumes — unique host count and peak session rate — from
// a realistic model:
//
//   - session arrivals follow a diurnal intensity curve (raised cosine
//     with an afternoon peak and a 4 a.m. trough), sampled per second
//     from a Poisson distribution;
//   - sessions are attributed to hosts by a Zipf popularity law;
//   - session durations are a dragonfly/tortoise mixture in the spirit
//     of Brownlee & Claffy (the paper's own citation for "98% of flows
//     last less than 15 minutes").
//
// Generation is streaming: the full trace is never materialized, only
// a host bitmap and per-second counters, so a day-scale trace analyzes
// in seconds.
package trace

import (
	"errors"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"time"

	"apna/internal/quantile"
)

// Config parameterizes the synthetic trace.
type Config struct {
	// Hosts is the subscriber population of the AS.
	Hosts int
	// Duration of the trace.
	Duration time.Duration
	// PeakRate is the diurnal intensity maximum in new sessions/s.
	PeakRate float64
	// BaseRate is the overnight minimum (defaults to PeakRate/4).
	BaseRate float64
	// ZipfS is the host-popularity skew (must be > 1; default 1.1).
	ZipfS float64
	// Seed makes the trace reproducible.
	Seed int64
	// DurationSampleRate sub-samples session durations for the
	// distribution statistics (default 1%: durations do not affect
	// the scalars, only the reported percentiles).
	DurationSampleRate float64
}

// PaperScale returns the configuration calibrated to reproduce the
// paper's trace scalars: ~1.27M unique hosts and a peak just under 4k
// sessions/s.
func PaperScale() Config {
	return Config{
		Hosts:    1_280_000,
		Duration: 24 * time.Hour,
		PeakRate: 3_800,
		Seed:     1,
	}
}

// Stats are the analysis outputs the MS experiment consumes.
type Stats struct {
	// UniqueHosts is the number of distinct hosts that opened at
	// least one session.
	UniqueHosts int
	// PeakRate is the maximum observed new-sessions-per-second.
	PeakRate int
	// PeakSecond is the trace offset at which the peak occurred.
	PeakSecond int
	// TotalSessions counts all sessions in the trace.
	TotalSessions int64
	// MeanRate is TotalSessions divided by the duration.
	MeanRate float64
	// P50Duration and P98Duration characterize session lifetimes.
	P50Duration, P98Duration time.Duration
}

// ErrBadConfig reports invalid generation parameters.
var ErrBadConfig = errors.New("trace: invalid configuration")

// Generate runs the streaming synthesis and analysis.
func Generate(cfg Config) (*Stats, error) {
	if cfg.Hosts <= 0 || cfg.Duration <= 0 || cfg.PeakRate <= 0 {
		return nil, ErrBadConfig
	}
	if cfg.BaseRate == 0 {
		cfg.BaseRate = cfg.PeakRate / 4
	}
	if cfg.ZipfS == 0 {
		cfg.ZipfS = 1.1
	}
	if cfg.ZipfS <= 1 {
		return nil, ErrBadConfig
	}
	if cfg.DurationSampleRate == 0 {
		cfg.DurationSampleRate = 0.01
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	zipf := rand.NewZipf(rng, cfg.ZipfS, 1, uint64(cfg.Hosts-1))
	seen := newBitset(cfg.Hosts)

	seconds := int(cfg.Duration / time.Second)
	stats := &Stats{}
	var durations []time.Duration

	for s := 0; s < seconds; s++ {
		lambda := intensity(cfg, s, seconds)
		n := Poisson(rng, lambda)
		if n > stats.PeakRate {
			stats.PeakRate = n
			stats.PeakSecond = s
		}
		stats.TotalSessions += int64(n)
		for i := 0; i < n; i++ {
			seen.set(int(zipf.Uint64()))
			if rng.Float64() < cfg.DurationSampleRate {
				durations = append(durations, time.Duration(SampleDuration(rng)*float64(time.Second)))
			}
		}
	}
	stats.UniqueHosts = seen.count()
	stats.MeanRate = float64(stats.TotalSessions) / cfg.Duration.Seconds()
	stats.P50Duration, stats.P98Duration = percentiles(durations)
	return stats, nil
}

// intensity is the diurnal arrival rate at second s of the trace.
func intensity(cfg Config, s, total int) float64 {
	return Intensity(cfg.PeakRate, cfg.BaseRate, s, total)
}

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

func percentiles(d []time.Duration) (p50, p98 time.Duration) {
	if len(d) == 0 {
		return 0, 0
	}
	slices.Sort(d)
	return quantile.NearestRank(d, 0.50), quantile.NearestRank(d, 0.98)
}

// bitset tracks host uniqueness compactly.
type bitset struct {
	words []uint64
}

func newBitset(n int) *bitset { return &bitset{words: make([]uint64, (n+63)/64)} }

func (b *bitset) set(i int) { b.words[i/64] |= 1 << (i % 64) }

func (b *bitset) count() int {
	n := 0
	for _, w := range b.words {
		n += bits.OnesCount64(w)
	}
	return n
}
