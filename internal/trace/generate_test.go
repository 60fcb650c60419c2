package trace

import (
	"errors"
	"math/bits"
	"math/rand"
	"slices"
	"time"

	"apna/internal/quantile"
)

// This file is E2's trace synthesis: sessions arrive per second under
// the diurnal intensity, are attributed to hosts by a Zipf popularity
// law and draw durations from the mixture. Generation is streaming:
// the full trace is never materialized, only a host bitmap and
// per-second counters, so a day-scale trace analyzes in seconds.

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
		lambda := Intensity(cfg.PeakRate, cfg.BaseRate, s, seconds)
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
