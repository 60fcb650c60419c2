package trace

import (
	"errors"
	"math"
	"testing"
	"time"
)

func smallConfig() Config {
	return Config{
		Hosts:    10_000,
		Duration: time.Hour,
		PeakRate: 500,
		Seed:     7,
	}
}

func TestGenerateSmall(t *testing.T) {
	s, err := Generate(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if s.TotalSessions == 0 {
		t.Fatal("no sessions generated")
	}
	if s.UniqueHosts == 0 || s.UniqueHosts > 10_000 {
		t.Errorf("unique hosts = %d", s.UniqueHosts)
	}
	// The peak must be at least the base-rate floor and near the
	// configured peak (within Poisson noise).
	if s.PeakRate < 125 {
		t.Errorf("peak rate %d below base rate", s.PeakRate)
	}
	if float64(s.PeakRate) > 500*1.3 {
		t.Errorf("peak rate %d wildly above configured peak", s.PeakRate)
	}
	if s.MeanRate <= 0 || s.MeanRate > float64(s.PeakRate) {
		t.Errorf("mean rate %.1f vs peak %d", s.MeanRate, s.PeakRate)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if a.TotalSessions != b.TotalSessions || a.UniqueHosts != b.UniqueHosts || a.PeakRate != b.PeakRate {
		t.Errorf("same seed, different stats: %+v vs %+v", a, b)
	}
	cfg := smallConfig()
	cfg.Seed = 8
	c, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.TotalSessions == c.TotalSessions {
		t.Error("different seeds produced identical session counts")
	}
}

func TestDurationDistributionMatchesPaperClaim(t *testing.T) {
	// Section VIII-G1: "98% of the flows in the Internet last less
	// than 15 minutes" — the synthetic mixture must respect that.
	cfg := smallConfig()
	cfg.DurationSampleRate = 1.0
	s, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s.P98Duration >= 15*time.Minute {
		t.Errorf("P98 duration %v >= 15m", s.P98Duration)
	}
	if s.P50Duration <= 0 || s.P50Duration >= s.P98Duration {
		t.Errorf("P50 %v vs P98 %v", s.P50Duration, s.P98Duration)
	}
}

func TestDiurnalShape(t *testing.T) {
	cfg := smallConfig()
	cfg.BaseRate = cfg.PeakRate / 4 // Generate's default, applied manually here
	total := 86_400
	peakIntensity := Intensity(cfg.PeakRate, cfg.BaseRate, 14*3600, total)
	troughIntensity := Intensity(cfg.PeakRate, cfg.BaseRate, 2*3600, total)
	if peakIntensity <= troughIntensity {
		t.Errorf("peak %f <= trough %f", peakIntensity, troughIntensity)
	}
	if peakIntensity > cfg.PeakRate+1e-9 {
		t.Errorf("intensity %f exceeds configured peak", peakIntensity)
	}
	if troughIntensity < cfg.PeakRate/4-1e-9 {
		t.Errorf("trough %f below base rate", troughIntensity)
	}
}

func TestPoissonMoments(t *testing.T) {
	s, _ := Generate(Config{Hosts: 100, Duration: time.Minute, PeakRate: 10, Seed: 3})
	if s.TotalSessions == 0 {
		t.Error("tiny trace empty")
	}
	// Small-lambda path (Knuth) coverage: lambda below 30 throughout.
}

func TestGenerateBadConfig(t *testing.T) {
	bad := []Config{
		{},
		{Hosts: -1, Duration: time.Hour, PeakRate: 1},
		{Hosts: 1, Duration: 0, PeakRate: 1},
		{Hosts: 1, Duration: time.Hour, PeakRate: 0},
		{Hosts: 1, Duration: time.Hour, PeakRate: 1, ZipfS: 0.5},
	}
	for i, cfg := range bad {
		if _, err := Generate(cfg); !errors.Is(err, ErrBadConfig) {
			t.Errorf("config %d: err = %v", i, err)
		}
	}
}

func TestPaperScaleConfigSane(t *testing.T) {
	cfg := PaperScale()
	if cfg.Hosts < 1_200_000 || cfg.PeakRate < 3_000 {
		t.Errorf("paper-scale config off: %+v", cfg)
	}
	if cfg.Duration != 24*time.Hour {
		t.Errorf("duration %v", cfg.Duration)
	}
}

// TestPaperScaleTrace is the trace experiment of Section V-A3 (E2): the
// day-long paper-scale trace at seed 1 must reproduce the two scalars the
// MS experiment is sized against — 1,266,598 unique hosts (within 2%)
// and a peak of 3,888 new sessions/s (within 5%) — and the paper's
// "98% of flows last less than 15 minutes".
func TestPaperScaleTrace(t *testing.T) {
	if raceEnabled {
		t.Skip("the day-long trace is too slow under the race detector")
	}
	s, err := Generate(PaperScale())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("unique hosts %d, peak %d/s, p98 duration %v", s.UniqueHosts, s.PeakRate, s.P98Duration)
	within := func(name string, got, paper, tol float64) {
		if math.Abs(got-paper) > tol*paper {
			t.Errorf("%s %.0f, want within %.0f%% of the paper's %.0f", name, got, tol*100, paper)
		}
	}
	within("unique hosts", float64(s.UniqueHosts), 1_266_598, 0.02)
	within("peak session rate", float64(s.PeakRate), 3_888, 0.05)
	if s.P98Duration >= 15*time.Minute {
		t.Errorf("p98 flow duration %v, want under 15m", s.P98Duration)
	}
}

// BenchmarkTraceGeneration sizes the synthetic-trace substrate.
func BenchmarkTraceGeneration(b *testing.B) {
	cfg := Config{Hosts: 10_000, Duration: time.Hour, PeakRate: 1000}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i)
		if _, err := Generate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
