package population

import (
	"math"
	"math/rand"
	"testing"
)

// smallConfig is a population run small enough to execute twice in a
// unit test but busy enough to cross every path: renewal storms
// (lifetime 6s inside 30 ticks), churn, complaints with replays, GC and
// digest flushes.
func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.Hosts = 600
	cfg.Ticks = 30
	cfg.Workers = 4
	cfg.EphIDLifetime = 6
	cfg.RenewLead = 1
	cfg.ChurnFrac = 0.01
	cfg.PeakSessionsPerHost = 0.05
	cfg.GCEvery = 5
	cfg.DigestEvery = 5
	cfg.RecordTrace = true
	return cfg
}

// logical strips a Result to its deterministic fields (wall-clock
// measurements excluded).
type logical struct {
	arrivals, poolHits, issued, overflow, renewals, denied, noEphID uint64
	joins, leaves, bytes, complaints, replays, revoked, dups        uint64
	gcReaped, digestLast, hostdb                                    int
	digestBytes, events, traceEvents                                uint64
	trace                                                           string
}

func logicalOf(r *Result) logical {
	return logical{
		arrivals: r.Arrivals, poolHits: r.PoolHits, issued: r.Issued,
		overflow: r.OverflowIssued, renewals: r.Renewals, denied: r.RenewDenied,
		noEphID: r.ErrNoEphID, joins: r.Joins, leaves: r.Leaves,
		bytes: r.ModeledBytes, complaints: r.Complaints, replays: r.Replays,
		revoked: r.OffendersRevoked, dups: r.AcctDuplicates,
		gcReaped: r.GCReaped, digestLast: r.DigestEntriesLast, hostdb: r.HostdbHosts,
		digestBytes: r.DigestBytes, events: r.Events, traceEvents: r.TraceEvents,
		trace: r.TraceHash,
	}
}

// TestDeterministicTrace is the satellite's core claim: the same seed
// yields the identical logical event trace and counters, run to run,
// despite the workers running on real concurrent cores.
func TestDeterministicTrace(t *testing.T) {
	cfg := smallConfig()
	a, err := Run(cfg)
	if err != nil {
		t.Fatalf("run 1: %v", err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatalf("run 2: %v", err)
	}
	if a.TraceHash == "" || a.TraceEvents == 0 {
		t.Fatalf("no trace recorded: hash %q, events %d", a.TraceHash, a.TraceEvents)
	}
	if la, lb := logicalOf(a), logicalOf(b); la != lb {
		t.Fatalf("same seed diverged:\n run1 %+v\n run2 %+v", la, lb)
	}

	cfg.Seed = 99
	c, err := Run(cfg)
	if err != nil {
		t.Fatalf("run 3: %v", err)
	}
	if c.TraceHash == a.TraceHash {
		t.Fatalf("different seeds produced the same trace hash %s", a.TraceHash)
	}
}

// TestRunExercisesControlPlane checks the workload actually reaches
// every engine the subsystem claims to drive.
func TestRunExercisesControlPlane(t *testing.T) {
	r, err := Run(smallConfig())
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if r.ErrNoEphID != 0 {
		t.Errorf("ErrNoEphID = %d, want 0", r.ErrNoEphID)
	}
	if r.Issued == 0 || r.Arrivals == 0 {
		t.Errorf("no issuance traffic: arrivals %d issued %d", r.Arrivals, r.Issued)
	}
	if r.Renewals == 0 {
		t.Errorf("no renewals — storm path untested")
	}
	if r.PoolHits == 0 {
		t.Errorf("no pool hits — pool path untested")
	}
	if r.Leaves == 0 || r.Joins != r.Leaves {
		t.Errorf("churn mismatch: joins %d leaves %d", r.Joins, r.Leaves)
	}
	if r.GCReaped == 0 {
		t.Errorf("GC reaped nothing despite churn")
	}
	if r.Complaints == 0 || r.ReceiptStatus["revoked"] == 0 {
		t.Errorf("complaint path idle: %d complaints, statuses %v", r.Complaints, r.ReceiptStatus)
	}
	if r.Replays > 0 && r.AcctDuplicates == 0 {
		t.Errorf("%d replays but the receipt cache saw no duplicates", r.Replays)
	}
	if r.OffendersRevoked == 0 {
		t.Errorf("strike escalation never revoked an offender")
	}
	if r.DigestFlushes == 0 || r.DigestBytes == 0 {
		t.Errorf("digest path idle: %d flushes, %d bytes", r.DigestFlushes, r.DigestBytes)
	}
	if r.HostdbHosts == 0 || r.HostdbShards < 64 {
		t.Errorf("hostdb state: %d hosts, %d shards", r.HostdbHosts, r.HostdbShards)
	}
	if r.IssueLatency.Count == 0 || r.IssueLatency.P99us <= 0 {
		t.Errorf("issue latency reservoir empty: %+v", r.IssueLatency)
	}
	if r.PeakRSSBytes == 0 {
		t.Errorf("peak RSS not measured")
	}
}

// TestParetoDurationMoments checks the whole-second duration sampler
// against the analytic mean of internal/trace's mixture within
// tolerance: 95% exponential(45s) plus 5% Pareto(1.3, 60s) truncated at
// 6h.
func TestParetoDurationMoments(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n = 200_000
	var sum float64
	deepTail := 0
	const tailCut = 1000.0 // far beyond the exponential's reach
	for i := 0; i < n; i++ {
		d := sampleDuration(rng)
		sum += float64(d)
		if float64(d) > tailCut {
			deepTail++
		}
	}
	mean := sum / n

	// Truncated-Pareto mean: E[min(X, cap)] for X ~ Pareto(a, xm) is
	// xm*a/(a-1) - (cap/(a-1))*(xm/cap)^a.
	const a, xm, cap = 1.3, 60.0, 6 * 3600.0
	tortoiseMean := paretoMean(a, xm) - cap/(a-1)*math.Pow(xm/cap, a)
	want := 0.95*45 + 0.05*tortoiseMean
	if rel := math.Abs(mean-want) / want; rel > 0.10 {
		t.Errorf("duration mean %.1fs, want %.1fs ±10%% (rel err %.3f)", mean, want, rel)
	}
	// Deep-tail mass comes only from the Pareto component:
	// P(D > c) = 0.05 * (xm/c)^alpha.
	frac := float64(deepTail) / n
	wantTail := 0.05 * math.Pow(xm/tailCut, a)
	if frac < wantTail/2 || frac > wantTail*2 {
		t.Errorf("deep-tail fraction %.5f, want ~%.5f (×/÷2)", frac, wantTail)
	}
}

// paretoMean is the analytic mean of a Pareto(alpha, xm) distribution
// (alpha > 1).
func paretoMean(alpha, xm float64) float64 { return alpha * xm / (alpha - 1) }

// TestParetoSizeMoments checks the flow-size sampler's mean against the
// truncated Pareto closed form.
func TestParetoSizeMoments(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const n = 500_000
	var sum float64
	for i := 0; i < n; i++ {
		sum += float64(sampleSize(rng))
	}
	mean := sum / n
	a, xm, cap := sizeAlpha, float64(sizeXmB), float64(sizeCapB)
	want := paretoMean(a, xm) - cap/(a-1)*math.Pow(xm/cap, a)
	if rel := math.Abs(mean-want) / want; rel > 0.10 {
		t.Errorf("size mean %.0fB, want %.0fB ±10%% (rel err %.3f)", mean, want, rel)
	}
}

// TestFlashCrowd checks the onboarding-surge knob: a flash window
// multiplies the arrival intensity only inside [FlashTick,
// FlashTick+FlashTicks), the surge is counted separately, and the run
// stays bit-deterministic under a fixed seed.
func TestFlashCrowd(t *testing.T) {
	base := smallConfig()
	calm, err := Run(base)
	if err != nil {
		t.Fatalf("calm run: %v", err)
	}

	cfg := base
	cfg.FlashMult = 8
	cfg.FlashTick = 10
	cfg.FlashTicks = 5
	hot, err := Run(cfg)
	if err != nil {
		t.Fatalf("flash run: %v", err)
	}
	if hot.FlashArrivals == 0 {
		t.Fatal("flash window produced no arrivals")
	}
	if hot.Arrivals <= calm.Arrivals {
		t.Fatalf("flash crowd did not raise arrivals: calm %d, flash %d",
			calm.Arrivals, hot.Arrivals)
	}
	if calm.FlashArrivals != 0 {
		t.Fatalf("calm run counted %d flash arrivals", calm.FlashArrivals)
	}
	// The surge must dominate its window: 5 ticks at 8× the diurnal law
	// should exceed the calm run's busiest-possible 5 ticks.
	if hot.FlashArrivals <= calm.Arrivals/uint64(base.Ticks)*5 {
		t.Errorf("surge too small to be a flash crowd: %d in-window arrivals vs %d calm total",
			hot.FlashArrivals, calm.Arrivals)
	}

	again, err := Run(cfg)
	if err != nil {
		t.Fatalf("flash rerun: %v", err)
	}
	if la, lb := logicalOf(hot), logicalOf(again); la != lb {
		t.Fatalf("flash run nondeterministic:\n run1 %+v\n run2 %+v", la, lb)
	}
	if again.FlashArrivals != hot.FlashArrivals {
		t.Fatalf("flash arrivals diverged: %d vs %d", hot.FlashArrivals, again.FlashArrivals)
	}
}

// TestConfigValidation covers normalize's rejection surface.
func TestConfigValidation(t *testing.T) {
	base := DefaultConfig()
	bad := []func(*Config){
		func(c *Config) { c.Hosts = 0 },
		func(c *Config) { c.Ticks = 0 },
		func(c *Config) { c.PeakSessionsPerHost = 0 },
		func(c *Config) { c.ZipfS = 0.5 },
		func(c *Config) { c.EphIDLifetime = 1 },
		func(c *Config) { c.RenewLead = 30; c.EphIDLifetime = 20 },
		func(c *Config) { c.ChurnFrac = 1.5 },
		func(c *Config) { c.FlashMult = -1 },
		func(c *Config) { c.FlashMult = 3; c.FlashTicks = 0 },
		func(c *Config) { c.FlashMult = 3; c.FlashTicks = 5; c.FlashTick = -1 },
	}
	for i, mutate := range bad {
		cfg := base
		mutate(&cfg)
		if _, err := cfg.normalize(); err == nil {
			t.Errorf("case %d: invalid config accepted: %+v", i, cfg)
		}
	}
	if _, err := base.normalize(); err != nil {
		t.Errorf("default config rejected: %v", err)
	}
}
