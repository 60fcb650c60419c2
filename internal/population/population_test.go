package population

import (
	"cmp"
	"errors"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"apna/internal/cert"
	"apna/internal/ephid"
)

// smallConfig is the default workload small enough to execute twice in
// a unit test but busy enough to cross every path: renewal storms
// (lifetime 20s inside 30 ticks), churn, complaints with replays and
// escalations, GC reaps and digest flushes.
func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.Hosts, cfg.Ticks, cfg.Workers = 2000, 30, 4
	cfg.RecordTrace = true
	return cfg
}

// logical strips a Result to its deterministic fields (wall-clock
// measurements excluded).
type logical struct {
	arrivals, flash, poolHits, issued, overflow, renewals, denied, noEphID uint64
	joins, leaves, bytes, complaints, replays, revoked, dups               uint64
	digestFlushes, digestBytes, events, traceEvents                        uint64
	complaintLat                                                           uint64
	gcReaped, digestLast, hostdb                                           int
	trace, receipts                                                        string
}

func logicalOf(r *Result) logical {
	return logical{
		arrivals: r.Arrivals, flash: r.FlashArrivals, poolHits: r.PoolHits, issued: r.Issued,
		overflow: r.OverflowIssued, renewals: r.Renewals, denied: r.RenewDenied,
		noEphID: r.ErrNoEphID, joins: r.Joins, leaves: r.Leaves,
		bytes: r.ModeledBytes, complaints: r.Complaints, replays: r.Replays,
		revoked: r.OffendersRevoked, dups: r.AcctDuplicates,
		digestFlushes: r.DigestFlushes, digestBytes: r.DigestBytes,
		events: r.Events, traceEvents: r.TraceEvents,
		gcReaped: r.GCReaped, digestLast: r.DigestEntriesLast,
		hostdb: r.HostdbHosts,
		trace:  r.TraceHash, complaintLat: r.ComplaintLatency.Count,
		receipts: fmt.Sprint(r.ReceiptStatus), // fmt sorts map keys
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

// smallTraceHash is smallConfig()'s trace hash. It is the same on amd64,
// purego and 386, and at any GOMAXPROCS.
const smallTraceHash = "3c8a490e0b2e74785f4d9272471b25287fc1ca59cced925d617433740508f9ab"

// TestTraceHashGolden pins the trace itself, not only its repeatability:
// a change to how the AS under test is built or wired that alters what
// the engines do shows up here even when every run repeats itself.
func TestTraceHashGolden(t *testing.T) {
	for _, procs := range []int{1, 2, 4} {
		prev := runtime.GOMAXPROCS(procs)
		r, err := Run(smallConfig())
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatalf("GOMAXPROCS %d: %v", procs, err)
		}
		if r.TraceHash != smallTraceHash {
			t.Errorf("GOMAXPROCS %d: trace hash %s, want %s", procs, r.TraceHash, smallTraceHash)
		}
	}
}

// TestSpareCoreSealingMatchesInline: with no spare core every closed
// batch is signed and sealed on its worker; with spare cores most
// batches go whole to spare.Go, which signs them and seals every
// reply. The run must not notice. GOMAXPROCS 2 leaves one spare core
// at one worker and none at two (spare.Workers). A renewal budget of
// one puts denials and their fallbacks into the spare cores' batches
// too, and churn and complaints stay on.
func TestSpareCoreSealingMatchesInline(t *testing.T) {
	for _, workers := range []int{1, 2} {
		cfg := smallConfig()
		cfg.Workers = workers
		cfg.RenewBurst = 1
		procs := []int{1, 2, 4}
		runs := make([]*Result, len(procs))
		for i, p := range procs {
			prev := runtime.GOMAXPROCS(p)
			r, err := Run(cfg)
			runtime.GOMAXPROCS(prev)
			if err != nil {
				t.Fatalf("workers %d, GOMAXPROCS %d: %v", workers, p, err)
			}
			if r.ErrNoEphID != 0 {
				t.Errorf("workers %d, GOMAXPROCS %d: ErrNoEphID = %d", workers, p, r.ErrNoEphID)
			}
			runs[i] = r
		}
		if runs[0].RenewDenied == 0 || runs[0].Complaints == 0 || runs[0].Leaves == 0 {
			t.Errorf("workers %d: a path went unexercised: %d denials, %d complaints, %d leaves",
				workers, runs[0].RenewDenied, runs[0].Complaints, runs[0].Leaves)
		}
		t.Logf("workers %d: trace %.12s, %d denials", workers, runs[0].TraceHash, runs[0].RenewDenied)
		for i, r := range runs[1:] {
			if a, b := logicalOf(runs[0]), logicalOf(r); a != b {
				t.Errorf("workers %d, GOMAXPROCS %d: spare cores changed the run:\n inline %+v\n spare  %+v", workers, procs[i+1], a, b)
			}
			if a, b := runs[0].ReceiptStatus, r.ReceiptStatus; !maps.Equal(a, b) {
				t.Errorf("workers %d, GOMAXPROCS %d: receipt statuses %v inline, %v with spare cores", workers, procs[i+1], a, b)
			}
		}
	}
}

// TestOverlapComplaintsMidTick: the complaint cycle runs beside the
// workers' tick. An offender is revoked at its strikeLimit-th shutoff
// and replaced at the next complaint, while the workers admit, and
// replays hit the receipt cache; the run must read the same at any
// GOMAXPROCS.
func TestOverlapComplaintsMidTick(t *testing.T) {
	cfg := smallConfig()
	cfg.Ticks = 60
	// An offender takes strikeLimit complaints; the next one finds it
	// revoked and counts an escalation.
	escalations := uint64((cfg.Ticks/complaintEvery - 1) / strikeLimit)
	var first *Result
	for _, procs := range []int{1, 2, 4} {
		prev := runtime.GOMAXPROCS(procs)
		r, err := Run(cfg)
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatalf("GOMAXPROCS %d: %v", procs, err)
		}
		if r.ErrNoEphID != 0 || r.ReceiptStatus["error"] != 0 {
			t.Errorf("GOMAXPROCS %d: ErrNoEphID %d, receipt statuses %v", procs, r.ErrNoEphID, r.ReceiptStatus)
		}
		if first == nil {
			first = r
			if r.OffendersRevoked < escalations || r.Replays == 0 {
				t.Errorf("escalations or replays missing: %d offenders revoked, %d replays in %d ticks",
					r.OffendersRevoked, r.Replays, cfg.Ticks)
			}
			continue
		}
		if a, b := logicalOf(first), logicalOf(r); a != b {
			t.Errorf("GOMAXPROCS %d diverged from GOMAXPROCS 1:\n %+v\n %+v", procs, b, a)
		}
	}
}

// TestOverlapLateMismatchCounted: a batch's seals may finish during the
// next tick, and the run's last tick is waited for before Run returns.
// A reply mismatch planted in one tick must count as ErrNoEphID, traced
// under that tick, whether the tick is mid-run or the last.
func TestOverlapLateMismatchCounted(t *testing.T) {
	cfg := smallConfig()
	cfg.Workers = 1
	for _, tick := range []int{cfg.Ticks / 2, cfg.Ticks - 1} {
		for _, procs := range []int{1, 2} {
			planted := false
			plant := func(t int, j *sealJob) {
				if t == tick && !planted {
					planted = true
					j.ctrl[0] ^= 1 // the host decrypts under the wrong control EphID
				}
			}
			prev := runtime.GOMAXPROCS(procs)
			r, workers, err := run(cfg, plant)
			runtime.GOMAXPROCS(prev)
			if err != nil {
				t.Fatalf("tick %d, GOMAXPROCS %d: %v", tick, procs, err)
			}
			if !planted {
				t.Fatalf("tick %d, GOMAXPROCS %d: no request admitted to plant in", tick, procs)
			}
			if r.ErrNoEphID != 1 {
				t.Errorf("tick %d, GOMAXPROCS %d: ErrNoEphID = %d, want 1", tick, procs, r.ErrNoEphID)
			}
			var at []uint32
			for _, ev := range workers[0].trace {
				if ev.kind == evNoEphID {
					at = append(at, ev.tick)
				}
			}
			if len(at) != 1 || at[0] != uint32(tick) {
				t.Errorf("tick %d, GOMAXPROCS %d: evNoEphID at ticks %v, want [%d]", tick, procs, at, tick)
			}
			if !slices.IsSortedFunc(workers[0].trace, func(a, b traceEvent) int { return cmp.Compare(a.tick, b.tick) }) {
				t.Errorf("tick %d, GOMAXPROCS %d: trace hashed out of tick order", tick, procs)
			}
		}
	}
}

// TestComplainerEarlyFailure: a complaint whose offender issuance fails
// for any reason but a revocation still counts, under the "error"
// receipt status, and keeps its offender; an offender the MS refuses
// as revoked, or as unknown once GC has reaped it, is replaced and
// counted as revoked.
func TestComplainerEarlyFailure(t *testing.T) {
	cfg, err := smallConfig().normalize()
	if err != nil {
		t.Fatal(err)
	}
	w, err := newWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cp := newComplainer(w, &cfg)
	now := startTime
	cp.cycle(now)
	if cp.complaints != 1 || cp.status["error"] != 0 || cp.off == nil {
		t.Fatalf("first complaint: %d complaints, statuses %v", cp.complaints, cp.status)
	}

	off := cp.off
	cp.issue = func(*hostState, uint32, *ephid.EphID) (*cert.Cert, error) {
		return nil, errors.New("planted issuance failure")
	}
	cp.cycle(now)
	if cp.complaints != 2 || cp.status["error"] != 1 || cp.revoked != 0 || cp.off != off || cp.lat.count != 1 {
		t.Errorf("failed issuance: %d complaints, statuses %v, %d revoked, offender replaced %v, %d answered",
			cp.complaints, cp.status, cp.revoked, cp.off != off, cp.lat.count)
	}
	cp.issue = w.issue

	for i, reap := range []bool{false, true} {
		off := cp.off
		now++
		w.DB.RevokeAt(off.hid, now)
		if reap {
			now += int64(ephIDLifetime) + 1
			if w.DB.GC(now, int64(ephIDLifetime)) == 0 {
				t.Fatal("GC reaped nothing")
			}
		}
		cp.cycle(now)
		if cp.revoked != uint64(i+1) || cp.off == off || cp.status["error"] != 1 {
			t.Errorf("revoked offender (reaped %v): %d revoked, offender replaced %v, statuses %v",
				reap, cp.revoked, cp.off != off, cp.status)
		}
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
	if r.EventsPerSec <= 0 {
		t.Errorf("events/s not measured: %.0f", r.EventsPerSec)
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
		func(c *Config) { c.Hosts, c.Workers = hidSpan, 1 },
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

// rampTiers are E11's modeled host populations, run in order; the last
// is the top tier, the one the issuance p99 bound holds at. A 10^7 run
// is one more entry.
var rampTiers = []int{1_000, 10_000, 100_000, 1_000_000}

// rampP99BoundUs is E11's issuance-latency gate: at the top tier the MS
// round trip's p99 must stay under 25 ms even with 10^6 hosts behind it.
const rampP99BoundUs = 25_000

// rampFailures lists the E11 gates r breaks; top marks the top tier.
func rampFailures(r *Result, top bool) []string {
	var fails []string
	fail := func(format string, args ...any) {
		fails = append(fails, fmt.Sprintf(format, args...))
	}
	if r.ErrNoEphID != 0 {
		fail("%d arrivals ended with no EphID under churn and renewal storms", r.ErrNoEphID)
	}
	if top && r.IssueLatency.P99us > rampP99BoundUs {
		fail("issuance p99 %.0fµs exceeds the %dµs bound at the top tier",
			r.IssueLatency.P99us, rampP99BoundUs)
	}
	if r.GCReaped == 0 {
		fail("hostdb GC reclaimed no churned identities")
	}
	if r.Renewals == 0 {
		fail("no renewal storm reached the MS")
	}
	if r.Issued == 0 {
		fail("no issuance traffic reached the MS")
	}
	return fails
}

// TestRampFailures shows that every E11 gate trips on a result that
// breaks it, and that the p99 bound holds only at the top tier.
func TestRampFailures(t *testing.T) {
	clean := Result{Issued: 1, Renewals: 1, GCReaped: 1, IssueLatency: OpStats{P99us: 100}}
	cases := []struct {
		name   string
		top    bool
		mutate func(*Result)
		want   string // "" when no gate may trip
	}{
		{"clean top tier", true, func(*Result) {}, ""},
		{"arrival without an EphID", false, func(r *Result) { r.ErrNoEphID = 1 }, "no EphID"},
		{"GC idle under churn", false, func(r *Result) { r.GCReaped = 0 }, "GC reclaimed"},
		{"no renewals", false, func(r *Result) { r.Renewals = 0 }, "no renewal"},
		{"no issuance", false, func(r *Result) { r.Issued = 0 }, "no issuance"},
		{"slow top tier", true, func(r *Result) { r.IssueLatency.P99us = 25_001 }, "25001µs"},
		{"slow lower tier", false, func(r *Result) { r.IssueLatency.P99us = 25_001 }, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := clean
			tc.mutate(&r)
			fails := rampFailures(&r, tc.top)
			if tc.want == "" {
				if len(fails) != 0 {
					t.Errorf("reported %q", fails)
				}
			} else if len(fails) != 1 || !strings.Contains(fails[0], tc.want) {
				t.Errorf("reported %q, want one finding naming %q", fails, tc.want)
			}
		})
	}
}

// TestRampSmoke runs a two-tier ramp small enough for a unit test
// through the same gates as BenchmarkPopulationRamp: real runs must
// pass them, so a gate that trips on a healthy workload shows here and
// not first in CI's benchmark step.
func TestRampSmoke(t *testing.T) {
	tiers := []int{1000, 2000}
	for i, hosts := range tiers {
		cfg := smallConfig()
		cfg.Hosts = hosts
		r, err := Run(cfg)
		if err != nil {
			t.Fatalf("%d hosts: %v", hosts, err)
		}
		if fails := rampFailures(r, i == len(tiers)-1); len(fails) > 0 {
			t.Errorf("%d hosts failed the ramp gates: %q", hosts, fails)
		}
		if r.PeakRSSBytes == 0 || r.EventsPerSec <= 0 {
			t.Errorf("%d hosts missing scale metrics: rss %d, events/s %.0f",
				hosts, r.PeakRSSBytes, r.EventsPerSec)
		}
	}
}

// BenchmarkPopulationRamp is E11, the population ramp: every tier runs
// the default per-host workload for 40 virtual ticks at seed 1, so
// scaling, not a workload change, explains any drift across tiers. Each
// run must pass rampFailures' gates; a breach fails the benchmark.
// peak-rss-MiB is the process's high-water mark, so only the top tier
// reports it.
func BenchmarkPopulationRamp(b *testing.B) {
	workers := []int{1}
	if n := runtime.NumCPU(); n > 1 {
		workers = append(workers, n)
	}
	for i, hosts := range rampTiers {
		top := i == len(rampTiers)-1
		b.Run(fmt.Sprintf("hosts=%d", hosts), func(b *testing.B) {
			for _, w := range workers {
				b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
					cfg := DefaultConfig()
					cfg.Hosts, cfg.Ticks, cfg.Workers, cfg.Seed = hosts, 40, w, 1
					var r *Result
					var events uint64
					var elapsedMs, p99 float64
					for n := 0; n < b.N; n++ {
						var err error
						if r, err = Run(cfg); err != nil {
							b.Fatalf("%d hosts, %d workers: %v", hosts, w, err)
						}
						if fails := rampFailures(r, top); len(fails) > 0 {
							b.Fatalf("%d hosts, %d workers: %s", hosts, w, strings.Join(fails, "; "))
						}
						events += r.Events
						elapsedMs += r.ElapsedMs
						p99 = max(p99, r.IssueLatency.P99us)
					}
					b.ReportMetric(float64(events)/(elapsedMs/1e3), "events/s")
					b.ReportMetric(p99, "issue-p99-us")
					if top {
						b.ReportMetric(float64(r.PeakRSSBytes)/(1<<20), "peak-rss-MiB")
					}
				})
			}
		})
	}
}
