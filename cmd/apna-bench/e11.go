package main

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"apna/internal/population"
	"apna/internal/provenance"
)

// E11 is the million-host population sweep: the trace-driven population
// engine (internal/population) ramps the modeled host count across
// decades and drives the control plane — MS issuance and rate-limited
// renewal, hostdb churn and GC, AA strike escalation, accountability
// receipts and digests — at each tier. The gates turn the ROADMAP's
// "production scale, millions of users" claim into numbers: issuance
// p99 must stay under a bound at the top tier, no arrival may ever end
// without an EphID, and hostdb GC must actually reclaim churned
// identities. The -out artifact records events/sec and peak RSS per
// tier, so "10^6 hosts fit in one process" is documented, not asserted.

// e11Config sizes the population ramp.
type e11Config struct {
	// Tiers are the modeled host populations, run in order.
	Tiers []int `json:"tiers"`
	// Ticks is the virtual run length per tier.
	Ticks int `json:"ticks"`
	// Workers bounds the per-tier worker count (0: NumCPU).
	Workers int `json:"workers"`
	// Seed drives every tier's model.
	Seed int64 `json:"seed"`
	// P99BoundMs is the issuance-latency gate, enforced at the top
	// tier: the MS round trip's p99 must stay under it even with 10^6
	// hosts behind the service.
	P99BoundMs float64 `json:"p99_bound_ms"`
	// Population is the per-host workload template; Hosts, Ticks,
	// Workers and Seed are overridden per tier.
	Population population.Config `json:"population"`
}

// defaultE11 returns the CI short ramp: 10^3 → 10^6 hosts over a
// compressed 40-tick day per tier. The full ramp (apna-bench
// -e11-full) extends to 10^7.
func defaultE11() e11Config {
	pop := population.DefaultConfig()
	pop.Ticks = 40
	return e11Config{
		Tiers:      []int{1_000, 10_000, 100_000, 1_000_000},
		Ticks:      40,
		Seed:       1,
		P99BoundMs: 25,
		Population: pop,
	}
}

// fullTopTier is the tier -e11-full appends to the default ramp.
const fullTopTier = 10_000_000

// e11Tier is one tier's verdict.
type e11Tier struct {
	Hosts    int                `json:"hosts"`
	OK       bool               `json:"ok"`
	Failures []string           `json:"failures,omitempty"`
	Result   *population.Result `json:"result"`
}

// e11Result is the sweep report — the -out artifact's shape: one JSON
// object with the provenance block, the configuration, and the per-tier
// verdicts.
type e11Result struct {
	Experiment  string           `json:"experiment"`
	Provenance  provenance.Block `json:"provenance"`
	Config      e11Config        `json:"config"`
	Tiers       []e11Tier        `json:"tiers"`
	OK          bool             `json:"ok"`
	WallElapsed time.Duration    `json:"wall_elapsed_ns"`
}

// runE11 runs the ramp. Every tier runs the same per-host workload, so
// scaling effects — not workload changes — explain any latency drift
// across tiers.
func runE11(cfg e11Config) (*e11Result, error) {
	if len(cfg.Tiers) == 0 || cfg.Ticks <= 0 || cfg.P99BoundMs <= 0 {
		return nil, fmt.Errorf("e11 needs tiers, ticks and a p99 bound, got %+v", cfg)
	}
	start := time.Now() //apna:wallclock
	res := &e11Result{
		Experiment: "e11",
		Provenance: provenance.Collect(cfg.Seed, cfg),
		Config:     cfg,
		OK:         true,
	}
	top := cfg.Tiers[len(cfg.Tiers)-1]
	for _, hosts := range cfg.Tiers {
		pcfg := cfg.Population
		pcfg.Hosts = hosts
		pcfg.Ticks = cfg.Ticks
		pcfg.Workers = cfg.Workers
		pcfg.Seed = cfg.Seed
		r, err := population.Run(pcfg)
		if err != nil {
			return nil, fmt.Errorf("e11 tier %d: %w", hosts, err)
		}
		tier := e11Tier{Hosts: hosts, Result: r}
		fail := func(format string, args ...any) {
			tier.Failures = append(tier.Failures, fmt.Sprintf(format, args...))
		}
		if r.ErrNoEphID != 0 {
			fail("%d arrivals ended with no EphID under churn and renewal storms", r.ErrNoEphID)
		}
		if hosts == top && r.IssueLatency.P99us > cfg.P99BoundMs*1000 {
			fail("issuance p99 %.0fµs exceeds the %.0fµs bound at the top tier",
				r.IssueLatency.P99us, cfg.P99BoundMs*1000)
		}
		if pcfg.ChurnFrac > 0 && pcfg.GCEvery > 0 && r.GCReaped == 0 {
			fail("hostdb GC reclaimed no churned identities")
		}
		if r.Renewals == 0 {
			fail("no renewal storm reached the MS")
		}
		if r.Issued == 0 {
			fail("no issuance traffic reached the MS")
		}
		tier.OK = len(tier.Failures) == 0
		res.OK = res.OK && tier.OK
		res.Tiers = append(res.Tiers, tier)
	}
	res.WallElapsed = time.Since(start) //apna:wallclock
	return res, nil
}

// JSON renders the result as the -out artifact.
func (r *e11Result) JSON() ([]byte, error) { return json.MarshalIndent(r, "", "  ") }

// Fprint renders the human-readable ramp table.
func (r *e11Result) Fprint(w io.Writer) {
	fmt.Fprintf(w, "E11: population ramp (%d tiers, %d ticks/tier, p99 bound %.0fms)\n",
		len(r.Tiers), r.Config.Ticks, r.Config.P99BoundMs)
	fmt.Fprintf(w, "  %-9s %-8s %-10s %-9s %-9s %-8s %-10s %-10s %-9s %s\n",
		"hosts", "verdict", "events/s", "issued", "renewals", "denied", "p99(µs)", "gc-reaped", "noephid", "rss(MiB)")
	for i := range r.Tiers {
		t := &r.Tiers[i]
		verdict := "PASS"
		if !t.OK {
			verdict = "FAIL"
		}
		pr := t.Result
		fmt.Fprintf(w, "  %-9d %-8s %-10.0f %-9d %-9d %-8d %-10.0f %-10d %-9d %.1f\n",
			t.Hosts, verdict, pr.EventsPerSec, pr.Issued, pr.Renewals,
			pr.RenewDenied, pr.IssueLatency.P99us, pr.GCReaped, pr.ErrNoEphID,
			float64(pr.PeakRSSBytes)/(1<<20))
	}
	status := "every population gate held at every tier"
	if !r.OK {
		status = "POPULATION GATE FAILURES"
		for _, t := range r.Tiers {
			for _, f := range t.Failures {
				fmt.Fprintf(w, "  %d hosts: %s\n", t.Hosts, f)
			}
		}
	}
	fmt.Fprintf(w, "  %s (%v wall, commit %s)\n", status,
		r.WallElapsed.Round(time.Millisecond), r.Provenance.Commit)
}
