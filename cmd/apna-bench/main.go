// Command apna-bench regenerates the paper's evaluation artifacts
// (Section V and Section VII-C): the MS performance table, the trace
// statistics it is sized against, both Figure 8 forwarding series, the
// connection-establishment latency analysis, the multi-AS
// parallel-engine saturation run (E8), the lifecycle endurance sweep
// (E9), the inter-domain accountability sweep (E10), the
// million-host population ramp (E11), and the thousand-AS digest
// dissemination sweep (E12); each table prints the paper's numbers
// next to the measured ones. E6 and E7 are scenario specs: run them
// with apna-scenario -file scenarios/e6.json (or e7.json -seeds 5).
//
// The -seed flag drives every seeded experiment (E2 trace, E9/E10
// sweep bases, E8 traffic mix, E11 population model, E12 graph), so CI
// and local runs can sweep seeds; E9 and E10 additionally take -seeds
// for the sweep width, and E8-E12 exit 2 if any of their gates is
// violated. Usage errors, an -exp that names no experiment among them,
// exit 1.
//
// The trend-gated suites (E8, E9, E10, E11, E12) additionally take
// -reruns N and -out PREFIX to emit PREFIX_run1.json..PREFIX_runN.json
// — the rerun sets cmd/apna-gate compares against the
// provenance-pinned baseline. E9, E10 and E12 are deterministic, so
// -reruns 1 suffices for them.
//
// Usage:
//
//	apna-bench -exp all            # everything, paper-scale trace
//	apna-bench -exp e1 -requests 500000 -workers 4
//	apna-bench -exp e3 -pkts 200000
//	apna-bench -exp e2 -small     # quick synthetic trace
//	apna-bench -exp e8 -ases 4 -fwd-workers 8 -json > BENCH_e8.json
//	apna-bench -exp e9 -seed 1 -seeds 3 -windows 4 -json > BENCH_e9.json
//	apna-bench -exp e10 -seed 1 -seeds 3 -json > BENCH_e10.json
//	apna-bench -exp e11 -json > BENCH_e11.json     # 10^3→10^6 ramp
//	apna-bench -exp e11 -e11-full -json            # extend to 10^7
//	apna-bench -exp e12 -json > BENCH_e12.json     # 1000-AS dissemination
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"strings"
	"time"

	"apna/internal/experiments"
	"apna/internal/trace"
)

// experimentNames is every value -exp takes.
var experimentNames = []string{"all", "e1", "e2", "e3", "e4", "e5", "e8", "e9", "e10", "e11", "e12"}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func fatal(stderr io.Writer, err error) int {
	fmt.Fprintln(stderr, "apna-bench:", err)
	return 1
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("apna-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp         = fs.String("exp", "all", "experiment: e1, e2, e3 (includes e4), e5, e8, e9, e10, e11, e12, all")
		requests    = fs.Int("requests", 500_000, "E1: number of EphID requests")
		workers     = fs.Int("workers", 4, "E1: parallel issuance workers (paper: 4)")
		fwdHosts    = fs.Int("hosts", 256, "E3/E8: simulated source hosts (per AS for E8)")
		pkts        = fs.Int("pkts", 500_000, "E3/E8: packets per worker")
		fwdWork     = fs.Int("fwd-workers", runtime.NumCPU(), "E3/E8: forwarding workers, E11: population workers (cores)")
		small       = fs.Bool("small", false, "E2: use a small trace instead of paper scale")
		oneWay      = fs.Duration("oneway", 25*time.Millisecond, "E5: one-way inter-AS latency")
		seed        = fs.Int64("seed", 1, "base seed for every seeded experiment (E2, E8-E12)")
		seeds       = fs.Int("seeds", 5, "E9/E10: seeds in the sweep (seed, seed+1, ...)")
		adversaries = fs.Int("adversaries", 2, "E10: number of attackers")
		jsonOut     = fs.Bool("json", false, "E8-E12: emit machine-readable JSON")
		e8ASes      = fs.Int("ases", 4, "E8: autonomous systems in the ring")
		e8Batch     = fs.Int("batch", 64, "E8: frames per pipeline batch")
		e8Bad       = fs.Float64("bad", 0.05, "E8: fraction of adversarial frames")
		e9Windows   = fs.Int("windows", 4, "E9: EphID validity windows to cross")
		e9Life      = fs.Uint("ephid-life", 120, "E9: client EphID lifetime in seconds")
		e10ASes     = fs.Int("acct-ases", 8, "E10: autonomous systems in the full mesh")
		e10Digest   = fs.Duration("digest", 10*time.Second, "E10: revocation-digest dissemination interval")
		e11Ticks    = fs.Int("pop-ticks", experiments.DefaultE11().Ticks, "E11: virtual ticks per population tier")
		e11Bound    = fs.Float64("p99-bound", experiments.DefaultE11().P99BoundMs, "E11: issuance p99 gate in milliseconds")
		e11Full     = fs.Bool("e11-full", false, "E11: extend the ramp to 10^7 modeled hosts")
		e12Stubs    = fs.Int("dissem-stubs", experiments.DefaultE12().Stubs, "E12: stub ASes in the relay graph (total = core + mid + stubs)")
		e12Ticks    = fs.Int("dissem-ticks", experiments.DefaultE12().Ticks, "E12: measured digest intervals in the relay phase")
		reruns      = fs.Int("reruns", 1, "E8/E9/E10/E11/E12: repeat the run N times for the trend gate (requires -out for N > 1)")
		outPrefix   = fs.String("out", "", "E8/E9/E10/E11/E12: write each rerun's artifact to PREFIX_runN.json instead of stdout (implies -json)")
	)
	if err := fs.Parse(args); err != nil {
		return 1
	}
	if !slices.Contains(experimentNames, *exp) {
		return fatal(stderr, fmt.Errorf("unknown experiment %q (valid: %s; E6 and E7 are apna-scenario specs)",
			*exp, strings.Join(experimentNames, ", ")))
	}
	if *reruns < 1 {
		return fatal(stderr, fmt.Errorf("-reruns must be >= 1"))
	}
	if *reruns > 1 && *outPrefix == "" {
		return fatal(stderr, fmt.Errorf("-reruns > 1 needs -out so the artifacts land in separate files"))
	}

	// writeArtifact routes one rerun's artifact: to PREFIX_runN.json
	// under -out (the trend gate compares the files), else stdout.
	writeArtifact := func(n int, render func(w io.Writer) error) error {
		if *outPrefix == "" {
			return render(stdout)
		}
		name := fmt.Sprintf("%s_run%d.json", *outPrefix, n)
		f, err := os.Create(name)
		if err != nil {
			return err
		}
		if err := render(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "wrote %s\n", name)
		return nil
	}

	selected := func(name string) bool { return *exp == "all" || *exp == name }
	peak := 0

	if selected("e2") || selected("e1") {
		cfg := trace.PaperScale()
		if *small {
			cfg = trace.Config{Hosts: 50_000, Duration: time.Hour, PeakRate: 3_800, Seed: *seed}
		}
		cfg.Seed = *seed
		fmt.Fprintf(stderr, "generating %v synthetic trace (%d hosts)...\n", cfg.Duration, cfg.Hosts)
		stats, err := experiments.RunE2(cfg)
		if err != nil {
			return fatal(stderr, err)
		}
		peak = stats.PeakRate
		if selected("e2") {
			experiments.FprintE2(stdout, stats)
			fmt.Fprintln(stdout)
		}
	}

	if selected("e1") {
		fmt.Fprintf(stderr, "issuing %d EphIDs on %d workers...\n", *requests, *workers)
		res, err := experiments.RunE1(*requests, *workers, peak)
		if err != nil {
			return fatal(stderr, err)
		}
		res.Fprint(stdout)
		fmt.Fprintln(stdout)
	}

	if selected("e3") || selected("e4") {
		fmt.Fprintf(stderr, "forwarding sweep: %d hosts, %d workers, %d pkts/worker...\n",
			*fwdHosts, *fwdWork, *pkts)
		results, err := experiments.RunE3(*fwdHosts, *fwdWork, *pkts)
		if err != nil {
			return fatal(stderr, err)
		}
		experiments.FprintE3(stdout, results)
		fmt.Fprintln(stdout)
	}

	if selected("e5") {
		res, err := experiments.RunE5(*oneWay)
		if err != nil {
			return fatal(stderr, err)
		}
		experiments.FprintE5(stdout, res)
		fmt.Fprintln(stdout)
	}

	if selected("e8") {
		cfg := experiments.DefaultE8()
		cfg.ASes = *e8ASes
		cfg.HostsPerAS = *fwdHosts
		cfg.Workers = *fwdWork
		cfg.BatchSize = *e8Batch
		cfg.BadFrac = *e8Bad
		cfg.PacketsPerWorker = *pkts
		cfg.Seed = *seed
		ok := true
		for i := 1; i <= *reruns; i++ {
			fmt.Fprintf(stderr, "engine saturation (run %d/%d): %d ASes x %d hosts, %d workers, %d pkts/worker...\n",
				i, *reruns, cfg.ASes, cfg.HostsPerAS, cfg.Workers, cfg.PacketsPerWorker)
			res, err := experiments.RunE8(cfg)
			if err != nil {
				return fatal(stderr, err)
			}
			if err := writeArtifact(i, func(w io.Writer) error {
				return res.Fprint(w, *jsonOut || *outPrefix != "")
			}); err != nil {
				return fatal(stderr, err)
			}
			ok = ok && res.OK
			if !res.OK {
				for _, f := range res.Failures {
					fmt.Fprintf(stderr, "apna-bench: E8 gate: %s\n", f)
				}
			}
		}
		fmt.Fprintln(stdout)
		if !ok {
			fmt.Fprintln(stderr, "apna-bench: E8 saturation gate failures")
			return 2
		}
	}

	// The trend-gated sweeps share one shape: configure, then per rerun
	// run, route the artifact, and exit 2 if any run's gate failed.
	type result interface {
		Fprint(io.Writer)
		Report(io.Writer, bool) (bool, error)
	}
	gated := []struct {
		name, banner string
		run          func() (result, error)
	}{
		{"e9", "lifecycle endurance", func() (result, error) {
			cfg := experiments.DefaultE9()
			cfg.Windows = *e9Windows
			cfg.EphIDLifetime = uint32(*e9Life)
			cfg.Seeds = experiments.SeedSweep(*seed, *seeds)
			return experiments.RunE9(cfg)
		}},
		{"e10", "inter-domain accountability", func() (result, error) {
			cfg := experiments.DefaultE10()
			cfg.ASes = *e10ASes
			cfg.DigestInterval = *e10Digest
			cfg.Attackers = *adversaries
			cfg.Seeds = experiments.SeedSweep(*seed, *seeds)
			return experiments.RunE10(cfg)
		}},
		{"e11", "population ramp", func() (result, error) {
			cfg := experiments.DefaultE11()
			cfg.Ticks = *e11Ticks
			cfg.Workers = *fwdWork
			cfg.Seed = *seed
			cfg.P99BoundMs = *e11Bound
			if *e11Full {
				cfg.Tiers = append(cfg.Tiers, experiments.FullTopTier)
			}
			return experiments.RunE11(cfg)
		}},
		{"e12", "digest dissemination", func() (result, error) {
			cfg := experiments.DefaultE12()
			cfg.Seed = *seed
			cfg.Stubs = *e12Stubs
			cfg.Ticks = *e12Ticks
			return experiments.RunE12(cfg)
		}},
	}
	for _, g := range gated {
		if !selected(g.name) {
			continue
		}
		asJSON := *jsonOut || *outPrefix != ""
		ok := true
		for i := 1; i <= *reruns; i++ {
			fmt.Fprintf(stderr, "%s: %s (run %d/%d)...\n", g.name, g.banner, i, *reruns)
			res, err := g.run()
			if err != nil {
				return fatal(stderr, err)
			}
			if asJSON {
				// The summary goes to stderr so the artifact stream
				// stays clean JSON (BENCH_eN.json).
				res.Fprint(stderr)
			}
			if err := writeArtifact(i, func(w io.Writer) error {
				runOK, err := res.Report(w, asJSON)
				ok = ok && runOK
				return err
			}); err != nil {
				return fatal(stderr, err)
			}
		}
		fmt.Fprintln(stdout)
		if !ok {
			fmt.Fprintf(stderr, "apna-bench: %s gate failures\n", g.name)
			return 2
		}
	}
	return 0
}
