// Command apna-bench regenerates the paper's evaluation artifacts
// (Section V and Section VII-C): the MS performance table, the trace
// statistics it is sized against, both Figure 8 forwarding series, the
// connection-establishment latency analysis, the multi-AS
// parallel-engine saturation run (E8) and the million-host population
// ramp (E11); each table prints the paper's numbers next to the
// measured ones. E6, E7, E9 and E10 are scenario specs: run them with
// apna-scenario -file scenarios/e6.json (or e7.json / e9.json /
// e10.json -seeds 5). The thousand-AS digest dissemination sweep (E12)
// is a test: go test -run TestDisseminationAtScale
// ./internal/accountability.
//
// The -seed flag drives every seeded experiment (E2 trace, E8 traffic
// mix, E11 population model); E8 and E11 exit 2 if any of their gates
// is violated. Usage errors, an -exp that names no experiment among
// them, exit 1.
//
// The gated runs additionally take -reruns N and -out PREFIX to emit
// PREFIX_run1.json..PREFIX_runN.json, the rerun sets cmd/apna-gate
// compares against the provenance-pinned baseline.
//
// Usage:
//
//	apna-bench -exp all            # everything, paper-scale trace
//	apna-bench -exp e1 -requests 500000 -workers 4
//	apna-bench -exp e3 -pkts 200000
//	apna-bench -exp e2 -small     # quick synthetic trace
//	apna-bench -exp e8 -ases 4 -fwd-workers 8 -json > BENCH_e8.json
//	apna-bench -exp e11 -json > BENCH_e11.json     # 10^3→10^6 ramp
//	apna-bench -exp e11 -e11-full -json            # extend to 10^7
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

	"apna/internal/engine"
	"apna/internal/experiments"
	"apna/internal/trace"
)

// experimentNames is every value -exp takes.
var experimentNames = []string{"all", "e1", "e2", "e3", "e4", "e5", "e8", "e11"}

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
		exp       = fs.String("exp", "all", "experiment: e1, e2, e3 (includes e4), e5, e8, e11, all")
		requests  = fs.Int("requests", 500_000, "E1: number of EphID requests")
		workers   = fs.Int("workers", 4, "E1: parallel issuance workers (paper: 4)")
		fwdHosts  = fs.Int("hosts", 256, "E3/E8: simulated source hosts (per AS for E8)")
		pkts      = fs.Int("pkts", 500_000, "E3/E8: packets per worker")
		fwdWork   = fs.Int("fwd-workers", runtime.NumCPU(), "E3/E8: forwarding workers, E11: population workers (cores)")
		small     = fs.Bool("small", false, "E2: use a small trace instead of paper scale")
		oneWay    = fs.Duration("oneway", 25*time.Millisecond, "E5: one-way inter-AS latency")
		seed      = fs.Int64("seed", 1, "seed for every seeded experiment (E2, E8, E11)")
		jsonOut   = fs.Bool("json", false, "E8, E11: emit machine-readable JSON")
		e8ASes    = fs.Int("ases", 4, "E8: autonomous systems in the ring")
		e8Batch   = fs.Int("batch", 64, "E8: frames per pipeline batch")
		e8Bad     = fs.Float64("bad", 0.05, "E8: fraction of adversarial frames")
		e11Ticks  = fs.Int("pop-ticks", experiments.DefaultE11().Ticks, "E11: virtual ticks per population tier")
		e11Bound  = fs.Float64("p99-bound", experiments.DefaultE11().P99BoundMs, "E11: issuance p99 gate in milliseconds")
		e11Full   = fs.Bool("e11-full", false, "E11: extend the ramp to 10^7 modeled hosts")
		reruns    = fs.Int("reruns", 1, "E8/E11: repeat the run N times (requires -out for N > 1)")
		outPrefix = fs.String("out", "", "E8/E11: write each rerun's artifact to PREFIX_runN.json instead of stdout (implies -json)")
	)
	if err := fs.Parse(args); err != nil {
		return 1
	}
	if *exp == "e12" {
		return fatal(stderr, fmt.Errorf("E12 is a test of the digest plane: go test -run TestDisseminationAtScale ./internal/accountability"))
	}
	if !slices.Contains(experimentNames, *exp) {
		return fatal(stderr, fmt.Errorf("unknown experiment %q (valid: %s; E6, E7, E9 and E10 are apna-scenario specs: scenarios/e6.json, scenarios/e7.json, scenarios/e9.json, scenarios/e10.json)",
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
		cfg := engine.DefaultSaturation()
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
			res, err := engine.Saturate(cfg)
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

	if selected("e11") {
		cfg := experiments.DefaultE11()
		cfg.Ticks = *e11Ticks
		cfg.Workers = *fwdWork
		cfg.Seed = *seed
		cfg.P99BoundMs = *e11Bound
		if *e11Full {
			cfg.Tiers = append(cfg.Tiers, experiments.FullTopTier)
		}
		asJSON := *jsonOut || *outPrefix != ""
		ok := true
		for i := 1; i <= *reruns; i++ {
			fmt.Fprintf(stderr, "e11: population ramp (run %d/%d)...\n", i, *reruns)
			res, err := experiments.RunE11(cfg)
			if err != nil {
				return fatal(stderr, err)
			}
			if asJSON {
				// The summary goes to stderr so the artifact stream
				// stays clean JSON (BENCH_e11.json).
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
			fmt.Fprintln(stderr, "apna-bench: e11 gate failures")
			return 2
		}
	}
	return 0
}
