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
// violated.
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
	"time"

	"apna/internal/experiments"
	"apna/internal/trace"
)

func main() {
	var (
		exp         = flag.String("exp", "all", "experiment: e1, e2, e3 (includes e4), e5, e8, e9, e10, e11, e12, all")
		requests    = flag.Int("requests", 500_000, "E1: number of EphID requests")
		workers     = flag.Int("workers", 4, "E1: parallel issuance workers (paper: 4)")
		fwdHosts    = flag.Int("hosts", 256, "E3/E8: simulated source hosts (per AS for E8)")
		pkts        = flag.Int("pkts", 500_000, "E3/E8: packets per worker")
		fwdWork     = flag.Int("fwd-workers", runtime.NumCPU(), "E3/E8: forwarding workers, E11: population workers (cores)")
		small       = flag.Bool("small", false, "E2: use a small trace instead of paper scale")
		oneWay      = flag.Duration("oneway", 25*time.Millisecond, "E5: one-way inter-AS latency")
		seed        = flag.Int64("seed", 1, "base seed for every seeded experiment (E2, E8-E12)")
		seeds       = flag.Int("seeds", 5, "E9/E10: seeds in the sweep (seed, seed+1, ...)")
		adversaries = flag.Int("adversaries", 2, "E10: number of attackers")
		jsonOut     = flag.Bool("json", false, "E8-E12: emit machine-readable JSON")
		e8ASes      = flag.Int("ases", 4, "E8: autonomous systems in the ring")
		e8Batch     = flag.Int("batch", 64, "E8: frames per pipeline batch")
		e8Bad       = flag.Float64("bad", 0.05, "E8: fraction of adversarial frames")
		e9Windows   = flag.Int("windows", 4, "E9: EphID validity windows to cross")
		e9Life      = flag.Uint("ephid-life", 120, "E9: client EphID lifetime in seconds")
		e10ASes     = flag.Int("acct-ases", 8, "E10: autonomous systems in the full mesh")
		e10Digest   = flag.Duration("digest", 10*time.Second, "E10: revocation-digest dissemination interval")
		e11Ticks    = flag.Int("pop-ticks", experiments.DefaultE11().Ticks, "E11: virtual ticks per population tier")
		e11Bound    = flag.Float64("p99-bound", experiments.DefaultE11().P99BoundMs, "E11: issuance p99 gate in milliseconds")
		e11Full     = flag.Bool("e11-full", false, "E11: extend the ramp to 10^7 modeled hosts")
		e12Stubs    = flag.Int("dissem-stubs", experiments.DefaultE12().Stubs, "E12: stub ASes in the relay graph (total = core + mid + stubs)")
		e12Ticks    = flag.Int("dissem-ticks", experiments.DefaultE12().Ticks, "E12: measured digest intervals in the relay phase")
		reruns      = flag.Int("reruns", 1, "E8/E9/E10/E11/E12: repeat the run N times for the trend gate (requires -out for N > 1)")
		outPrefix   = flag.String("out", "", "E8/E9/E10/E11/E12: write each rerun's artifact to PREFIX_runN.json instead of stdout (implies -json)")
	)
	flag.Parse()
	if *reruns < 1 {
		fatal(fmt.Errorf("-reruns must be >= 1"))
	}
	if *reruns > 1 && *outPrefix == "" {
		fatal(fmt.Errorf("-reruns > 1 needs -out so the artifacts land in separate files"))
	}

	// writeArtifact routes one rerun's artifact: to PREFIX_runN.json
	// under -out (the trend gate compares the files), else stdout.
	writeArtifact := func(run int, render func(w *os.File) error) {
		if *outPrefix == "" {
			if err := render(os.Stdout); err != nil {
				fatal(err)
			}
			return
		}
		name := fmt.Sprintf("%s_run%d.json", *outPrefix, run)
		f, err := os.Create(name)
		if err != nil {
			fatal(err)
		}
		if err := render(f); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", name)
	}

	run := func(name string) bool { return *exp == "all" || *exp == name }
	peak := 0

	if run("e2") || run("e1") {
		cfg := trace.PaperScale()
		if *small {
			cfg = trace.Config{Hosts: 50_000, Duration: time.Hour, PeakRate: 3_800, Seed: *seed}
		}
		cfg.Seed = *seed
		fmt.Fprintf(os.Stderr, "generating %v synthetic trace (%d hosts)...\n", cfg.Duration, cfg.Hosts)
		stats, err := experiments.RunE2(cfg)
		if err != nil {
			fatal(err)
		}
		peak = stats.PeakRate
		if run("e2") {
			experiments.FprintE2(os.Stdout, stats)
			fmt.Println()
		}
	}

	if run("e1") {
		fmt.Fprintf(os.Stderr, "issuing %d EphIDs on %d workers...\n", *requests, *workers)
		res, err := experiments.RunE1(*requests, *workers, peak)
		if err != nil {
			fatal(err)
		}
		res.Fprint(os.Stdout)
		fmt.Println()
	}

	if run("e3") || run("e4") {
		fmt.Fprintf(os.Stderr, "forwarding sweep: %d hosts, %d workers, %d pkts/worker...\n",
			*fwdHosts, *fwdWork, *pkts)
		results, err := experiments.RunE3(*fwdHosts, *fwdWork, *pkts)
		if err != nil {
			fatal(err)
		}
		experiments.FprintE3(os.Stdout, results)
		fmt.Println()
	}

	if run("e5") {
		res, err := experiments.RunE5(*oneWay)
		if err != nil {
			fatal(err)
		}
		experiments.FprintE5(os.Stdout, res)
		fmt.Println()
	}

	if run("e8") {
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
			fmt.Fprintf(os.Stderr, "engine saturation (run %d/%d): %d ASes x %d hosts, %d workers, %d pkts/worker...\n",
				i, *reruns, cfg.ASes, cfg.HostsPerAS, cfg.Workers, cfg.PacketsPerWorker)
			res, err := experiments.RunE8(cfg)
			if err != nil {
				fatal(err)
			}
			writeArtifact(i, func(w *os.File) error {
				return res.Fprint(w, *jsonOut || *outPrefix != "")
			})
			ok = ok && res.OK
			if !res.OK {
				for _, f := range res.Failures {
					fmt.Fprintf(os.Stderr, "apna-bench: E8 gate: %s\n", f)
				}
			}
		}
		fmt.Println()
		if !ok {
			fmt.Fprintln(os.Stderr, "apna-bench: E8 saturation gate failures")
			os.Exit(2)
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
		if !run(g.name) {
			continue
		}
		asJSON := *jsonOut || *outPrefix != ""
		ok := true
		for i := 1; i <= *reruns; i++ {
			fmt.Fprintf(os.Stderr, "%s: %s (run %d/%d)...\n", g.name, g.banner, i, *reruns)
			res, err := g.run()
			if err != nil {
				fatal(err)
			}
			if asJSON {
				// The summary goes to stderr so the artifact stream
				// stays clean JSON (BENCH_eN.json).
				res.Fprint(os.Stderr)
			}
			writeArtifact(i, func(w *os.File) error {
				runOK, err := res.Report(w, asJSON)
				ok = ok && runOK
				return err
			})
		}
		fmt.Println()
		if !ok {
			fmt.Fprintf(os.Stderr, "apna-bench: %s gate failures\n", g.name)
			os.Exit(2)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "apna-bench:", err)
	os.Exit(1)
}
