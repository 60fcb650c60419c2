// Command apna-bench runs the million-host population ramp (E11) of the
// paper's evaluation and gates it: it exits 2 if any gate is violated,
// and 1 on usage errors. The rest of the evaluation lives elsewhere. The
// MS issuance table (E1) is the root BenchmarkEphIDIssuanceParallel, and
// Figure 8's forwarding series (E3/E4) is the root
// BenchmarkEngineRun/<size>. The multi-AS forwarding run that was E8 is
// the benchmark's fwd_small, fwd_large and fwd_churn workloads (go run
// ./bench). E2 (trace statistics) is go test -run TestPaperScaleTrace
// ./internal/trace, E5 (connection-establishment RTTs) go test -run
// TestConnectionRTTs ., and E12 (digest dissemination) go test -run
// TestDisseminationAtScale ./internal/accountability. E6, E7, E9 and E10
// are scenario specs: apna-scenario -file scenarios/e6.json (or e7.json
// / e9.json / e10.json -seeds 5).
//
// -seed drives the population model and -workers bounds its worker
// count. stdout always carries the human-readable table. -out PREFIX
// writes each run's JSON artifact to PREFIX_run1.json..PREFIX_runN.json
// (N from -reruns), the rerun sets cmd/apna-gate compares against the
// provenance-pinned baseline.
//
// Usage:
//
//	apna-bench                                # 10^3→10^6 ramp
//	apna-bench -workers 4 -reruns 3 -out BENCH_e11
//	apna-bench -e11-full                      # extend to 10^7
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, defaultE11()))
}

func fatal(stderr io.Writer, err error) int {
	fmt.Fprintln(stderr, "apna-bench:", err)
	return 1
}

// run runs the ramp cfg with the flags of args applied to it.
func run(args []string, stdout, stderr io.Writer, cfg e11Config) int {
	fs := flag.NewFlagSet("apna-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		seed      = fs.Int64("seed", 1, "seed for the population model")
		workers   = fs.Int("workers", runtime.NumCPU(), "population workers (cores)")
		e11Full   = fs.Bool("e11-full", false, "extend the ramp to 10^7 modeled hosts")
		reruns    = fs.Int("reruns", 1, "repeat the run N times (requires -out for N > 1)")
		outPrefix = fs.String("out", "", "also write each rerun's JSON artifact to PREFIX_runN.json")
	)
	if err := fs.Parse(args); err != nil {
		return 1
	}
	if *reruns < 1 {
		return fatal(stderr, fmt.Errorf("-reruns must be >= 1"))
	}
	if *reruns > 1 && *outPrefix == "" {
		return fatal(stderr, fmt.Errorf("-reruns > 1 needs -out so the artifacts land in separate files"))
	}

	cfg.Workers = *workers
	cfg.Seed = *seed
	if *e11Full {
		cfg.Tiers = append(cfg.Tiers, fullTopTier)
	}
	ok := true
	for i := 1; i <= *reruns; i++ {
		fmt.Fprintf(stderr, "e11: population ramp (run %d/%d)...\n", i, *reruns)
		res, err := runE11(cfg)
		if err != nil {
			return fatal(stderr, err)
		}
		res.Fprint(stdout)
		if *outPrefix != "" {
			// One file per rerun: the trend gate compares the set.
			raw, err := res.JSON()
			if err != nil {
				return fatal(stderr, err)
			}
			name := fmt.Sprintf("%s_run%d.json", *outPrefix, i)
			if err := os.WriteFile(name, append(raw, '\n'), 0o644); err != nil {
				return fatal(stderr, err)
			}
			fmt.Fprintf(stderr, "wrote %s\n", name)
		}
		ok = ok && res.OK
	}
	fmt.Fprintln(stdout)
	if !ok {
		fmt.Fprintln(stderr, "apna-bench: e11 gate failures")
		return 2
	}
	return 0
}
