// Command apna-bench runs the paper's timed evaluation experiments
// (Section V): the MS performance table (E1), both Figure 8 forwarding
// series (E3/E4) and the million-host population ramp (E11); each table
// prints the paper's numbers next to the measured ones. The multi-AS
// forwarding run that was E8 is the benchmark's fwd_small, fwd_large and
// fwd_churn workloads (go run ./bench). The deterministic experiments
// are tests — E2 (trace statistics) is go test -run TestPaperScaleTrace
// ./internal/trace, E5 (connection-establishment RTTs) go test -run
// TestConnectionRTTs ., E12 (digest dissemination) go test -run
// TestDisseminationAtScale ./internal/accountability — and E6, E7, E9
// and E10 are scenario specs: apna-scenario -file scenarios/e6.json (or
// e7.json / e9.json / e10.json -seeds 5). Naming any of them here exits
// 1 and says where it went.
//
// -seed drives E11's population model; E11 exits 2 if any of its gates
// is violated. Usage errors exit 1.
//
// stdout always carries the human-readable tables. -out PREFIX writes
// each E11 run's JSON artifact to PREFIX_run1.json..PREFIX_runN.json
// (N from -reruns), the rerun sets cmd/apna-gate compares against the
// provenance-pinned baseline.
//
// Usage:
//
//	apna-bench -exp all                            # E1, E3/E4, E11
//	apna-bench -exp e3 -pkts 200000
//	apna-bench -exp e11 -fwd-workers 4 -out BENCH_e11   # 10^3→10^6 ramp
//	apna-bench -exp e11 -e11-full                  # extend to 10^7
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"strings"

	"apna/internal/experiments"
)

// experimentNames is every value -exp takes.
var experimentNames = []string{"all", "e1", "e3", "e4", "e11"}

// experimentMoved says where each retired experiment went: a test for
// the deterministic ones, the benchmark for E8.
var experimentMoved = map[string]string{
	"e2":  "is a test: go test -run TestPaperScaleTrace ./internal/trace",
	"e5":  "is a test: go test -run TestConnectionRTTs .",
	"e8":  "is the benchmark: go run ./bench (fwd_small, fwd_large, fwd_churn)",
	"e12": "is a test: go test -run TestDisseminationAtScale ./internal/accountability",
}

// The experiments' fixed sizes: E1 issues the paper's 500,000 EphIDs on
// its 4 processes, and E3 registers 256 source hosts per AS.
const (
	e1Requests = 500_000
	e1Workers  = 4
	fwdHosts   = 256
)

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
		exp       = fs.String("exp", "all", "experiment: e1, e3 (includes e4), e11, all")
		seed      = fs.Int64("seed", 1, "seed for E11's population model")
		pkts      = fs.Int("pkts", 500_000, "E3: packets per worker")
		fwdWork   = fs.Int("fwd-workers", runtime.NumCPU(), "E3: forwarding workers, E11: population workers (cores)")
		e11Full   = fs.Bool("e11-full", false, "E11: extend the ramp to 10^7 modeled hosts")
		reruns    = fs.Int("reruns", 1, "E11: repeat the run N times (requires -out for N > 1)")
		outPrefix = fs.String("out", "", "E11: also write each rerun's JSON artifact to PREFIX_runN.json")
	)
	if err := fs.Parse(args); err != nil {
		return 1
	}
	if moved, ok := experimentMoved[*exp]; ok {
		return fatal(stderr, fmt.Errorf("%s %s", strings.ToUpper(*exp), moved))
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

	selected := func(name string) bool { return *exp == "all" || *exp == name }

	if selected("e1") {
		fmt.Fprintf(stderr, "issuing %d EphIDs on %d workers...\n", e1Requests, e1Workers)
		res, err := experiments.RunE1(e1Requests, e1Workers)
		if err != nil {
			return fatal(stderr, err)
		}
		res.Fprint(stdout)
		fmt.Fprintln(stdout)
	}

	if selected("e3") || selected("e4") {
		fmt.Fprintf(stderr, "forwarding sweep: %d hosts, %d workers, %d pkts/worker...\n",
			fwdHosts, *fwdWork, *pkts)
		results, err := experiments.RunE3(fwdHosts, *fwdWork, *pkts)
		if err != nil {
			return fatal(stderr, err)
		}
		experiments.FprintE3(stdout, results)
		fmt.Fprintln(stdout)
	}

	if selected("e11") {
		cfg := experiments.DefaultE11()
		cfg.Workers = *fwdWork
		cfg.Seed = *seed
		if *e11Full {
			cfg.Tiers = append(cfg.Tiers, experiments.FullTopTier)
		}
		ok := true
		for i := 1; i <= *reruns; i++ {
			fmt.Fprintf(stderr, "e11: population ramp (run %d/%d)...\n", i, *reruns)
			res, err := experiments.RunE11(cfg)
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
	}
	return 0
}
