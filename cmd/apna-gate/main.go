// Command apna-gate is the statistical bench-trend gate: it compares
// the current crop of artifacts — the benchmark's results files (go run
// ./bench writes bench/out/results.json; each workload's end-to-end
// medians are gated) and apna-bench's E11 artifacts — against a
// provenance-pinned baseline and fails (exit 2) only on a statistically
// confirmed regression: a Mann–Whitney U test under the significance
// level *and* a median shift beyond the minimum effect size, in the
// metric's harmful direction. Noise never fails the
// gate; a missing or config-hash-mismatched baseline is a skip ("no
// comparable baseline"), never a false verdict.
//
// The thresholds are fixed (internal/benchgate): significance level
// 0.1, minimum effect 5%, at least 2 runs per side.
//
// Usage:
//
//	apna-gate compare -store .benchgate BENCH_bench_run*.json BENCH_e11_run*.json
//	apna-gate compare -store .benchgate -gate-json GATE.json -report report.md ...
//	apna-gate update  -store .benchgate BENCH_bench_run*.json BENCH_e11_run*.json
//
// compare groups the given artifacts by (experiment, provenance config
// hash) — so one invocation gates every experiment at once — loads
// each group's baseline from -store, and writes GATE.json plus
// report.md. update parses the given artifacts and stores them as the
// new baselines for their config hashes.
//
// Exit codes: 0 pass/improved/skip, 1 usage or parse error, 2
// confirmed regression — and only that.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"apna/internal/benchgate"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func fatal(stderr io.Writer, err error) int {
	fmt.Fprintln(stderr, "apna-gate:", err)
	return 1
}

func usage(w io.Writer) {
	fmt.Fprintln(w, `usage:
  apna-gate compare -store DIR [-gate-json FILE] [-report FILE] ARTIFACT...
  apna-gate update  -store DIR ARTIFACT...
run "apna-gate compare -h" for the compare flags`)
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		usage(stderr)
		return 1
	}
	switch args[0] {
	case "compare":
		return runCompare(args[1:], stdout, stderr)
	case "update":
		return runUpdate(args[1:], stdout, stderr)
	case "-h", "-help", "--help", "help":
		usage(stdout)
		return 0
	default:
		fmt.Fprintf(stderr, "apna-gate: unknown subcommand %q\n", args[0])
		usage(stderr)
		return 1
	}
}

func runCompare(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		storeDir = fs.String("store", "", "baseline store directory (keyed by experiment + config hash)")
		gateJSON = fs.String("gate-json", "", "write the machine-readable gate document here (GATE.json)")
		reportMD = fs.String("report", "", "write the human-readable report here (report.md)")
	)
	if err := fs.Parse(args); err != nil {
		return 1
	}
	if *storeDir == "" || fs.NArg() == 0 {
		return fatal(stderr, errors.New("compare needs -store and current artifact files"))
	}

	groups, err := readGroups(fs.Args())
	if err != nil {
		return fatal(stderr, err)
	}

	var gates []*benchgate.GateResult
	store := benchgate.Store{Dir: *storeDir}
	for _, g := range groups {
		baseline, err := store.Load(g.Experiment, g.ConfigHash)
		if err != nil && !errors.Is(err, benchgate.ErrNoBaseline) {
			return fatal(stderr, err)
		}
		res, err := benchgate.Compare(baseline, g.Artifacts)
		if err != nil {
			return fatal(stderr, err)
		}
		gates = append(gates, res)
	}

	summary := benchgate.Summarize(gates)
	if *gateJSON != "" {
		raw, err := summary.JSON()
		if err != nil {
			return fatal(stderr, err)
		}
		if err := os.WriteFile(*gateJSON, append(raw, '\n'), 0o644); err != nil {
			return fatal(stderr, err)
		}
	}
	if *reportMD != "" {
		if err := os.WriteFile(*reportMD, summary.Markdown(), 0o644); err != nil {
			return fatal(stderr, err)
		}
	}
	printSummary(stdout, summary)
	if !summary.OK {
		fmt.Fprintln(stderr, "apna-gate: statistically confirmed regression")
		return 2
	}
	return 0
}

func runUpdate(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("update", flag.ContinueOnError)
	fs.SetOutput(stderr)
	storeDir := fs.String("store", "", "baseline store directory")
	if err := fs.Parse(args); err != nil {
		return 1
	}
	if *storeDir == "" || fs.NArg() == 0 {
		return fatal(stderr, errors.New("update needs -store and artifact files"))
	}
	groups, err := readGroups(fs.Args())
	if err != nil {
		return fatal(stderr, err)
	}
	store := benchgate.Store{Dir: *storeDir}
	for _, g := range groups {
		if err := store.Save(g.Raws); err != nil {
			return fatal(stderr, err)
		}
		fmt.Fprintf(stdout, "apna-gate: baseline for %s (config %.12s) <- %d run(s)\n",
			g.Experiment, g.ConfigHash, len(g.Raws))
	}
	return 0
}

// readGroups loads and groups artifact files.
func readGroups(paths []string) ([]*benchgate.Group, error) {
	raws := make([][]byte, 0, len(paths))
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		raws = append(raws, data)
	}
	return benchgate.GroupArtifacts(paths, raws)
}

// printSummary narrates each gate.
func printSummary(w io.Writer, s *benchgate.Summary) {
	for _, g := range s.Gates {
		switch g.Status {
		case benchgate.StatusNoBaseline:
			fmt.Fprintf(w, "%-4s %-12s %s\n", g.Experiment, "SKIP", g.Reason)
		case benchgate.StatusFail:
			fmt.Fprintf(w, "%-4s %-12s %d regression(s), %d improvement(s) over %d metric(s)\n",
				g.Experiment, "FAIL", g.Regressions, g.Improvements, len(g.Metrics))
			for _, m := range g.Metrics {
				if m.Verdict == benchgate.VerdictFail {
					fmt.Fprintf(w, "       %s: %s\n", m.Name, m.Reason)
				}
			}
		default:
			fmt.Fprintf(w, "%-4s %-12s %d metric(s), %d improvement(s)\n",
				g.Experiment, strings.ToUpper(string(g.Status)), len(g.Metrics), g.Improvements)
		}
	}
}
