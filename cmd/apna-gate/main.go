// Command apna-gate is the statistical bench-trend gate: it compares
// two sides' artifacts — the benchmark's results files (go run ./bench
// writes bench/out/results.json; each workload's end-to-end medians are
// gated) and apna-bench's E11 artifacts — and fails (exit 2) only on a
// statistically confirmed regression: a Mann–Whitney U test under the
// significance level *and* a median shift beyond the minimum effect
// size, in the metric's harmful direction. Noise never fails the gate;
// a config-hash mismatch between the sides is a skip ("not
// comparable"), never a false verdict.
//
// The two sides are the parent commit and the change, run in
// interleaved pairs in one job (see the bench job in ci.yml), so drift
// of the machine's speed loads both sides alike. That job feeds it only
// the benchmark's results files.
//
// The thresholds are fixed (internal/benchgate): significance level
// 0.1, minimum effect 5%, at least 2 runs per side.
//
// Usage:
//
//	apna-gate compare [-gate-json GATE.json] [-report report.md] BASE_DIR HEAD_DIR
//
// Each directory holds one side's artifacts, every *.json file in it.
// compare groups each side by experiment — so one invocation gates
// every experiment at once — compares each of HEAD_DIR's experiments
// against BASE_DIR's runs of it, and writes GATE.json plus report.md.
//
// Exit codes: 0 pass/improved/skip, 1 usage or parse error, 2
// confirmed regression — and only that.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
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

const synopsis = "apna-gate compare [-gate-json FILE] [-report FILE] BASE_DIR HEAD_DIR"

func usage(w io.Writer) {
	fmt.Fprintln(w, "usage: "+synopsis+"\nrun \"apna-gate compare -h\" for the compare flags")
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		usage(stderr)
		return 1
	}
	switch args[0] {
	case "compare":
		return runCompare(args[1:], stdout, stderr)
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
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: "+synopsis)
		fs.PrintDefaults()
	}
	var (
		gateJSON = fs.String("gate-json", "", "write the machine-readable gate document here (GATE.json)")
		reportMD = fs.String("report", "", "write the human-readable report here (report.md)")
	)
	if err := fs.Parse(args); err != nil {
		return 1
	}
	if fs.NArg() != 2 {
		return fatal(stderr, fmt.Errorf("compare needs two directories, BASE_DIR and HEAD_DIR; got %d", fs.NArg()))
	}

	base, err := readGroups(fs.Arg(0))
	if err != nil {
		return fatal(stderr, err)
	}
	head, err := readGroups(fs.Arg(1))
	if err != nil {
		return fatal(stderr, err)
	}
	baseRuns := make(map[string][]*benchgate.Artifact)
	for _, g := range base {
		baseRuns[g.Experiment] = g.Artifacts
	}
	var gates []*benchgate.GateResult
	for _, g := range head {
		res, err := benchgate.Compare(baseRuns[g.Experiment], g.Artifacts)
		if err != nil {
			return fatal(stderr, err)
		}
		gates = append(gates, res)
		delete(baseRuns, g.Experiment)
	}
	for exp := range baseRuns {
		return fatal(stderr, fmt.Errorf("%s holds %s artifacts and %s none", fs.Arg(0), exp, fs.Arg(1)))
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

// readGroups loads one side's artifact files, every *.json in dir, and
// groups them by experiment.
func readGroups(dir string) ([]*benchgate.Group, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	raws := make([][]byte, 0, len(paths))
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		raws = append(raws, data)
	}
	groups, err := benchgate.GroupArtifacts(paths, raws)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", dir, err)
	}
	return groups, nil
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
