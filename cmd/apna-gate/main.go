// Command apna-gate is the statistical bench-trend gate: it compares
// two sides' runs of the benchmark's results file (go run ./bench
// writes bench/out/results.json; each workload's end-to-end medians are
// gated) and fails (exit 2) only on a statistically confirmed
// regression: a Mann–Whitney U test under the significance level *and*
// a median shift beyond the minimum effect size, in the metric's
// harmful direction. Noise never fails the gate; a config-hash mismatch
// between the sides is a skip ("not comparable"), never a false
// verdict.
//
// The two sides are the parent commit and the change, run in
// interleaved pairs in one job (see the bench job in ci.yml), so drift
// of the machine's speed loads both sides alike.
//
// The thresholds are fixed (internal/benchgate): significance level
// 0.1, minimum effect 5%, at least 2 runs per side.
//
// Usage:
//
//	apna-gate compare [-gate-json GATE.json] [-report report.md] BASE_DIR HEAD_DIR
//
// Each directory holds one side's results files, every *.json file in
// it; a file that is not a results file fails the gate. compare
// compares HEAD_DIR's runs with BASE_DIR's and writes GATE.json plus
// report.md.
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

	base, err := readSide(fs.Arg(0))
	if err != nil {
		return fatal(stderr, err)
	}
	head, err := readSide(fs.Arg(1))
	if err != nil {
		return fatal(stderr, err)
	}
	res, err := benchgate.Compare(base, head)
	if err != nil {
		return fatal(stderr, err)
	}

	if *gateJSON != "" {
		raw, err := res.JSON()
		if err != nil {
			return fatal(stderr, err)
		}
		if err := os.WriteFile(*gateJSON, append(raw, '\n'), 0o644); err != nil {
			return fatal(stderr, err)
		}
	}
	if *reportMD != "" {
		if err := os.WriteFile(*reportMD, res.Markdown(), 0o644); err != nil {
			return fatal(stderr, err)
		}
	}
	printSummary(stdout, res)
	if res.Status == benchgate.StatusFail {
		fmt.Fprintln(stderr, "apna-gate: statistically confirmed regression")
		return 2
	}
	return 0
}

// readSide parses one side's results files, every *.json in dir. One
// unreadable file fails the whole side: a gate that silently ignored it
// would pass exactly when it should be loudest.
func readSide(dir string) ([]*benchgate.Artifact, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	arts := make([]*benchgate.Artifact, 0, len(paths))
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		art, err := benchgate.ParseArtifact(data)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		arts = append(arts, art)
	}
	return arts, nil
}

// printSummary narrates the gate's outcome.
func printSummary(w io.Writer, g *benchgate.GateResult) {
	switch g.Status {
	case benchgate.StatusNoBaseline:
		fmt.Fprintf(w, "%-12s %s\n", "SKIP", g.Reason)
	case benchgate.StatusFail:
		fmt.Fprintf(w, "%-12s %d regression(s), %d improvement(s) over %d metric(s)\n",
			"FAIL", g.Regressions, g.Improvements, len(g.Metrics))
		for _, m := range g.Metrics {
			if m.Verdict == benchgate.VerdictFail {
				fmt.Fprintf(w, "  %s: %s\n", m.Name, m.Reason)
			}
		}
	default:
		fmt.Fprintf(w, "%-12s %d metric(s), %d improvement(s)\n",
			strings.ToUpper(string(g.Status)), len(g.Metrics), g.Improvements)
	}
}
