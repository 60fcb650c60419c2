// Command apna-scenario runs a declarative scenario spec
// (internal/scenario): the whole run — topology, attackers, chaos,
// phases, invariants, bounds — comes from a JSON file, every chaotic
// decision is captured as a replayable fault schedule (-record), and a
// recorded schedule replays bit-exactly (-replay). The paper's
// concurrent multi-flow scenario (E6), adversarial conformance sweep
// (E7), EphID lifecycle endurance sweep (E9) and inter-domain
// accountability sweep (E10) are the committed specs scenarios/e6.json,
// e7.json, e9.json and e10.json; the timed experiments (E1, E3/E4, E11)
// live in apna-bench, E8 is the benchmark's fwd_* workloads (go run
// ./bench), and the deterministic ones are tests:
// TestPaperScaleTrace in internal/trace (E2), TestConnectionRTTs in the
// root package (E5) and TestDisseminationAtScale in
// internal/accountability (E12).
//
// -seed overrides the spec's seed; -seeds N sweeps the spec over
// seed, seed+1, ... seed+N-1 (one verdict per seed, -json: one verdict
// object per seed) and fails if any seed fails.
//
// Exit codes: 0 when every run met its gate (bounds, invariants,
// promised work), 2 on a gate failure or a diverged replay, 1 on usage
// or internal errors.
//
// Usage:
//
//	apna-scenario -file scenarios/e6.json                 # E6
//	apna-scenario -file scenarios/e7.json -seeds 5 -json  # E7 sweep
//	apna-scenario -file scenarios/e9.json -seeds 5        # E9 sweep
//	apna-scenario -file scenarios/e10.json -seeds 5       # E10 sweep
//	apna-scenario -file s.json -record sched.json         # capture faults
//	apna-scenario -file s.json -replay sched.json         # replay bit-exactly
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"apna/internal/scenario"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func fatal(stderr io.Writer, err error) int {
	fmt.Fprintln(stderr, "apna-scenario:", err)
	return 1
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("apna-scenario", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		file       = fs.String("file", "", "declarative scenario spec (JSON); required")
		record     = fs.String("record", "", "write the captured fault schedule here")
		replayPath = fs.String("replay", "", "replay this recorded fault schedule")
		seed       = fs.Int64("seed", 0, "simulation seed (default: the spec's)")
		seeds      = fs.Int("seeds", 1, "sweep the spec over this many consecutive seeds")
		jsonOut    = fs.Bool("json", false, "emit the verdict object instead of the summary")
	)
	if err := fs.Parse(args); err != nil {
		return 1
	}
	if *file == "" {
		return fatal(stderr, fmt.Errorf("-file is required (the experiments E1, E3/E4 and E11 run from apna-bench; E8 is go run ./bench; E2, E5 and E12 are the tests TestPaperScaleTrace, TestConnectionRTTs and TestDisseminationAtScale)"))
	}
	if *seeds > 1 && (*record != "" || *replayPath != "") {
		return fatal(stderr, fmt.Errorf("-record and -replay bind one seed; drop -seeds"))
	}
	spec, err := scenario.Load(*file)
	if err != nil {
		return fatal(stderr, err)
	}
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "seed" {
			spec.Seed = *seed
		}
	})
	code := 0
	for i := 0; i < max(*seeds, 1) && code != 1; i++ {
		code = max(code, runSpec(spec, *record, *replayPath, *jsonOut, stdout, stderr))
		spec.Seed++
	}
	return code
}

// runSpec executes the spec once at its current seed: capture mode
// records the fault schedule (optionally to -record), replay mode
// re-executes a recorded schedule and reports its alignment.
func runSpec(spec *scenario.Spec, record, replayPath string, jsonOut bool, stdout, stderr io.Writer) int {
	var opts scenario.RunOptions
	if replayPath != "" {
		sched, err := scenario.LoadSchedule(replayPath)
		if err != nil {
			return fatal(stderr, err)
		}
		opts.Replay = sched
	}
	start := time.Now() //apna:wallclock
	res, err := scenario.Run(spec, opts)
	if err != nil {
		return fatal(stderr, err)
	}
	if record != "" {
		if res.Schedule == nil {
			return fatal(stderr, fmt.Errorf("-record is a capture-mode flag; drop -replay"))
		}
		if err := res.Schedule.Save(record); err != nil {
			return fatal(stderr, err)
		}
	}
	v := res.Verdict
	if jsonOut {
		raw, err := v.JSON()
		if err != nil {
			return fatal(stderr, err)
		}
		if _, err := stdout.Write(raw); err != nil {
			return fatal(stderr, err)
		}
	} else {
		verdict := "PASS"
		if !v.OK {
			verdict = "FAIL"
		}
		fmt.Fprintf(stdout, "scenario %s (seed %d): %s\n", v.Name, v.Seed, verdict)
		fmt.Fprintf(stdout, "  hosts %d, flows %d (%d failed), sent %d, delivered %d\n",
			v.Hosts, v.Flows, v.FlowsFailed, v.MessagesSent, v.Delivered)
		fmt.Fprintf(stdout, "  shutoffs %d/%d filed, revoked %d, resolved %d (+%d dials), denied %d\n",
			v.ShutoffsAccepted, v.ShutoffsFiled, v.Revoked, v.Resolved, v.ResolvedDials, v.Denied)
		if v.Invariants != nil {
			fmt.Fprintf(stdout, "  invariants ok: %v\n", v.Invariants.OK)
		}
		fmt.Fprintf(stdout, "  faults %d, events %d, virtual %v\n",
			v.Faults, v.Events, time.Duration(v.VirtualNs))
		fmt.Fprintf(stdout, "  trace %.16s…\n", v.TraceHash)
		for _, f := range v.Failures {
			fmt.Fprintf(stdout, "  FAIL: %s\n", f)
		}
	}
	if st := res.Replay; st != nil {
		fmt.Fprintf(stderr, "  replay: consumed %d, mismatched %d, underrun %d, leftover %d, desynced %v\n",
			st.Consumed, st.Mismatched, st.Underrun, st.Leftover, st.Desynced)
		if st.Mismatched > 0 || st.Desynced {
			fmt.Fprintln(stderr, "apna-scenario: replay diverged from the recorded schedule")
			return 2
		}
	}
	fmt.Fprintf(stderr, "  total wall time: %v\n", time.Since(start).Round(time.Millisecond)) //apna:wallclock
	if !v.OK {
		fmt.Fprintln(stderr, "apna-scenario: scenario gate failures")
		return 2
	}
	return 0
}
