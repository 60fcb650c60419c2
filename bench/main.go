// Command bench is the repo's cross-PR performance contract: six named
// workloads over the APNA data and control planes, end-to-end metrics
// from an untraced pass and a per-layer cost ledger from a traced one.
// BENCHMARK.json at the repo root names the metrics the driver reads;
// the README beside this file says what each is for.
//
//	go run ./bench                       every workload, each in its own process
//	go run ./bench -trace                the traced pass (per-layer metrics, span files)
//	go run ./bench -workload fwd_small   one workload, in this process
//	go run ./bench -selfcheck            the suite twice; fails if the two disagree
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"apna/internal/provenance"
)

// workloadNames fixes the suite's order.
var workloadNames = []string{"fwd_small", "fwd_large", "fwd_churn", "ctl_population", "host_connect", "host_send"}

// opts is one workload run's parameters.
type opts struct {
	workload string
	seed     int64
	limit    time.Duration // the driver's --seconds; 0: none (see timedReps)
	trace    bool
	outDir   string
	// manifest is the path of BENCHMARK.json, which names the metrics a
	// run must print.
	manifest string
	// scale divides every operation count; only the smoke test sets it
	// above 1.
	scale int
}

func (o opts) tracePath() string {
	return filepath.Join(o.outDir, "trace-"+o.workload+".jsonl")
}

// config is everything that fixes what a run measures; its hash is the
// provenance block's config hash.
type config struct {
	Trace bool                `json:"trace"`
	Fwd   map[string]fwdSpec  `json:"fwd"`
	Ctl   ctlSpec             `json:"ctl_population"`
	Host  map[string]hostSpec `json:"host"`
}

// wholeWorkload names what the untraced pass measures over a whole
// workload besides BENCHMARK.json's end_to_end metrics. That list admits
// only figures every workload reports, never 0, that differ from run to
// run and repeat within a relative bound, so these are printed and
// written to the results file but are not in the driver's result line:
// goodput_gbps (fwd_* only), connect_vrtt (host_connect only, repeats
// exactly), allocs_per_op (near 0 on the hot fwd_*), peak_rss_mb (the
// heap's overshoot on a starved box is not bounded) and error_rate
// (must be 0).
var wholeWorkload = []metricDef{
	{Name: "goodput_gbps", Unit: "Gbit/s", Better: "higher"},
	{Name: "connect_vrtt", Unit: "RTT", Better: "lower"},
	{Name: "allocs_per_op", Unit: "1/op", Better: "lower"},
	{Name: "peak_rss_mb", Unit: "MiB", Better: "lower"},
	{Name: "error_rate", Unit: "ratio", Better: "lower"},
}

// absFloor is the move below which a metric's two medians agree whatever
// their ratio: a 2 ms world build doubles without anything having
// changed. BENCHMARK.json's schema has no key for it.
var absFloor = map[string]float64{"setup_s": 0.05}

// foldTraceArg lets -trace be a boolean flag, as the issue writes it,
// when the driver writes `--trace 0|1`: it joins the two into -trace=0|1.
func foldTraceArg(args []string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		if (args[i] == "-trace" || args[i] == "--trace") && i+1 < len(args) && (args[i+1] == "0" || args[i+1] == "1") {
			out = append(out, "-trace="+args[i+1])
			i++
			continue
		}
		out = append(out, args[i])
	}
	return out
}

func main() {
	var (
		workload  = flag.String("workload", "", "run only this workload, in this process (default: all, one child process each)")
		seed      = flag.Int64("seed", 1, "workload seed")
		seconds   = flag.Float64("seconds", 0, "the driver's run length: no timed repetition starts after it (0: every repetition runs)")
		trace     = flag.Bool("trace", false, "traced pass: per-layer metrics and bench/out/trace-<workload>.jsonl")
		selfcheck = flag.Bool("selfcheck", false, "run the suite twice and compare the medians against BENCHMARK.json's bounds")
	)
	if err := flag.CommandLine.Parse(foldTraceArg(os.Args[1:])); err != nil {
		os.Exit(2) // the flag package has said why
	}
	o := opts{
		workload: *workload, seed: *seed, trace: *trace, scale: 1,
		limit:  time.Duration(*seconds * float64(time.Second)),
		outDir: filepath.Join("bench", "out"), manifest: "BENCHMARK.json",
	}
	var err error
	switch {
	case *selfcheck:
		err = selfCheck(o)
	case o.workload == "":
		_, err = runSuite(o, os.Stdout)
	default:
		_, err = runOne(o, os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// runWorkload dispatches to the workload's driver and fills in the
// metrics every workload shares.
func runWorkload(o opts) (*outcome, error) {
	var (
		out *outcome
		err error
	)
	if spec, ok := fwdSpecs[o.workload]; ok {
		out, err = runFwd(spec.scaled(o.scale), o)
	} else if spec, ok := hostSpecs[o.workload]; ok {
		out, err = runHost(spec.scaled(o.scale), o)
	} else if o.workload == "ctl_population" {
		out, err = runCtl(ctlFull.scaled(o.scale), o)
	} else {
		return nil, fmt.Errorf("unknown workload %q (have %s)", o.workload, strings.Join(workloadNames, ", "))
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", o.workload, err)
	}
	if out.attempted == 0 {
		return nil, fmt.Errorf("%s: no operation attempted", o.workload)
	}
	if o.trace {
		delete(out.m, "setup_s") // an end-to-end metric: the untraced pass reports it
	} else {
		out.m["setup_s"].values = setupReps(out.m["setup_s"].values)
		out.m.add("error_rate", "ratio", float64(out.failed)/float64(out.attempted))
		out.m.add("peak_rss_mb", "MiB", peakRSSMiB())
	}
	return out, nil
}

// runOne runs one workload in this process and prints the pass's
// metrics — untraced: BENCHMARK.json's end_to_end, then wholeWorkload;
// traced: its per_layer — then the one-line JSON result the driver
// reads, which holds BENCHMARK.json's alone. It returns the names the
// workload really measured. The driver wants every per-layer name from
// every workload, so one of a layer the workload does not exercise is
// printed as 0 and left out of that list.
func runOne(o opts, w io.Writer) ([]string, error) {
	man, err := readManifest(o.manifest)
	if err != nil {
		return nil, err
	}
	out, err := runWorkload(o)
	if err != nil {
		return nil, err
	}
	defs, extra := man.EndToEnd, wholeWorkload
	if o.trace {
		defs, extra = man.PerLayer, nil
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	result := struct {
		Correct   bool             `json:"correct"`
		Attempted uint64           `json:"attempted"`
		Failed    uint64           `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{out.failed == 0, out.attempted, out.failed, map[string]value{}}
	var measuredNames []string
	// emit prints one declared metric. One the driver reads goes into the
	// result line too, as 0 if the workload did not measure it.
	emit := func(d metricDef, forDriver bool) error {
		s := out.m[d.Name]
		switch {
		case s != nil:
			measuredNames = append(measuredNames, d.Name)
		case forDriver:
			s = &sample{unit: d.Unit, values: []float64{0}}
		default:
			return nil
		}
		if s.unit != d.Unit {
			return fmt.Errorf("%s: metric %s measured in %s, declared in %s", o.workload, d.Name, s.unit, d.Unit)
		}
		q1, med, q3 := quartiles(s.values)
		fmt.Fprintf(w, "metric %s %s %s %v q1 %v q3 %v n %d\n", o.workload, d.Name, s.unit, med, q1, q3, len(s.values))
		if forDriver {
			result.Metrics[d.Name] = value{med, s.unit}
		}
		delete(out.m, d.Name)
		return nil
	}
	for _, d := range defs {
		if err := emit(d, true); err != nil {
			return nil, err
		}
	}
	for _, d := range extra {
		if err := emit(d, false); err != nil {
			return nil, err
		}
	}
	for name := range out.m {
		return nil, fmt.Errorf("%s: metric %s is declared nowhere", o.workload, name)
	}
	fmt.Fprintf(w, "checked %s attempted %d failed %d\n", o.workload, out.attempted, out.failed)
	line, err := json.Marshal(result)
	if err != nil {
		return nil, fmt.Errorf("result: %w", err)
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return measuredNames, err
}

// measured is one metric line of a child run.
type measured struct {
	Unit   string  `json:"unit"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

// workloadResult is one child run as the suite records it.
type workloadResult struct {
	Attempted uint64              `json:"attempted"`
	Failed    uint64              `json:"failed"`
	Metrics   map[string]measured `json:"metrics"`
}

// runSuite runs every workload in a fresh child process — so set-up
// time and peak RSS are each workload's own — echoes the children's
// metric lines, and writes the results file with its provenance.
func runSuite(o opts, w io.Writer) (map[string]workloadResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("locate binary: %w", err)
	}
	results := map[string]workloadResult{}
	for _, name := range workloadNames {
		cmd := exec.Command(exe, "-workload", name, "-seed", fmt.Sprint(o.seed),
			"-seconds", fmt.Sprint(o.limit.Seconds()), fmt.Sprintf("-trace=%t", o.trace))
		var stdout bytes.Buffer
		cmd.Stdout = io.MultiWriter(&stdout, w)
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("workload %s: %w", name, err)
		}
		res, err := parseChild(name, &stdout)
		if err != nil {
			return nil, err
		}
		results[name] = res
	}

	cfg := config{Trace: o.trace, Fwd: fwdSpecs, Ctl: ctlFull, Host: hostSpecs}
	file := struct {
		Provenance provenance.Block          `json:"provenance"`
		GOMAXPROCS int                       `json:"gomaxprocs"`
		Config     config                    `json:"config"`
		Workloads  map[string]workloadResult `json:"workloads"`
	}{provenance.Collect(o.seed, cfg), runtime.GOMAXPROCS(0), cfg, results}
	raw, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("results: %w", err)
	}
	name := "results.json"
	if o.trace {
		name = "results-trace.json"
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return nil, fmt.Errorf("results dir: %w", err)
	}
	if err := os.WriteFile(filepath.Join(o.outDir, name), append(raw, '\n'), 0o644); err != nil {
		return nil, fmt.Errorf("results file: %w", err)
	}
	fmt.Fprintf(w, "wrote %s\n", filepath.Join(o.outDir, name))
	return results, nil
}

// parseChild reads a child's metric and checked lines back.
func parseChild(workload string, r io.Reader) (workloadResult, error) {
	res := workloadResult{Metrics: map[string]measured{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var (
			wl, name string
			m        measured
		)
		if _, err := fmt.Sscanf(sc.Text(), "metric %s %s %s %g q1 %g q3 %g n %d",
			&wl, &name, &m.Unit, &m.Median, &m.Q1, &m.Q3, &m.N); err == nil {
			res.Metrics[name] = m
			continue
		}
		// Not a metric line; the checked line carries the counts.
		_, _ = fmt.Sscanf(sc.Text(), "checked %s attempted %d failed %d", &wl, &res.Attempted, &res.Failed)
	}
	if err := sc.Err(); err != nil {
		return res, fmt.Errorf("workload %s output: %w", workload, err)
	}
	if len(res.Metrics) == 0 || res.Attempted == 0 {
		return res, fmt.Errorf("workload %s printed no result", workload)
	}
	return res, nil
}

// metricDef is one metric as BENCHMARK.json declares it.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// manifest is the part of BENCHMARK.json the benchmark itself reads.
type manifest struct {
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readManifest(path string) (*manifest, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("manifest: %w", err)
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("manifest %s: %w", path, err)
	}
	return &m, nil
}

// selfCheck runs the untraced suite twice on this binary and fails when
// any end-to-end median moved by more than the bound BENCHMARK.json
// gives it and by more than its absFloor. It prints each metric's spread
// so bounds are set from evidence.
func selfCheck(o opts) error {
	man, err := readManifest(o.manifest)
	if err != nil {
		return err
	}
	o.trace = false
	var sets [2]map[string]workloadResult
	for i := range sets {
		fmt.Printf("selfcheck set %d\n", i+1)
		if sets[i], err = runSuite(o, io.Discard); err != nil {
			return err
		}
	}
	var bad []string
	fmt.Printf("%-15s %-12s %14s %14s %8s %8s %8s %6s\n",
		"workload", "metric", "median 1", "median 2", "iqr 1", "iqr 2", "moved", "bound")
	for _, wl := range workloadNames {
		for _, d := range man.EndToEnd {
			a, b := sets[0][wl].Metrics[d.Name], sets[1][wl].Metrics[d.Name]
			if a.Median <= 0 || b.Median <= 0 {
				bad = append(bad, fmt.Sprintf("%s %s reads %v and %v", wl, d.Name, a.Median, b.Median))
				continue
			}
			moved := (b.Median - a.Median) / a.Median
			fmt.Printf("%-15s %-12s %14.6g %14.6g %7.2f%% %7.2f%% %+7.2f%% %5.0f%%\n", wl, d.Name,
				a.Median, b.Median, 100*(a.Q3-a.Q1)/a.Median, 100*(b.Q3-b.Q1)/b.Median, 100*moved, 100*d.Bound)
			if math.Abs(b.Median-a.Median) > max(d.Bound*a.Median, absFloor[d.Name]) {
				bad = append(bad, fmt.Sprintf("%s %s moved %+.1f%% (bound %.0f%%, floor %v %s)",
					wl, d.Name, 100*moved, 100*d.Bound, absFloor[d.Name], d.Unit))
			}
		}
		if f := sets[0][wl].Failed + sets[1][wl].Failed; f > 0 {
			bad = append(bad, fmt.Sprintf("%s: %d failed operations", wl, f))
		}
	}
	if len(bad) > 0 {
		return errors.New("selfcheck: " + strings.Join(bad, "; "))
	}
	fmt.Println("selfcheck: the two sets agree within every bound")
	return nil
}
