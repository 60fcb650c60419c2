package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"slices"
	"strings"
	"testing"
)

// smokeScale shrinks every workload's operation counts for the smoke
// test.
const smokeScale = 100

func smokeOpts(t *testing.T, workload string, trace bool) opts {
	return opts{
		workload: workload, seed: 7, trace: trace, scale: smokeScale,
		outDir: t.TempDir(), manifest: "../BENCHMARK.json",
	}
}

// lastLine decodes the driver-facing result, the final line of a run's
// output.
func lastLine(t *testing.T, out []byte) (res struct {
	Correct   bool
	Attempted uint64
	Failed    uint64
	Metrics   map[string]struct {
		Value float64
		Unit  string
	}
}) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, lines[len(lines)-1])
	}
	return res
}

func names(defs []metricDef) []string {
	out := make([]string, len(defs))
	for i, d := range defs {
		out[i] = d.Name
	}
	slices.Sort(out)
	return out
}

// TestSmoke runs every workload small, untraced and traced, and holds
// the output to its declarations: no failed operation; every end-to-end
// metric, allocs_per_op, peak_rss_mb and error_rate measured by every
// workload; every other whole-workload and per-layer metric measured by
// at least one; the result line holding BENCHMARK.json's names alone.
// runOne itself refuses a metric declared nowhere.
func TestSmoke(t *testing.T) {
	man, err := readManifest("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, wl := range workloadNames {
		var buf bytes.Buffer
		measured, err := runOne(smokeOpts(t, wl, false), &buf)
		if err != nil {
			t.Fatalf("%s: %v", wl, err)
		}
		for _, name := range append(names(man.EndToEnd), "allocs_per_op", "peak_rss_mb", "error_rate") {
			if !slices.Contains(measured, name) {
				t.Errorf("%s did not measure %s", wl, name)
			}
		}
		for _, name := range measured {
			seen[name] = true
		}
		if !bytes.Contains(buf.Bytes(), []byte("metric "+wl+" error_rate ratio 0 ")) {
			t.Errorf("%s: error_rate is not 0:\n%s", wl, buf.Bytes())
		}
		res := lastLine(t, buf.Bytes())
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: correct %v, %d of %d operations failed", wl, res.Correct, res.Failed, res.Attempted)
		}
		if len(res.Metrics) != len(man.EndToEnd) {
			t.Errorf("%s: result line holds %d metrics, BENCHMARK.json's end_to_end has %d", wl, len(res.Metrics), len(man.EndToEnd))
		}
		for _, d := range man.EndToEnd {
			if m := res.Metrics[d.Name]; m.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s reads %v", wl, d.Name, m.Value)
			}
		}

		buf.Reset()
		o := smokeOpts(t, wl, true)
		if measured, err = runOne(o, &buf); err != nil {
			t.Fatalf("%s traced: %v", wl, err)
		}
		for _, name := range measured {
			seen[name] = true
		}
		res = lastLine(t, buf.Bytes())
		if res.Failed != 0 {
			t.Errorf("%s traced: %d of %d operations failed", wl, res.Failed, res.Attempted)
		}
		if len(res.Metrics) != len(man.PerLayer) {
			t.Errorf("%s traced printed %d metrics, BENCHMARK.json's per_layer has %d", wl, len(res.Metrics), len(man.PerLayer))
		}
		checkTrace(t, o.tracePath())
	}
	for _, d := range append(man.PerLayer, wholeWorkload...) {
		if !seen[d.Name] {
			t.Errorf("metric %s is measured by no workload", d.Name)
		}
	}
}

// checkTrace requires a span file of well-formed spans in which every
// child lies inside a parent that is in the file too. (A span is written
// when it ends, so a parent's line follows its children's.)
func checkTrace(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	spans := map[int]span{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if s.End < s.Start || s.Name == "" {
			t.Fatalf("%s: malformed span %+v", path, s)
		}
		spans[s.ID] = s
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(spans) == 0 {
		t.Fatalf("%s holds no span", path)
	}
	for _, s := range spans {
		if s.Parent == 0 {
			continue
		}
		if p, ok := spans[s.Parent]; !ok || s.Start < p.Start || s.End > p.End {
			t.Fatalf("%s: span %+v is not inside a recorded parent (%+v, found %v)", path, s, p, ok)
		}
	}
}

// TestTraceFileHasNoOrphans cuts the file's limit inside a batch: the
// children recorded before the cut must not be written without their
// parent.
func TestTraceFileHasNoOrphans(t *testing.T) {
	rec := newRecorder()
	rec.retain(4) // the first batch and one child of the second
	for req := uint64(0); req < 2; req++ {
		root := rec.begin(0, req, "root")
		rec.layer(root.id, req, "child", 1, func() {})
		rec.layer(root.id, req, "child", 1, func() {})
		rec.end(root, 2)
	}
	path := t.TempDir() + "/trace.jsonl"
	if err := rec.write(path); err != nil {
		t.Fatal(err)
	}
	checkTrace(t, path)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(raw, []byte("\n")); n != 3 {
		t.Errorf("file holds %d spans, want the first batch's 3", n)
	}
}

// TestFoldTraceArg: the driver's `--trace 0|1` and the issue's bare
// -trace both parse as one boolean flag.
func TestFoldTraceArg(t *testing.T) {
	for _, c := range []struct{ in, want string }{
		{"--workload fwd_small --seed 3 --seconds 15 --trace 0", "--workload fwd_small --seed 3 --seconds 15 -trace=0"},
		{"--trace 1 --seed 3", "-trace=1 --seed 3"},
		{"-trace", "-trace"},
		{"-trace -seed 1", "-trace -seed 1"},
		{"-trace=true", "-trace=true"},
	} {
		if got := strings.Join(foldTraceArg(strings.Fields(c.in)), " "); got != c.want {
			t.Errorf("foldTraceArg(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

// TestFwdBudgetsAreWholeCycles keeps the verdict check exact: a
// repetition must walk every lane's frames a whole number of times, in
// whole batches, at full size and at smoke size.
func TestFwdBudgetsAreWholeCycles(t *testing.T) {
	for name, full := range fwdSpecs {
		for _, s := range []fwdSpec{full, full.scaled(smokeScale)} {
			if s.FramesPerLane%batchSize != 0 {
				t.Errorf("%s: %d frames per lane is not a multiple of the %d-frame batch", name, s.FramesPerLane, batchSize)
			}
			if per := s.ASes * s.FramesPerLane; s.packets() == 0 || s.packets()%per != 0 {
				t.Errorf("%s: budget %d is not a multiple of lanes × frames-per-lane = %d", name, s.packets(), per)
			}
		}
	}
}

// TestManifestWorkloads pins BENCHMARK.json's workload list to the
// suite's.
func TestManifestWorkloads(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Workloads []struct{ Name string }
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, w := range m.Workloads {
		got = append(got, w.Name)
	}
	if !slices.Equal(got, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, suite runs %v", got, workloadNames)
	}
}

func TestQuartiles(t *testing.T) {
	q1, med, q3 := quartiles([]float64{4, 1, 3, 2, 5})
	if q1 != 2 || med != 3 || q3 != 4 {
		t.Errorf("quartiles of 1..5 = %v %v %v", q1, med, q3)
	}
	if q1, med, q3 = quartiles([]float64{7}); q1 != 7 || med != 7 || q3 != 7 {
		t.Errorf("quartiles of one value = %v %v %v", q1, med, q3)
	}
}
