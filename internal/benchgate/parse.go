package benchgate

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"

	"apna/internal/provenance"
)

// Direction says which way a metric is supposed to move.
type Direction int8

const (
	// HigherBetter marks throughput-style metrics (ops_per_s).
	HigherBetter Direction = iota
	// LowerBetter marks cost-style metrics (setup_s).
	LowerBetter
)

// String renders the direction for reports.
func (d Direction) String() string {
	if d == LowerBetter {
		return "lower-better"
	}
	return "higher-better"
}

// Metric is one named measurement extracted from an artifact. An
// artifact contributes one value per metric; reruns of the same
// artifact merge their Values before the gate runs.
type Metric struct {
	Name      string
	Direction Direction
	Unit      string
	Values    []float64
}

// Artifact is one parsed results file: the provenance it was run
// under and the metric series it carries.
type Artifact struct {
	Provenance provenance.Block
	Metrics    []Metric
}

// Metric returns the named metric, or nil.
func (a *Artifact) Metric(name string) *Metric {
	for i := range a.Metrics {
		if a.Metrics[i].Name == name {
			return &a.Metrics[i]
		}
	}
	return nil
}

// endToEnd is BENCHMARK.json's end_to_end list — the metrics the
// benchmark's own comparison reads — each with the direction its
// "better" names.
var endToEnd = []struct {
	name string
	dir  Direction
}{
	{"ops_per_s", HigherBetter},
	{"setup_s", LowerBetter},
}

type benchResults struct {
	Provenance provenance.Block `json:"provenance"`
	Workloads  map[string]struct {
		Failed  uint64 `json:"failed"`
		Metrics map[string]struct {
			Unit   string  `json:"unit"`
			Median float64 `json:"median"`
		} `json:"metrics"`
	} `json:"workloads"`
}

// ParseArtifact decodes the benchmark's results file (go run ./bench,
// bench/out/results.json), a single JSON object, and gives every
// workload one metric per end-to-end metric, "<workload>/<metric>",
// valued at the run's median. It refuses a file without a provenance
// config hash — without one the gate cannot prove two runs are
// comparable — and rejects trailing data and a file with no workloads
// (any other artifact shape), so schema drift surfaces as a loud parse
// error instead of a silently empty metric series. A run that failed
// an operation measured broken code, so its file is refused too.
func ParseArtifact(data []byte) (*Artifact, error) {
	trimmed := bytes.TrimSpace(data)
	if len(trimmed) == 0 {
		return nil, fmt.Errorf("benchgate: empty artifact")
	}
	dec := json.NewDecoder(bytes.NewReader(trimmed))
	var doc benchResults
	if err := dec.Decode(&doc); err != nil {
		return nil, fmt.Errorf("benchgate: artifact is not a JSON results file: %w", err)
	}
	if doc.Provenance.ConfigHash == "" {
		return nil, fmt.Errorf("benchgate: artifact carries no provenance config hash")
	}
	if dec.More() {
		return nil, fmt.Errorf("benchgate: trailing data after single-object artifact")
	}
	if len(doc.Workloads) == 0 {
		return nil, fmt.Errorf("benchgate: artifact carries no workloads")
	}
	names := make([]string, 0, len(doc.Workloads))
	for name := range doc.Workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	art := &Artifact{Provenance: doc.Provenance}
	for _, name := range names {
		wl := doc.Workloads[name]
		if wl.Failed > 0 {
			return nil, fmt.Errorf("benchgate: workload %s failed %d operations", name, wl.Failed)
		}
		for _, m := range endToEnd {
			v, ok := wl.Metrics[m.name]
			if !ok {
				return nil, fmt.Errorf("benchgate: workload %s carries no %s", name, m.name)
			}
			art.Metrics = append(art.Metrics, Metric{Name: name + "/" + m.name, Direction: m.dir, Unit: v.Unit, Values: []float64{v.Median}})
		}
	}
	return art, nil
}
