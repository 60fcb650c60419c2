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
	// HigherBetter marks throughput-style metrics (pps, events/sec).
	HigherBetter Direction = iota
	// LowerBetter marks cost-style metrics (p99 latency, RSS, pauses).
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

// Artifact is one parsed BENCH_*.json file: which experiment produced
// it, under what provenance, and the metric series it carries.
type Artifact struct {
	Experiment string
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

// artifactHead is the common prefix of both artifact shapes.
type artifactHead struct {
	Experiment string           `json:"experiment"`
	Provenance provenance.Block `json:"provenance"`
}

// ParseArtifact decodes one BENCH_*.json artifact of either of the two
// shapes (E8, E11), each a single JSON object. It refuses artifacts
// without a provenance config hash — without one the gate cannot prove
// two runs are comparable — and rejects trailing data and unknown
// experiments, so artifact-schema drift surfaces as a loud parse error
// instead of a silently empty metric series.
func ParseArtifact(data []byte) (*Artifact, error) {
	trimmed := bytes.TrimSpace(data)
	if len(trimmed) == 0 {
		return nil, fmt.Errorf("benchgate: empty artifact")
	}
	dec := json.NewDecoder(bytes.NewReader(trimmed))
	var first json.RawMessage
	if err := dec.Decode(&first); err != nil {
		return nil, fmt.Errorf("benchgate: artifact is not JSON: %w", err)
	}
	var head artifactHead
	if err := json.Unmarshal(first, &head); err != nil {
		return nil, fmt.Errorf("benchgate: artifact header: %w", err)
	}
	if head.Provenance.ConfigHash == "" {
		return nil, fmt.Errorf("benchgate: artifact %q carries no provenance config hash", head.Experiment)
	}

	var parse func(json.RawMessage, *Artifact) error
	switch head.Experiment {
	case "e8":
		parse = parseE8
	case "e11":
		parse = parseE11
	case "":
		return nil, fmt.Errorf("benchgate: artifact names no experiment")
	default:
		return nil, fmt.Errorf("benchgate: unknown experiment %q", head.Experiment)
	}
	if dec.More() {
		return nil, fmt.Errorf("benchgate: trailing data after single-object artifact")
	}
	art := &Artifact{Experiment: head.Experiment, Provenance: head.Provenance}
	return art, parse(first, art)
}

// add appends one single-valued metric.
func (a *Artifact) add(name string, dir Direction, unit string, v float64) {
	a.Metrics = append(a.Metrics, Metric{Name: name, Direction: dir, Unit: unit, Values: []float64{v}})
}

// ---- E8: engine saturation, single object ----

type e8Artifact struct {
	Report *struct {
		PPS           float64 `json:"pps"`
		GbpsDelivered float64 `json:"gbps_delivered"`
		Stages        map[string]struct {
			P50 float64 `json:"p50_ns"`
			P99 float64 `json:"p99_ns"`
		} `json:"stages"`
	} `json:"report"`
}

func parseE8(raw json.RawMessage, art *Artifact) error {
	var doc e8Artifact
	if err := json.Unmarshal(raw, &doc); err != nil {
		return fmt.Errorf("benchgate: e8 artifact: %w", err)
	}
	if doc.Report == nil {
		return fmt.Errorf("benchgate: e8 artifact carries no report")
	}
	art.add("pps", HigherBetter, "pps", doc.Report.PPS)
	art.add("gbps_delivered", HigherBetter, "Gbps", doc.Report.GbpsDelivered)
	stages := make([]string, 0, len(doc.Report.Stages))
	for name := range doc.Report.Stages {
		stages = append(stages, name)
	}
	sort.Strings(stages)
	for _, name := range stages {
		s := doc.Report.Stages[name]
		art.add(name+"_p50_ns", LowerBetter, "ns", s.P50)
		art.add(name+"_p99_ns", LowerBetter, "ns", s.P99)
	}
	return nil
}

// ---- E11: population ramp, single object with per-tier results ----

type e11Artifact struct {
	Tiers []struct {
		Hosts  int `json:"hosts"`
		Result *struct {
			EventsPerSec float64 `json:"events_per_sec"`
			IssueLatency struct {
				P99us float64 `json:"p99_us"`
			} `json:"issue_latency"`
			RenewLatency struct {
				P99us float64 `json:"p99_us"`
			} `json:"renew_latency"`
			GCMaxPauseUs float64 `json:"gc_max_pause_us"`
			DigestBytes  float64 `json:"digest_bytes"`
			PeakRSSBytes float64 `json:"peak_rss_bytes"`
		} `json:"result"`
	} `json:"tiers"`
}

func parseE11(raw json.RawMessage, art *Artifact) error {
	var doc e11Artifact
	if err := json.Unmarshal(raw, &doc); err != nil {
		return fmt.Errorf("benchgate: e11 artifact: %w", err)
	}
	if len(doc.Tiers) == 0 {
		return fmt.Errorf("benchgate: e11 artifact carries no tiers")
	}
	// Tiers are different population scales, not reruns, so each tier
	// contributes its own named metrics rather than samples of one.
	for _, tier := range doc.Tiers {
		if tier.Result == nil {
			return fmt.Errorf("benchgate: e11 tier %d carries no result", tier.Hosts)
		}
		suffix := fmt.Sprintf("@%d", tier.Hosts)
		r := tier.Result
		art.add("events_per_sec"+suffix, HigherBetter, "1/s", r.EventsPerSec)
		art.add("issue_p99_us"+suffix, LowerBetter, "µs", r.IssueLatency.P99us)
		art.add("renew_p99_us"+suffix, LowerBetter, "µs", r.RenewLatency.P99us)
		art.add("gc_max_pause_us"+suffix, LowerBetter, "µs", r.GCMaxPauseUs)
		art.add("digest_bytes"+suffix, LowerBetter, "B", r.DigestBytes)
		art.add("peak_rss_bytes"+suffix, LowerBetter, "B", r.PeakRSSBytes)
	}
	return nil
}
