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

// Metric is one named measurement extracted from an artifact. Values
// holds every sample the artifact carries for it: single-object
// artifacts (E8, E11, E12) contribute one value, the JSON-lines E9
// sweep contributes one value per seed verdict. Reruns of the same
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

// MetricNames lists the artifact's metric names in extraction order.
func (a *Artifact) MetricNames() []string {
	names := make([]string, len(a.Metrics))
	for i := range a.Metrics {
		names[i] = a.Metrics[i].Name
	}
	return names
}

// artifactHead is the common prefix of every artifact shape: the
// single-object artifacts carry it inline, the JSON-lines artifact as
// its header line.
type artifactHead struct {
	Experiment string           `json:"experiment"`
	Provenance provenance.Block `json:"provenance"`
}

// ParseArtifact decodes one BENCH_*.json artifact of any of the four
// shapes (E8, E9, E11, E12). It refuses artifacts without a provenance config hash —
// without one the gate cannot prove two runs are comparable — and
// rejects trailing garbage, truncated JSON-lines, and unknown
// experiments, so artifact-schema drift surfaces as a loud parse error
// instead of a silently empty metric series.
func ParseArtifact(data []byte) (*Artifact, error) {
	trimmed := bytes.TrimSpace(data)
	if len(trimmed) == 0 {
		return nil, fmt.Errorf("benchgate: empty artifact")
	}
	dec := json.NewDecoder(bytes.NewReader(trimmed))
	dec.UseNumber()
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

	art := &Artifact{Experiment: head.Experiment, Provenance: head.Provenance}
	switch head.Experiment {
	case "e8":
		if err := requireEnd(dec); err != nil {
			return nil, err
		}
		return art, parseE8(first, art)
	case "e11":
		if err := requireEnd(dec); err != nil {
			return nil, err
		}
		return art, parseE11(first, art)
	case "e12":
		if err := requireEnd(dec); err != nil {
			return nil, err
		}
		return art, parseE12(first, art)
	case "e9":
		lines, err := decodeLines(dec)
		if err != nil {
			return nil, err
		}
		return art, parseE9(lines, art)
	case "":
		return nil, fmt.Errorf("benchgate: artifact names no experiment")
	default:
		return nil, fmt.Errorf("benchgate: unknown experiment %q", head.Experiment)
	}
}

// requireEnd rejects trailing JSON values after a single-object
// artifact.
func requireEnd(dec *json.Decoder) error {
	if dec.More() {
		return fmt.Errorf("benchgate: trailing data after single-object artifact")
	}
	return nil
}

// decodeLines reads the verdict lines that follow a JSON-lines header.
func decodeLines(dec *json.Decoder) ([]json.RawMessage, error) {
	var lines []json.RawMessage
	for dec.More() {
		var line json.RawMessage
		if err := dec.Decode(&line); err != nil {
			return nil, fmt.Errorf("benchgate: verdict line %d: %w", len(lines)+1, err)
		}
		lines = append(lines, line)
	}
	if len(lines) == 0 {
		return nil, fmt.Errorf("benchgate: JSON-lines artifact has a header but no verdict lines")
	}
	return lines, nil
}

// add appends one single-valued metric.
func (a *Artifact) add(name string, dir Direction, unit string, v float64) {
	a.Metrics = append(a.Metrics, Metric{Name: name, Direction: dir, Unit: unit, Values: []float64{v}})
}

// addSeries appends one metric with a sample per sweep line.
func (a *Artifact) addSeries(name string, dir Direction, unit string, vs []float64) {
	a.Metrics = append(a.Metrics, Metric{Name: name, Direction: dir, Unit: unit, Values: vs})
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

// ---- E9: lifecycle endurance, JSON-lines (one verdict per seed) ----

type e9Verdict struct {
	Seed           json.Number `json:"seed"`
	RenewalsPerSec float64     `json:"renewals_per_virtual_sec"`
	Renewals       float64     `json:"renewals"`
	Delivered      float64     `json:"delivered"`
}

func parseE9(lines []json.RawMessage, art *Artifact) error {
	var perSec, renewals, delivered []float64
	for i, raw := range lines {
		var v e9Verdict
		if err := json.Unmarshal(raw, &v); err != nil {
			return fmt.Errorf("benchgate: e9 verdict line %d: %w", i+1, err)
		}
		if v.Seed == "" {
			return fmt.Errorf("benchgate: e9 verdict line %d carries no seed", i+1)
		}
		perSec = append(perSec, v.RenewalsPerSec)
		renewals = append(renewals, v.Renewals)
		delivered = append(delivered, v.Delivered)
	}
	art.addSeries("renewals_per_virtual_sec", HigherBetter, "1/s", perSec)
	art.addSeries("renewals", HigherBetter, "count", renewals)
	art.addSeries("delivered", HigherBetter, "count", delivered)
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

// ---- E12: digest dissemination sweep, single object with phases ----

type e12Artifact struct {
	Relay *struct {
		MsgsPerIntervalMax    float64 `json:"msgs_per_interval_max"`
		DeltaBytesPerInterval float64 `json:"delta_bytes_per_interval"`
		SnapshotSyncBytes     float64 `json:"snapshot_sync_bytes"`
		LatencyMaxMs          float64 `json:"latency_max_ms"`
	} `json:"relay"`
	Equivalence *struct {
		MeshTicksToConverge  float64 `json:"mesh_ticks_to_converge"`
		RelayTicksToConverge float64 `json:"relay_ticks_to_converge"`
	} `json:"equivalence"`
}

func parseE12(raw json.RawMessage, art *Artifact) error {
	var doc e12Artifact
	if err := json.Unmarshal(raw, &doc); err != nil {
		return fmt.Errorf("benchgate: e12 artifact: %w", err)
	}
	if doc.Relay == nil || doc.Equivalence == nil {
		return fmt.Errorf("benchgate: e12 artifact carries no relay/equivalence phases")
	}
	art.add("relay_msgs_per_interval", LowerBetter, "msgs", doc.Relay.MsgsPerIntervalMax)
	art.add("relay_delta_bytes_per_interval", LowerBetter, "B", doc.Relay.DeltaBytesPerInterval)
	art.add("relay_snapshot_sync_bytes", LowerBetter, "B", doc.Relay.SnapshotSyncBytes)
	art.add("relay_latency_max_ms", LowerBetter, "ms", doc.Relay.LatencyMaxMs)
	art.add("equiv_mesh_ticks_to_converge", LowerBetter, "ticks", doc.Equivalence.MeshTicksToConverge)
	art.add("equiv_relay_ticks_to_converge", LowerBetter, "ticks", doc.Equivalence.RelayTicksToConverge)
	return nil
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
