package engine

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sort"

	"apna/internal/pktgen"
	"apna/internal/provenance"
)

// SaturationConfig sizes a multi-AS throughput run: the parallel
// forwarding engine saturates a pktgen.World and reports pps, per-stage
// latency percentiles and drop verdicts. It is experiment E8
// (apna-bench -exp e8).
type SaturationConfig struct {
	// ASes is the number of autonomous systems in the ring (>= 2).
	ASes int `json:"ases"`
	// HostsPerAS is each AS's registered host population.
	HostsPerAS int `json:"hosts_per_as"`
	// FrameSize is the APNA frame size in bytes.
	FrameSize int `json:"frame_size"`
	// FramesPerLane is the pre-built traffic pool per lane (0: one per
	// host).
	FramesPerLane int `json:"frames_per_lane"`
	// BadFrac is the fraction of adversarial frames mixed in.
	BadFrac float64 `json:"bad_frac"`
	// Workers is the forwarding worker (core) count; <= 0 means
	// NumCPU.
	Workers int `json:"workers"`
	// BatchSize is frames per pipeline batch.
	BatchSize int `json:"batch_size"`
	// PacketsPerWorker is each worker's packet budget.
	PacketsPerWorker int `json:"packets_per_worker"`
	// Seed drives deterministic bad-frame placement.
	Seed int64 `json:"seed"`
}

// DefaultSaturation returns the standard saturation configuration.
func DefaultSaturation() SaturationConfig {
	return SaturationConfig{
		ASes:             4,
		HostsPerAS:       64,
		FrameSize:        256,
		FramesPerLane:    256,
		BadFrac:          0.05,
		Workers:          runtime.NumCPU(),
		BatchSize:        DefaultBatchSize,
		PacketsPerWorker: DefaultPacketsPerWorker,
		Seed:             1,
	}
}

// SaturationResult is the experiment output — the BENCH_e8.json shape.
type SaturationResult struct {
	Experiment string           `json:"experiment"`
	Provenance provenance.Block `json:"provenance"`
	Config     SaturationConfig `json:"config"`
	Report     *Report          `json:"report"`
	// OK is the run's gate verdict; Failures lists the breaches. A
	// saturation run that forwarded nothing, or dropped nothing while
	// adversarial frames were mixed in, measured a broken data plane —
	// its throughput number must not be allowed to look like a result.
	OK       bool     `json:"ok"`
	Failures []string `json:"failures,omitempty"`
}

// GateFailures checks a saturation report's sanity gates: traffic was
// actually delivered, throughput is nonzero, delivery accounting adds
// up, and — when the mix contains adversarial frames — the pipelines
// actually dropped some. cmd/apna-bench exits nonzero when any fail.
func GateFailures(cfg SaturationConfig, rep *Report) []string {
	var failures []string
	fail := func(format string, args ...any) {
		failures = append(failures, fmt.Sprintf(format, args...))
	}
	if rep.Delivered == 0 {
		fail("no frames delivered end-to-end")
	}
	if rep.PPS <= 0 {
		fail("zero measured throughput")
	}
	if rep.Delivered+rep.Dropped != rep.Packets {
		fail("delivery accounting mismatch: %d delivered + %d dropped != %d packets",
			rep.Delivered, rep.Dropped, rep.Packets)
	}
	if cfg.BadFrac > 0 && rep.Dropped == 0 {
		fail("no drops despite %.0f%% adversarial frames", cfg.BadFrac*100)
	}
	return failures
}

// Saturate builds the multi-AS world and drives the engine over it.
func Saturate(cfg SaturationConfig) (*SaturationResult, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.NumCPU()
	}
	w, err := pktgen.NewWorld(pktgen.WorldConfig{
		ASes:          cfg.ASes,
		HostsPerAS:    cfg.HostsPerAS,
		FrameSize:     cfg.FrameSize,
		FramesPerLane: cfg.FramesPerLane,
		BadFrac:       cfg.BadFrac,
		Seed:          cfg.Seed,
	})
	if err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	rep, err := Run(w, Config{
		Workers:          cfg.Workers,
		BatchSize:        cfg.BatchSize,
		PacketsPerWorker: cfg.PacketsPerWorker,
	})
	if err != nil {
		return nil, err
	}
	failures := GateFailures(cfg, rep)
	return &SaturationResult{
		Experiment: "e8",
		Provenance: provenance.Collect(cfg.Seed, cfg),
		Config:     cfg,
		Report:     rep,
		OK:         len(failures) == 0,
		Failures:   failures,
	}, nil
}

// JSON renders the result as the BENCH_e8.json artifact.
func (r *SaturationResult) JSON() ([]byte, error) { return json.MarshalIndent(r, "", "  ") }

// Fprint renders the human-readable table.
func (r *SaturationResult) Fprint(w io.Writer) {
	rep := r.Report
	fmt.Fprintf(w, "E8: parallel forwarding engine (multi-AS, %d workers)\n", rep.Workers)
	fmt.Fprintf(w, "  %-28s %d-AS ring, %d hosts/AS, %dB frames\n", "topology",
		r.Config.ASes, r.Config.HostsPerAS, rep.FrameSize)
	fmt.Fprintf(w, "  %-28s %d (batch %d)\n", "packets", rep.Packets, rep.BatchSize)
	fmt.Fprintf(w, "  %-28s %.1fms\n", "elapsed", float64(rep.Elapsed.Microseconds())/1e3)
	fmt.Fprintf(w, "  %-28s %.2f Mpps (%.2f Gbps delivered)\n", "throughput", rep.PPS/1e6, rep.GbpsDelivered)
	fmt.Fprintf(w, "  %-28s %d delivered / %d dropped\n", "outcome", rep.Delivered, rep.Dropped)
	fmt.Fprintf(w, "  per-stage latency (per packet):\n")
	for _, stage := range []string{"egress", "transit", "ingress"} {
		s := rep.Stages[stage]
		fmt.Fprintf(w, "    %-10s p50 %-8v p90 %-8v p99 %-8v max %v\n",
			stage, s.P50, s.P90, s.P99, s.Max)
	}
	if len(rep.Verdicts) > 0 {
		fmt.Fprintf(w, "  verdicts:\n")
		for _, name := range verdictOrder(rep.Verdicts) {
			fmt.Fprintf(w, "    %-22s %d\n", name, rep.Verdicts[name])
		}
	}
	if r.OK {
		fmt.Fprintf(w, "  gate: every saturation sanity gate held\n")
	} else {
		fmt.Fprintf(w, "  gate: FAILURES\n")
		for _, f := range r.Failures {
			fmt.Fprintf(w, "    %s\n", f)
		}
	}
	fmt.Fprintf(w, "  paper: one decryption, two table lookups, one MAC verification per\n")
	fmt.Fprintf(w, "  packet on dedicated cores (Section V-B); this engine is the Go analogue\n")
}

// verdictOrder lists verdict names with "forward" first, then drops in
// lexical order, for stable output.
func verdictOrder(m map[string]uint64) []string {
	names := make([]string, 0, len(m))
	if _, ok := m["forward"]; ok {
		names = append(names, "forward")
	}
	rest := make([]string, 0, len(m))
	for name := range m {
		if name != "forward" {
			rest = append(rest, name)
		}
	}
	sort.Strings(rest)
	return append(names, rest...)
}
