// Package engine is the parallel forwarding engine: it drives
// per-worker border-router pipelines over worker-sharded packet streams
// entirely outside the deterministic event simulator, which is how the
// repo measures packets-per-second the way the paper's DPDK prototype
// does with dedicated forwarding cores (Section V-B2: one pipeline per
// core, no shared mutable state on the hot path).
//
// Each worker owns one EgressPipeline and one IngressPipeline per lane
// of the pktgen.World it saturates, plus reusable batch scratch, so the
// steady-state loop performs zero heap allocations. The three measured
// stages mirror the paper's Figure 4 path:
//
//	egress  — source-AS checks (EphID decrypt, revocation, host_info,
//	          per-packet MAC)
//	transit — next-hop table lookup on the destination AID
//	ingress — destination-AS checks (EphID decrypt, revocation,
//	          host_info) and delivery accounting
package engine

import (
	"fmt"
	"slices"
	"time"

	"apna/internal/border"
	"apna/internal/pktgen"
	"apna/internal/quantile"
	"apna/internal/spare"
	"apna/internal/wire"
)

// Config tunes an engine run.
type Config struct {
	// Workers is the number of forwarding workers (cores); <= 0 means
	// one.
	Workers int
	// BatchSize is the number of frames processed per pipeline batch;
	// <= 0 means DefaultBatchSize.
	BatchSize int
	// PacketsPerWorker is each worker's packet budget; <= 0 means
	// DefaultPacketsPerWorker.
	PacketsPerWorker int
}

// Defaults for Config.
const (
	DefaultBatchSize        = 64
	DefaultPacketsPerWorker = 200_000

	// latencySamples bounds each worker's per-stage latency reservoir.
	latencySamples = 4096
)

// StageStats summarizes one stage's per-packet latency distribution
// (estimated per batch: stage time divided by batch size).
type StageStats struct {
	P50 time.Duration
	P99 time.Duration
}

// Report is the engine's measurement output.
type Report struct {
	Workers   int
	FrameSize int

	// Packets is the number of frames entering the egress stage.
	Packets uint64
	// PPS is end-to-end packets per second across all workers.
	PPS float64

	// Delivered counts frames that survived egress, transit and
	// ingress; Dropped counts the rest.
	Delivered uint64
	Dropped   uint64

	// Verdicts counts every pipeline outcome by name (forward counts
	// stage passes, so it exceeds Delivered).
	Verdicts map[string]uint64

	// Stages holds per-stage latency percentiles.
	Stages map[string]StageStats
}

// stage indices for the per-worker sample reservoirs.
const (
	stageEgress = iota
	stageTransit
	stageIngress
	stageCount
)

var stageNames = [stageCount]string{"egress", "transit", "ingress"}

// worker is one forwarding core's private state: pipelines, sharded
// frames and scratch buffers. Nothing in it is shared.
type worker struct {
	lanes []workerLane

	verdicts  [border.VerdictCount]uint64
	delivered uint64
	packets   uint64

	// samples[s] holds per-packet latency estimates in ns; sampleIdx
	// rotates the overwrite slot once a reservoir fills.
	samples   [stageCount][]float64
	sampleIdx [stageCount]int

	// scratch reused across batches.
	egressOut  []border.Verdict
	ingressIn  [][]byte
	ingressOut []border.IngressResult
}

type workerLane struct {
	egress  *border.EgressPipeline
	ingress *border.IngressPipeline
	src     *border.Router
	frames  [][]byte
	cursor  int
}

// Run saturates the world with the configured worker count and returns
// the measurement.
func Run(w *pktgen.World, cfg Config) (*Report, error) {
	if len(w.Lanes) == 0 {
		return nil, fmt.Errorf("engine: world has no lanes")
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = 1
	}
	batch := cfg.BatchSize
	if batch <= 0 {
		batch = DefaultBatchSize
	}
	budget := cfg.PacketsPerWorker
	if budget <= 0 {
		budget = DefaultPacketsPerWorker
	}

	// Build per-worker state: every worker serves every lane, striped
	// over the lane's frames (pktgen.Shard, the RSS analogue) so all
	// workers see all senders.
	ws := make([]*worker, workers)
	for i := range ws {
		wk := &worker{
			egressOut:  make([]border.Verdict, 0, batch),
			ingressIn:  make([][]byte, 0, batch),
			ingressOut: make([]border.IngressResult, 0, batch),
		}
		for s := range wk.samples {
			wk.samples[s] = make([]float64, 0, latencySamples)
		}
		ws[i] = wk
	}
	for _, lane := range w.Lanes {
		stripes := pktgen.Shard(lane.Frames, workers)
		for i, wk := range ws {
			if len(stripes[i]) == 0 {
				continue
			}
			wk.lanes = append(wk.lanes, workerLane{
				egress:  lane.Src.Router.NewEgressPipeline(),
				ingress: lane.Dst.Router.NewIngressPipeline(),
				src:     lane.Src.Router,
				frames:  stripes[i],
			})
		}
	}

	start := time.Now() //apna:wallclock
	spare.Workers(workers, func(i int) { ws[i].run(budget, batch) })()
	elapsed := time.Since(start) //apna:wallclock

	return aggregate(ws, w, workers, elapsed), nil
}

// run pumps batches until the packet budget is exhausted, cycling over
// the worker's lanes.
func (wk *worker) run(budget, batch int) {
	if len(wk.lanes) == 0 {
		return
	}
	laneIdx := 0
	for int(wk.packets) < budget {
		lane := &wk.lanes[laneIdx]
		laneIdx = (laneIdx + 1) % len(wk.lanes)

		n := batch
		if remaining := budget - int(wk.packets); n > remaining {
			n = remaining
		}
		frames := nextBatch(lane, n)
		wk.packets += uint64(len(frames))

		// Stage 1: egress verification at the source AS.
		t0 := time.Now() //apna:wallclock
		wk.egressOut = lane.egress.ProcessBatch(frames, wk.egressOut[:0])
		t1 := time.Now() //apna:wallclock
		wk.ingressIn = wk.ingressIn[:0]
		for i, v := range wk.egressOut {
			wk.verdicts[v]++
			if v == border.VerdictForward {
				wk.ingressIn = append(wk.ingressIn, frames[i])
			}
		}

		// Stage 2: transit route lookup toward the destination AID.
		t2 := time.Now() //apna:wallclock
		routed := wk.ingressIn[:0]
		for _, frame := range wk.ingressIn {
			if _, ok := lane.src.LookupRoute(wire.FrameDstAID(frame)); !ok {
				wk.verdicts[border.VerdictDropNoRoute]++
				continue
			}
			routed = append(routed, frame)
		}
		t3 := time.Now() //apna:wallclock

		// Stage 3: ingress verification at the destination AS.
		wk.ingressOut = lane.ingress.ProcessBatch(routed, wk.ingressOut[:0])
		t4 := time.Now() //apna:wallclock
		for _, res := range wk.ingressOut {
			wk.verdicts[res.Verdict]++
			if res.Verdict == border.VerdictForward {
				wk.delivered++
			}
		}

		wk.sample(stageEgress, t1.Sub(t0), len(frames))
		wk.sample(stageTransit, t3.Sub(t2), len(wk.ingressIn))
		wk.sample(stageIngress, t4.Sub(t3), len(routed))
	}
}

// nextBatch returns the next n frames of the lane's stripe, wrapping
// around (the stripe is a ring of pre-built traffic).
func nextBatch(lane *workerLane, n int) [][]byte {
	if lane.cursor+n <= len(lane.frames) {
		b := lane.frames[lane.cursor : lane.cursor+n]
		lane.cursor = (lane.cursor + n) % len(lane.frames)
		return b
	}
	b := lane.frames[lane.cursor:]
	lane.cursor = 0
	return b
}

// sample records a per-packet latency estimate for a stage; once the
// reservoir is full it overwrites a rotating slot, keeping a bounded,
// recency-weighted sample without allocation.
func (wk *worker) sample(stage int, d time.Duration, n int) {
	if n <= 0 {
		return
	}
	v := float64(d.Nanoseconds()) / float64(n)
	s := wk.samples[stage]
	if len(s) < cap(s) {
		wk.samples[stage] = append(s, v)
		return
	}
	s[wk.sampleIdx[stage]%len(s)] = v
	wk.sampleIdx[stage]++
}

// aggregate merges worker results into the report.
func aggregate(ws []*worker, w *pktgen.World, workers int, elapsed time.Duration) *Report {
	frameSize := 0
	if len(w.Lanes) > 0 && len(w.Lanes[0].Frames) > 0 {
		frameSize = len(w.Lanes[0].Frames[0])
	}
	r := &Report{
		Workers: workers, FrameSize: frameSize,
		Verdicts: make(map[string]uint64),
		Stages:   make(map[string]StageStats, stageCount),
	}
	var merged [stageCount][]float64
	for _, wk := range ws {
		r.Packets += wk.packets
		r.Delivered += wk.delivered
		for v, n := range wk.verdicts {
			if n > 0 {
				r.Verdicts[border.Verdict(v).String()] += n
			}
		}
		for s := range merged {
			merged[s] = append(merged[s], wk.samples[s]...)
		}
	}
	r.Dropped = r.Packets - r.Delivered
	if secs := elapsed.Seconds(); secs > 0 {
		r.PPS = float64(r.Packets) / secs
	}
	for s := range merged {
		r.Stages[stageNames[s]] = percentiles(merged[s])
	}
	return r
}

// percentiles computes the stage stats from per-packet ns samples.
func percentiles(samples []float64) StageStats {
	if len(samples) == 0 {
		return StageStats{}
	}
	slices.Sort(samples)
	at := func(q float64) time.Duration { return time.Duration(quantile.NearestRank(samples, q)) }
	return StageStats{P50: at(0.50), P99: at(0.99)}
}
