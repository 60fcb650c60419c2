package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"apna/internal/baseline"
	"apna/internal/border"
	"apna/internal/crypto"
	"apna/internal/engine"
	"apna/internal/ephid"
	"apna/internal/pktgen"
	"apna/internal/wire"
)

// batchSize is the engine's pipeline batch and the trace driver's.
const batchSize = 64

// fwdSpec fixes one forwarding workload. The packet budget is stated in
// cycles over every lane's frames, so it is a multiple of lanes ×
// frames-per-lane by construction and the verdict check is exact.
type fwdSpec struct {
	ASes          int     `json:"ases"`
	HostsPerAS    int     `json:"hosts_per_as"`
	FrameSize     int     `json:"frame_size"`
	FramesPerLane int     `json:"frames_per_lane"`
	BadFrac       float64 `json:"bad_frac"`
	// ExtraRevoked random entries go into every router's local and
	// remote revocation list on top of what the bad frames install.
	ExtraRevoked int `json:"extra_revoked"`
	// Cycles over all frames make one engine.Run, the timed slice;
	// Slices of them make one repetition and a run has Reps (see
	// timedReps).
	Cycles int `json:"cycles"`
	Slices int `json:"slices"`
	Reps   int `json:"reps"`
	// Setups is how many times a run builds the world for setup_s.
	Setups int `json:"setups"`
	// Ledger names the egress child spans whose times should add up to
	// border.egress_batch on this workload.
	Ledger []string `json:"-"`
}

// hotLedger is what the egress pipeline does per packet when every
// EphID open and key schedule hits its cache; churnLedger adds the
// EphID decrypt the 4096-entry open cache no longer absorbs.
var (
	hotLedger = []string{"egress/wire.valid_frame", "egress/border.revocation_contains",
		"egress/hostdb.mac_key", "egress/wire.mac_verify"}
	churnLedger = append([]string{"egress/ephid.open"}, hotLedger...)
)

var fwdSpecs = map[string]fwdSpec{
	"fwd_small": {ASes: 4, HostsPerAS: 64, FrameSize: 128, FramesPerLane: 256,
		Cycles: 100, Slices: 40, Reps: 7, Setups: 64, Ledger: hotLedger},
	"fwd_large": {ASes: 4, HostsPerAS: 64, FrameSize: 1518, FramesPerLane: 256,
		Cycles: 16, Slices: 32, Reps: 7, Setups: 64, Ledger: hotLedger},
	"fwd_churn": {ASes: 4, HostsPerAS: 16384, FrameSize: 256, FramesPerLane: 16384,
		BadFrac: 0.05, ExtraRevoked: 16384, Cycles: 8, Slices: 2, Reps: 7, Setups: 3, Ledger: churnLedger},
}

// packets is one engine.Run's budget.
func (s fwdSpec) packets() int { return s.Cycles * s.ASes * s.FramesPerLane }

// scaled shrinks the workload by div for the smoke test, keeping the
// frames-per-lane a multiple of the batch.
func (s fwdSpec) scaled(div int) fwdSpec {
	if div <= 1 {
		return s
	}
	s.Cycles = max(1, s.Cycles/div)
	s.Slices, s.Reps, s.Setups = 1, 1, 1
	if s.HostsPerAS > 1024 {
		s.HostsPerAS = max(batchSize, s.HostsPerAS/div/batchSize*batchSize)
		s.FramesPerLane = s.HostsPerAS
		s.ExtraRevoked /= div
	}
	return s
}

// fwdWorld is a built workload: the pktgen world plus what every frame
// must come to, worked out once on the uncached slow path.
type fwdWorld struct {
	spec fwdSpec
	w    *pktgen.World
	// perCycle counts verdicts the way the engine does (forward once
	// per stage passed) for one pass over every lane's frames.
	perCycle  [border.VerdictCount]uint64
	delivered uint64 // per cycle
}

func buildFwd(spec fwdSpec, seed int64) (*fwdWorld, error) {
	w, err := pktgen.NewWorld(pktgen.WorldConfig{
		ASes: spec.ASes, HostsPerAS: spec.HostsPerAS, FrameSize: spec.FrameSize,
		FramesPerLane: spec.FramesPerLane, BadFrac: spec.BadFrac, Seed: seed,
	})
	if err != nil {
		return nil, fmt.Errorf("world: %w", err)
	}
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	exp := uint32(w.Now) + 3600
	for i, f := range w.ASes {
		origin := w.ASes[(i+len(w.ASes)-1)%len(w.ASes)].AID
		for n := 0; n < spec.ExtraRevoked; n++ {
			var e ephid.EphID
			rng.Read(e[:])
			f.Router.Revoked().Insert(e, exp)
			rng.Read(e[:])
			f.Router.ApplyRemote(e, origin, exp)
		}
	}
	fw := &fwdWorld{spec: spec, w: w}
	for _, lane := range w.Lanes {
		for _, frame := range lane.Frames {
			v, passedEgress := classify(lane, frame)
			fw.perCycle[v]++
			if passedEgress {
				fw.perCycle[border.VerdictForward]++
			}
			if v == border.VerdictForward {
				fw.delivered++
			}
		}
	}
	return fw, nil
}

// classify is the reference: one frame through the router's uncached
// single-packet checks — egress at the source AS, route, ingress at the
// destination AS. passedEgress says the frame got past the source AS,
// where the engine counts a first forward.
func classify(lane *pktgen.Lane, frame []byte) (v border.Verdict, passedEgress bool) {
	if !wire.ValidFrame(frame) {
		return border.VerdictDropMalformed, false
	}
	if v, _ := lane.Src.Router.EgressVerify(frame); v != border.VerdictForward {
		return v, false
	}
	if _, ok := lane.Src.Router.LookupRoute(wire.FrameDstAID(frame)); !ok {
		return border.VerdictDropNoRoute, true
	}
	v, _ = lane.Dst.Router.IngressVerify(frame)
	return v, true
}

// check compares an engine report with the slow-path histogram and
// returns how many packets differ.
func (fw *fwdWorld) check(rep *engine.Report, cycles int) uint64 {
	var bad uint64
	diff := func(got, want uint64) {
		if got > want {
			bad += got - want
		} else {
			bad += want - got
		}
	}
	c := uint64(cycles)
	for v := border.Verdict(0); v < border.VerdictCount; v++ {
		diff(rep.Verdicts[v.String()], fw.perCycle[v]*c)
	}
	diff(rep.Delivered, fw.delivered*c)
	diff(rep.Dropped, rep.Packets-fw.delivered*c)
	return min(bad, rep.Packets)
}

// run is one engine repetition of the given cycle count on one worker.
func (fw *fwdWorld) run(cycles, workers int) (*engine.Report, error) {
	rep, err := engine.Run(fw.w, engine.Config{
		Workers: workers, BatchSize: batchSize,
		PacketsPerWorker: cycles * fw.spec.ASes * fw.spec.FramesPerLane / workers,
	})
	if err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	return rep, nil
}

// goodputGbps is the payload bit rate of delivered frames at pps packets
// per second: the share of a cycle's frames that is delivered is exact.
func (fw *fwdWorld) goodputGbps(pps float64) float64 {
	delivered := float64(fw.delivered) / float64(fw.spec.ASes*fw.spec.FramesPerLane)
	return pps * delivered * float64(fw.spec.FrameSize-wire.HeaderSize) * 8 / 1e9
}

// runFwd measures one forwarding workload.
func runFwd(spec fwdSpec, o opts) (*outcome, error) {
	out := &outcome{m: metrics{}}
	setups := spec.Setups
	if o.trace {
		setups = 1
	}
	var fw *fwdWorld
	for i := 0; i < setups; i++ {
		fw = nil
		runtime.GC() // the previous build is garbage; keep it out of this one's way
		t0 := now()
		var err error
		if fw, err = buildFwd(spec, o.seed); err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		out.m.add("setup_s", "s", since(t0).Seconds())
	}
	if _, err := fw.run(max(1, spec.Cycles/4), 1); err != nil { // warm-up, discarded
		return nil, err
	}
	rep := func(cycles int) (*engine.Report, error) {
		r, err := fw.run(cycles, 1)
		if err != nil {
			return nil, err
		}
		out.attempted += r.Packets
		out.failed += fw.check(r, cycles)
		return r, nil
	}
	if !o.trace {
		rates, err := out.measure(o, spec.Reps, spec.Slices, func() (slice, error) {
			m0 := mallocs()
			r, err := rep(spec.Cycles)
			if err != nil {
				return slice{}, err
			}
			return slice{rate: r.PPS, ops: r.Packets, mallocs: mallocs() - m0}, nil
		})
		for _, pps := range rates {
			out.m.add("goodput_gbps", "Gbit/s", fw.goodputGbps(pps))
		}
		return out, err
	}

	// Traced run: one untraced engine.Run over a whole repetition's
	// packets for the figures the engine itself reports, then the
	// benchmark's own batch-by-batch driver with and without spans.
	cycles := spec.Cycles * spec.Slices
	runtime.GC()
	r, err := rep(cycles)
	if err != nil {
		return nil, err
	}
	for _, v := range []border.Verdict{border.VerdictForward, border.VerdictDropBadEphID,
		border.VerdictDropExpired, border.VerdictDropRevoked, border.VerdictDropRevokedRemote,
		border.VerdictDropBadMAC} {
		out.m.add("border.verdict."+v.String(), "count", float64(r.Verdicts[v.String()]))
	}
	for _, st := range []struct{ stage, p50, p99 string }{
		{"egress", "engine.stage_egress_p50_ns", "engine.stage_egress_p99_ns"},
		{"transit", "engine.stage_transit_p50_ns", ""},
		{"ingress", "engine.stage_ingress_p50_ns", "engine.stage_ingress_p99_ns"},
	} {
		out.m.add(st.p50, "ns", float64(r.Stages[st.stage].P50))
		if st.p99 != "" {
			out.m.add(st.p99, "ns", float64(r.Stages[st.stage].P99))
		}
	}
	scaling := 1.0
	if n := runtime.NumCPU(); n > 1 {
		// Best of three: the first run on an idle second CPU is slow.
		best := 0.0
		for i := 0; i < 3; i++ {
			rn, err := fw.run(max(n, cycles/n*n), n)
			if err != nil {
				return nil, err
			}
			best = max(best, rn.PPS)
		}
		scaling = best / (float64(n) * r.PPS)
	}
	out.m.add("engine.scaling_efficiency", "ratio", scaling)

	// The benchmark's own driver, three times over: the pipelines alone
	// over a repetition's packets without and with spans (identical work,
	// so their ratio is what recording costs), and layer by layer over
	// fewer batches. The three take turns in chunks of tens of
	// milliseconds, so that a slow spell of the machine weighs on all of
	// them and the ratios between their figures hold.
	batches := cycles * spec.packets() / spec.Cycles / batchSize
	fw.newMirror().run(nil, batches/4, false) // warm-up, discarded
	plain, traced, steps := fw.newMirror(), fw.newMirror(), fw.newMirror()
	rec := newRecorder()
	pipeChunk := max(1, batches/mirrorChunks)
	stepChunk := max(1, min(stepBatches, batches)/mirrorChunks)
	for c := 0; c < mirrorChunks; c++ {
		plain.run(nil, pipeChunk, false)
		rec.retain(pipelineSpansKept / mirrorChunks)
		traced.run(rec, pipeChunk, false)
		rec.retain((maxKeptSpans - pipelineSpansKept) / mirrorChunks)
		steps.run(rec, stepChunk, true)
	}
	out.attempted += plain.packets + traced.packets + steps.packets
	out.failed += steps.mismatches
	out.m.add("trace.overhead_frac", "ratio", 1-plain.elapsed.Seconds()/traced.elapsed.Seconds())

	cmacLayers(rec)
	out.m.addLayers(rec,
		lm("wire.valid_frame_ns", "ns", 1, "egress/wire.valid_frame"),
		lm("wire.mac_verify_ns", "ns", 1, "egress/wire.mac_verify"),
		lm("wire.mac_new_ns", "ns", 1, "egress/wire.mac_new"),
		lm("ephid.open_ns", "ns", 1, "egress/ephid.open", "ingress/ephid.open"),
		lm("hostdb.mac_key_ns", "ns", 1, "egress/hostdb.mac_key"),
		lm("hostdb.valid_ns", "ns", 1, "ingress/hostdb.valid"),
		lm("border.revocation_contains_ns", "ns", 1, "egress/border.revocation_contains", "ingress/border.revocation_contains"),
		lm("border.remote_matches_ns", "ns", 1, "ingress/border.remote_matches"),
		lm("border.lookup_route_ns", "ns", 1, "transit/border.lookup_route"),
		lm("border.egress_batch_ns", "ns", 1, "border.egress_batch"),
		lm("border.ingress_batch_ns", "ns", 1, "border.ingress_batch"),
		lm("baseline.forward_ns", "ns", 1, "baseline.forward"),
		lm("crypto.cmac_fixed_ns", "ns", 1, "crypto.cmac_64"),
	)
	out.m.add("crypto.cmac_ns_per_byte", "ns/B",
		(rec.perOp("crypto.cmac_1518")-rec.perOp("crypto.cmac_64"))/(1518-64))
	var ledger float64
	for _, layer := range spec.Ledger {
		ledger += rec.perOp(layer)
	}
	out.m.add("border.egress_ledger_ratio", "ratio", ledger/rec.perOp("border.egress_batch"))

	engineNs := 1e9 / r.PPS
	pipelineNs := rec.net("border.egress_batch", "engine.transit", "border.ingress_batch") / float64(traced.packets)
	out.m.add("engine.harness_overhead_frac", "ratio", 1-pipelineNs/engineNs)
	out.m.add("engine.cost_over_baseline_x", "x", engineNs/rec.perOp("baseline.forward"))
	return out, rec.write(o.tracePath())
}

// stepBatches is how many batches the layer-by-layer driver walks: two
// passes over fwd_churn's frames.
const stepBatches = 2048

// mirrorChunks is how many turns each driver of the traced pass takes.
const mirrorChunks = 32

// pipelineSpansKept is the pipelines-only driver's share of the trace
// file; the layer-by-layer driver, with four times the spans per batch,
// gets the rest.
const pipelineSpansKept = 4096

// cmacLayers times the raw AES-CMAC at a header-sized and a full-MTU
// message, which separates its per-message from its per-byte cost.
func cmacLayers(rec *recorder) {
	c, err := crypto.NewCMAC(make([]byte, crypto.SymKeySize))
	if err != nil {
		panic(err) // fixed-size zero key: cannot fail
	}
	var tag [16]byte
	for _, size := range []int{64, 1518} {
		msg := make([]byte, size)
		rec.calls(fmt.Sprintf("crypto.cmac_%d", size), 64*batchSize, func(int) { c.Sum(tag[:0], msg) })
	}
}

// pending marks a frame no layer has ruled on yet.
const pending = border.Verdict(0xff)

// mirrorLane is one lane's pipelines and ring position in a driver pass.
type mirrorLane struct {
	lane    *pktgen.Lane
	egress  *border.EgressPipeline
	ingress *border.IngressPipeline
	base    *baseline.Forwarder
	cursor  int
}

// mirrorScratch is the per-batch state, reused across batches.
type mirrorScratch struct {
	step   [batchSize]border.Verdict // the layer-by-layer verdicts
	pl     [batchSize]ephid.Payload
	keys   [batchSize][crypto.SymKeySize]byte
	pms    [batchSize]*wire.PacketMAC
	egOut  []border.Verdict
	routed [][]byte
	inOut  []border.IngressResult
}

// mirror is the benchmark's own single-threaded forwarding driver. It
// walks the lanes batch by batch the way engine.worker.run does and
// hands each batch to the real pipelines. Its pipelines and ring
// positions last across calls of run, so several drivers can take turns.
type mirror struct {
	fw      *fwdWorld
	lanes   []mirrorLane
	sc      mirrorScratch
	batches int // walked so far; the next batch's request id

	packets    uint64
	mismatches uint64
	elapsed    time.Duration
}

func (fw *fwdWorld) newMirror() *mirror {
	m := &mirror{fw: fw, lanes: make([]mirrorLane, len(fw.w.Lanes))}
	for i, l := range fw.w.Lanes {
		m.lanes[i] = mirrorLane{
			lane: l, egress: l.Src.Router.NewEgressPipeline(), ingress: l.Dst.Router.NewIngressPipeline(),
			base: baseline.New(map[ephid.AID]ephid.AID{l.Dst.AID: l.Dst.AID}),
		}
	}
	m.sc.egOut = make([]border.Verdict, 0, batchSize)
	m.sc.routed = make([][]byte, 0, batchSize)
	m.sc.inOut = make([]border.IngressResult, 0, batchSize)
	return m
}

// run walks the next n batches. With stepwise set it first takes each
// batch through every layer's public call, one child span per layer,
// and requires the pipelines to reach the same verdict on every frame.
// With a nil recorder the same code runs without a clock read per layer.
func (m *mirror) run(rec *recorder, n int, stepwise bool) {
	sc := &m.sc
	rootName, prefix := "engine.batch", ""
	if stepwise {
		rootName, prefix = "fwd.batch", "verify/"
	}
	start := now()
	for end := m.batches + n; m.batches < end; m.batches++ {
		ls := &m.lanes[m.batches%len(m.lanes)]
		frames := ls.lane.Frames[ls.cursor : ls.cursor+batchSize]
		ls.cursor = (ls.cursor + batchSize) % len(ls.lane.Frames)
		req := uint64(m.batches)
		m.packets += batchSize

		root := rec.begin(0, req, rootName)
		if stepwise {
			sc.layers(rec, root.id, req, ls, frames, m.fw.w.Now)
		}
		sc.pipelines(rec, root.id, req, ls, frames, prefix)
		rec.end(root, batchSize)

		if !stepwise {
			continue
		}
		j := 0
		for i := range frames {
			got := sc.egOut[i]
			if got == border.VerdictForward {
				got = sc.inOut[j].Verdict
				j++
			}
			if got != sc.step[i] {
				m.mismatches++
			}
		}
	}
	m.elapsed += since(start)
}

// pipelines runs one batch through the real egress pipeline, the route
// lookup and the real ingress pipeline, exactly as the engine does.
func (sc *mirrorScratch) pipelines(rec *recorder, parent int, req uint64, ls *mirrorLane, frames [][]byte, prefix string) {
	rec.layer(parent, req, prefix+"border.egress_batch", len(frames), func() {
		sc.egOut = ls.egress.ProcessBatch(frames, sc.egOut[:0])
	})
	rec.layer(parent, req, prefix+"engine.transit", len(frames), func() {
		sc.routed = sc.routed[:0]
		for i, f := range frames {
			if sc.egOut[i] != border.VerdictForward {
				continue
			}
			if _, ok := ls.lane.Src.Router.LookupRoute(wire.FrameDstAID(f)); !ok {
				sc.egOut[i] = border.VerdictDropNoRoute
				continue
			}
			sc.routed = append(sc.routed, f)
		}
	})
	rec.layer(parent, req, prefix+"border.ingress_batch", len(sc.routed), func() {
		sc.inOut = ls.ingress.ProcessBatch(sc.routed, sc.inOut[:0])
	})
}

// layers takes one batch through each layer's public function in the
// order EgressPipeline.process and IngressPipeline.process call them,
// one child span per layer. A frame a layer rejects skips the layers
// after it; each span's op count is the frames still undecided.
func (sc *mirrorScratch) layers(rec *recorder, parent int, req uint64, ls *mirrorLane, frames [][]byte, nowUnix int64) {
	src, dst := ls.lane.Src, ls.lane.Dst
	step := sc.step[:len(frames)]
	for i := range step {
		step[i] = pending
	}
	live := func() int {
		c := 0
		for _, v := range step {
			if v == pending {
				c++
			}
		}
		return c
	}
	open := func(s *ephid.Sealer, id func([]byte) ephid.EphID) func() {
		return func() {
			for i, f := range frames {
				if step[i] != pending {
					continue
				}
				p, err := s.Open(id(f))
				switch {
				case err != nil:
					step[i] = border.VerdictDropBadEphID
				case p.Expired(nowUnix):
					step[i] = border.VerdictDropExpired
				default:
					sc.pl[i] = p
				}
			}
		}
	}

	rec.layer(parent, req, "egress/wire.valid_frame", live(), func() {
		for i, f := range frames {
			if !wire.ValidFrame(f) {
				step[i] = border.VerdictDropMalformed
			}
		}
	})
	rec.layer(parent, req, "egress/ephid.open", live(), open(src.Sealer, wire.FrameSrcEphID))
	rec.layer(parent, req, "egress/border.revocation_contains", live(), func() {
		for i, f := range frames {
			if step[i] == pending && src.Router.Revoked().Contains(wire.FrameSrcEphID(f)) {
				step[i] = border.VerdictDropRevoked
			}
		}
	})
	rec.layer(parent, req, "egress/hostdb.mac_key", live(), func() {
		for i := range frames {
			if step[i] != pending {
				continue
			}
			k, err := src.DB.MACKey(sc.pl[i].HID)
			if err != nil {
				step[i] = border.VerdictDropUnknownHost
			}
			sc.keys[i] = k
		}
	})
	rec.layer(parent, req, "egress/wire.mac_new", live(), func() {
		for i := range frames {
			if step[i] != pending {
				continue
			}
			pm, err := wire.NewPacketMAC(sc.keys[i][:])
			if err != nil {
				step[i] = border.VerdictDropBadMAC
			}
			sc.pms[i] = pm
		}
	})
	rec.layer(parent, req, "egress/wire.mac_verify", live(), func() {
		for i, f := range frames {
			if step[i] == pending && !sc.pms[i].Verify(f) {
				step[i] = border.VerdictDropBadMAC
			}
		}
	})
	rec.layer(parent, req, "transit/border.lookup_route", live(), func() {
		for i, f := range frames {
			if step[i] != pending {
				continue
			}
			if _, ok := src.Router.LookupRoute(wire.FrameDstAID(f)); !ok {
				step[i] = border.VerdictDropNoRoute
			}
		}
	})
	rec.layer(parent, req, "ingress/ephid.open", live(), open(dst.Sealer, wire.FrameDstEphID))
	rec.layer(parent, req, "ingress/border.revocation_contains", live(), func() {
		for i, f := range frames {
			if step[i] == pending && dst.Router.Revoked().Contains(wire.FrameDstEphID(f)) {
				step[i] = border.VerdictDropRevoked
			}
		}
	})
	rec.layer(parent, req, "ingress/border.remote_matches", live(), func() {
		for i, f := range frames {
			if step[i] == pending && dst.Router.RemoteRevoked().Matches(wire.FrameSrcEphID(f), wire.FrameSrcAID(f)) {
				step[i] = border.VerdictDropRevokedRemote
			}
		}
	})
	rec.layer(parent, req, "ingress/hostdb.valid", live(), func() {
		for i := range frames {
			if step[i] != pending {
				continue
			}
			if dst.DB.Valid(sc.pl[i].HID) {
				step[i] = border.VerdictForward
			} else {
				step[i] = border.VerdictDropUnknownHost
			}
		}
	})
	rec.layer(parent, req, "baseline.forward", len(frames), func() {
		for _, f := range frames {
			ls.base.Process(f)
		}
	})
}
