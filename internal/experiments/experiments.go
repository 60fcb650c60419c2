// Package experiments implements the reproduction harness behind
// cmd/apna-bench: one function per table/figure of the paper's
// evaluation (Section V), the latency analysis of Section VII-C, and
// the gated sweeps E8-E12. E6 and E7 are specs under scenarios/.
package experiments

import (
	"fmt"
	"io"
	"sync"
	"time"

	"apna/internal/crypto"
	"apna/internal/engine"
	"apna/internal/ephid"
	"apna/internal/hostdb"
	"apna/internal/ms"
	"apna/internal/pktgen"
	"apna/internal/trace"
)

// E1Result is the MS performance experiment (paper Section V-A3): the
// paper reports 500,000 EphID requests in 6.9 s — 13.7 µs per EphID,
// 72.8 k EphIDs/s — against a peak demand of 3,888 sessions/s, i.e.
// 18x headroom.
type E1Result struct {
	Requests     int
	Workers      int
	Elapsed      time.Duration
	PerEphID     time.Duration
	EphIDsPerSec float64
	// PeakDemand is the trace's peak new-session rate; Headroom is
	// generation rate over demand.
	PeakDemand int
	Headroom   float64
}

// RunE1 measures EphID issuance (mint + certificate signature) across
// the given number of workers — the paper parallelizes across 4
// processes. peakDemand comes from the trace experiment (E2).
func RunE1(requests, workers, peakDemand int) (*E1Result, error) {
	secret, err := crypto.NewASSecret()
	if err != nil {
		return nil, err
	}
	sealer, err := ephid.NewSealer(secret)
	if err != nil {
		return nil, err
	}
	signer, err := crypto.GenerateSigner()
	if err != nil {
		return nil, err
	}
	db := hostdb.New()
	const hostCount = 1024
	for i := 0; i < hostCount; i++ {
		db.Put(hostdb.Entry{
			HID:  ephid.HID(i + 1),
			Keys: crypto.DeriveHostASKeys([]byte{byte(i), byte(i >> 8)}),
		})
	}
	aaEphID := sealer.Mint(ephid.Payload{HID: 1, ExpTime: 1 << 31})
	svc := ms.New(64512, sealer, signer, db, ms.DefaultPolicy(), aaEphID,
		func() int64 { return 1_000_000 })

	// Pre-generate the per-request key material: in deployment the
	// *hosts* generate these keys, so they are not part of the MS's
	// measured work (Figure 3).
	dh, err := crypto.GenerateKeyPair()
	if err != nil {
		return nil, err
	}
	sig, err := crypto.GenerateSigner()
	if err != nil {
		return nil, err
	}
	req := &ms.Request{Kind: ephid.KindData, Lifetime: 900}
	copy(req.DHPub[:], dh.PublicKey())
	copy(req.SigPub[:], sig.PublicKey())

	if workers <= 0 {
		workers = 4 // the paper's parallelism
	}
	per := requests / workers
	var wg sync.WaitGroup
	start := time.Now() //apna:wallclock
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if _, err := svc.Issue(ephid.HID(i%hostCount+1), req); err != nil {
					panic(err)
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start) //apna:wallclock
	total := per * workers

	res := &E1Result{
		Requests: total, Workers: workers, Elapsed: elapsed,
		PerEphID:     elapsed / time.Duration(total),
		EphIDsPerSec: float64(total) / elapsed.Seconds(),
		PeakDemand:   peakDemand,
	}
	if peakDemand > 0 {
		res.Headroom = res.EphIDsPerSec / float64(peakDemand)
	}
	return res, nil
}

// Fprint renders the E1 table next to the paper's numbers.
func (r *E1Result) Fprint(w io.Writer) {
	fmt.Fprintf(w, "E1: MS EphID generation (Section V-A3)\n")
	fmt.Fprintf(w, "  %-28s %-16s %s\n", "metric", "paper", "measured")
	fmt.Fprintf(w, "  %-28s %-16s %d\n", "requests", "500,000", r.Requests)
	fmt.Fprintf(w, "  %-28s %-16s %d\n", "workers", "4", r.Workers)
	fmt.Fprintf(w, "  %-28s %-16s %.1fs\n", "total time", "6.9s", r.Elapsed.Seconds())
	fmt.Fprintf(w, "  %-28s %-16s %.1fus\n", "per EphID", "13.7us", float64(r.PerEphID.Nanoseconds())/1e3)
	fmt.Fprintf(w, "  %-28s %-16s %.1fk/s\n", "generation rate", "72.8k/s", r.EphIDsPerSec/1e3)
	if r.PeakDemand > 0 {
		fmt.Fprintf(w, "  %-28s %-16s %.1fx (peak %d/s)\n", "headroom over peak demand", ">18x", r.Headroom, r.PeakDemand)
	}
}

// RunE2 generates the synthetic flow trace and returns its statistics
// (paper: 1,266,598 unique hosts, peak 3,888 sessions/s).
func RunE2(cfg trace.Config) (*trace.Stats, error) {
	return trace.Generate(cfg)
}

// FprintE2 renders the trace statistics next to the paper's.
func FprintE2(w io.Writer, s *trace.Stats) {
	fmt.Fprintf(w, "E2: flow-trace statistics (Section V-A3; synthetic substitute)\n")
	fmt.Fprintf(w, "  %-28s %-16s %s\n", "metric", "paper", "measured")
	fmt.Fprintf(w, "  %-28s %-16s %d\n", "unique hosts", "1,266,598", s.UniqueHosts)
	fmt.Fprintf(w, "  %-28s %-16s %d/s\n", "peak session rate", "3,888/s", s.PeakRate)
	fmt.Fprintf(w, "  %-28s %-16s %d (%.0f/s mean)\n", "total sessions", "~178M", s.TotalSessions, s.MeanRate)
	fmt.Fprintf(w, "  %-28s %-16s %v\n", "p98 flow duration", "<15m [11]", s.P98Duration.Round(time.Second))
}

// RunE3 runs the Figure 8 forwarding sweep: the forwarding engine over a
// clean two-AS world at every paper packet size. What is timed is what
// E8 and bench/'s fwd_* workloads time — egress, route lookup and ingress
// in 64-frame batches.
func RunE3(hosts, workers, packetsPerWorker int) ([]*engine.Report, error) {
	reports := make([]*engine.Report, 0, len(pktgen.PaperPacketSizes))
	for _, size := range pktgen.PaperPacketSizes {
		res, err := engine.Saturate(engine.SaturationConfig{
			ASes: 2, HostsPerAS: hosts, FrameSize: size,
			Workers: workers, BatchSize: engine.DefaultBatchSize, PacketsPerWorker: packetsPerWorker,
		})
		if err != nil {
			return nil, err
		}
		if rep := res.Report; !res.OK || rep.Dropped > 0 {
			// A fixture bug, not a measurement.
			return nil, fmt.Errorf("e3: %d B: %d of %d valid frames dropped %v", size, rep.Dropped, rep.Packets, res.Failures)
		}
		reports = append(reports, res.Report)
	}
	return reports, nil
}

// figure8Point is one size's measurement set against the paper's testbed:
// 120 Gbps of NIC capacity that the prototype filled at every size.
type figure8Point struct {
	// linePPS is the line-rate ceiling for the frame size, deliveredPPS
	// the lower of it and the measured rate — what the testbed would see
	// on the wire — and deliveredGbps that rate in frame bytes.
	linePPS, deliveredPPS, deliveredGbps float64
	// lineLimited: the NICs, not the pipelines, were the bottleneck.
	lineLimited bool
	// coresForLine projects how many cores of this machine the pipelines
	// would need to fill the line.
	coresForLine float64
}

func figure8(rep *engine.Report) figure8Point {
	line := pktgen.LineRatePPS(pktgen.PaperCapacityGbps, rep.FrameSize)
	delivered := min(rep.PPS, line)
	return figure8Point{
		linePPS: line, deliveredPPS: delivered,
		deliveredGbps: delivered * float64(rep.FrameSize) * 8 / 1e9,
		lineLimited:   rep.PPS >= line,
		coresForLine:  line / (rep.PPS / float64(rep.Workers)),
	}
}

// FprintE3 renders both Figure 8 series: packet rate (a) and bit rate
// (b).
func FprintE3(w io.Writer, reports []*engine.Report) {
	fmt.Fprintf(w, "E3/E4: border-router forwarding (Figure 8, %d workers)\n", reports[0].Workers)
	fmt.Fprintf(w, "  %-8s %-14s %-14s %-14s %-12s %-10s %s\n",
		"size(B)", "pipeline Mpps", "line Mpps", "delivered Mpps", "Gbps", "cores@line", "bottleneck")
	for _, rep := range reports {
		p := figure8(rep)
		bottleneck := "pipeline"
		if p.lineLimited {
			bottleneck = "line rate (as in paper)"
		}
		fmt.Fprintf(w, "  %-8d %-14.2f %-14.2f %-14.2f %-12.1f %-10.1f %s\n",
			rep.FrameSize, rep.PPS/1e6, p.linePPS/1e6, p.deliveredPPS/1e6,
			p.deliveredGbps, p.coresForLine, bottleneck)
	}
	fmt.Fprintf(w, "  paper: measured == theoretical maximum at every size; bit rate saturates 120 Gbps for large frames\n")
	fmt.Fprintf(w, "  (pipeline Mpps is egress + route lookup + ingress per packet, in 64-frame\n")
	fmt.Fprintf(w, "   batches; cores@line projects how many of this machine's cores the Go\n")
	fmt.Fprintf(w, "   pipelines would need to hold the 120 Gbps line; the paper's testbed had\n")
	fmt.Fprintf(w, "   16 cores running a DPDK/AES-NI C pipeline)\n")
}
