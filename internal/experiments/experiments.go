// Package experiments implements the timed experiments behind
// cmd/apna-bench: the MS performance table (E1) and both Figure 8
// forwarding series (E3/E4) of the paper's evaluation (Section V), and
// the gated population ramp E11. The deterministic experiments are tests:
// E2 is TestPaperScaleTrace in internal/trace, E5 TestConnectionRTTs in
// the root package, E12 TestDisseminationAtScale in
// internal/accountability; E6, E7, E9 and E10 are specs under
// scenarios/.
package experiments

import (
	"fmt"
	"io"
	"time"

	"apna/internal/asnode"
	"apna/internal/crypto"
	"apna/internal/engine"
	"apna/internal/ephid"
	"apna/internal/hostdb"
	"apna/internal/ms"
	"apna/internal/pktgen"
	"apna/internal/spare"
)

// paperPeakDemand is the peak new-session rate of the paper's trace
// (Section V-A3), which E1's generation rate is measured against;
// TestPaperScaleTrace in internal/trace holds the synthetic trace to it.
const paperPeakDemand = 3_888

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
	// Headroom is generation rate over paperPeakDemand.
	Headroom float64
}

// RunE1 measures EphID issuance (mint + certificate signature) across
// the given number of workers — the paper parallelizes across 4
// processes. It issues exactly requests EphIDs, spreading any remainder
// over the first workers.
func RunE1(requests, workers int) (*E1Result, error) {
	if requests < 1 || workers < 1 {
		return nil, fmt.Errorf("e1: %d requests on %d workers, want >= 1 of each", requests, workers)
	}
	secret, err := crypto.NewASSecret()
	if err != nil {
		return nil, err
	}
	const hostCount = 1024
	node, err := asnode.New(64512, secret, hostCount, func() int64 { return 1_000_000 })
	if err != nil {
		return nil, err
	}
	signer, err := crypto.GenerateSigner()
	if err != nil {
		return nil, err
	}
	for i := 0; i < hostCount; i++ {
		node.DB.Put(hostdb.Entry{
			HID:  ephid.HID(i + 1),
			Keys: crypto.DeriveHostASKeys([]byte{byte(i), byte(i >> 8)}),
		})
	}
	node.AddControl(asnode.Control{
		Signer: signer, Policy: ms.DefaultPolicy(),
		AAEphID: node.Sealer.Mint(ephid.Payload{HID: 1, ExpTime: 1 << 31}),
	})

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

	errs := make([]error, workers)
	start := time.Now() //apna:wallclock
	spare.Workers(workers, func(w int) {
		n := requests / workers
		if w < requests%workers {
			n++
		}
		for i := 0; i < n; i++ {
			if _, err := node.MS.Issue(ephid.HID(i%hostCount+1), req); err != nil {
				errs[w] = err
				return
			}
		}
	})()
	elapsed := time.Since(start) //apna:wallclock
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	rate := float64(requests) / elapsed.Seconds()
	return &E1Result{
		Requests: requests, Workers: workers, Elapsed: elapsed,
		PerEphID:     elapsed / time.Duration(requests),
		EphIDsPerSec: rate,
		Headroom:     rate / paperPeakDemand,
	}, nil
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
	fmt.Fprintf(w, "  %-28s %-16s %.1fx (peak %d/s)\n", "headroom over peak demand", ">18x", r.Headroom, paperPeakDemand)
}

// RunE3 runs the Figure 8 forwarding sweep: the forwarding engine over a
// clean two-AS world at every paper packet size. What is timed is what
// bench/'s fwd_* workloads time — egress, route lookup and ingress in
// 64-frame batches.
func RunE3(hosts, workers, packetsPerWorker int) ([]*engine.Report, error) {
	reports := make([]*engine.Report, 0, len(pktgen.PaperPacketSizes))
	for _, size := range pktgen.PaperPacketSizes {
		w, err := pktgen.NewWorld(pktgen.WorldConfig{ASes: 2, HostsPerAS: hosts, FrameSize: size})
		if err != nil {
			return nil, fmt.Errorf("e3: %w", err)
		}
		rep, err := engine.Run(w, engine.Config{Workers: workers, PacketsPerWorker: packetsPerWorker})
		if err != nil {
			return nil, err
		}
		if rep.Dropped > 0 {
			// A fixture bug, not a measurement.
			return nil, fmt.Errorf("e3: %d B: %d of %d clean frames dropped %v", size, rep.Dropped, rep.Packets, rep.Verdicts)
		}
		reports = append(reports, rep)
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
