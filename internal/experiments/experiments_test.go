package experiments

import (
	"math"
	"strings"
	"testing"

	"apna/internal/pktgen"
)

func TestRunE1Small(t *testing.T) {
	res, err := RunE1(2_000, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != 2_000 || res.Workers != 2 {
		t.Errorf("metadata: %+v", res)
	}
	if res.EphIDsPerSec <= 0 || res.PerEphID <= 0 {
		t.Error("no rate measured")
	}
	// The headline claim at any scale: generation outpaces the peak
	// session demand of the paper's trace. Under the race detector the
	// crypto loop runs an order of magnitude slower, so the throughput
	// shape is not meaningful there.
	if res.Headroom <= 1 && !raceEnabled {
		t.Errorf("headroom %.2f <= 1 — shape broken", res.Headroom)
	}
	var sb strings.Builder
	res.Fprint(&sb)
	if !strings.Contains(sb.String(), "72.8k/s") {
		t.Error("report missing paper column")
	}
}

// TestRunE1 checks that E1 issues exactly the requested count when it
// is not a multiple of the workers, or is below them, and rejects an
// empty run or one without workers.
func TestRunE1(t *testing.T) {
	for _, requests := range []int{3, 5} {
		res, err := RunE1(requests, 4)
		if err != nil {
			t.Fatalf("RunE1(%d, 4): %v", requests, err)
		}
		if res.Requests != requests {
			t.Errorf("RunE1(%d, 4) reports %d requests", requests, res.Requests)
		}
	}
	if _, err := RunE1(0, 4); err == nil {
		t.Error("RunE1(0, 4) accepted an empty run")
	}
	if _, err := RunE1(4, 0); err == nil {
		t.Error("RunE1(4, 0) accepted a run without workers")
	}
}

func TestRunE3SmallAndReport(t *testing.T) {
	const workers, budget = 2, 2_000
	reports, err := RunE3(16, workers, budget)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != len(pktgen.PaperPacketSizes) {
		t.Fatalf("reports = %d", len(reports))
	}
	var prev figure8Point
	for i, rep := range reports {
		if rep.FrameSize != pktgen.PaperPacketSizes[i] || rep.Workers != workers {
			t.Errorf("report metadata: %d B, %d workers", rep.FrameSize, rep.Workers)
		}
		// Every worker spends its whole budget, and a clean world
		// delivers every frame.
		if rep.Packets != workers*budget || rep.Delivered != rep.Packets {
			t.Errorf("size %d: %d packets, %d delivered, want %d of each", rep.FrameSize, rep.Packets, rep.Delivered, workers*budget)
		}
		if rep.PPS <= 0 {
			t.Errorf("size %d: no throughput measured", rep.FrameSize)
		}
		// Figure 8a shape: the line-rate ceiling decreases with size; the
		// delivered rate exceeds neither it nor what was measured, and
		// the bit rate is that packet rate in frame bytes.
		p := figure8(rep)
		if p.deliveredPPS > p.linePPS+1 || p.deliveredPPS > rep.PPS+1 {
			t.Errorf("size %d: delivered %.0f pps above line %.0f or pipeline %.0f", rep.FrameSize, p.deliveredPPS, p.linePPS, rep.PPS)
		}
		if want := p.deliveredPPS * float64(rep.FrameSize) * 8 / 1e9; math.Abs(p.deliveredGbps-want) > 1e-9 {
			t.Errorf("size %d: gbps = %f, want %f", rep.FrameSize, p.deliveredGbps, want)
		}
		if i > 0 && p.linePPS >= prev.linePPS {
			t.Errorf("line pps not decreasing: %f -> %f", prev.linePPS, p.linePPS)
		}
		if p.coresForLine <= 0 {
			t.Error("no core projection")
		}
		prev = p
	}
	var sb strings.Builder
	FprintE3(&sb, reports)
	out := sb.String()
	if !strings.Contains(out, "1518") || !strings.Contains(out, "cores@line") {
		t.Errorf("report incomplete:\n%s", out)
	}
}
