package experiments

import (
	"math"
	"strings"
	"testing"
	"time"

	"apna/internal/pktgen"
	"apna/internal/trace"
)

func TestRunE1Small(t *testing.T) {
	res, err := RunE1(2_000, 2, 3_888)
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

func TestRunE1DefaultWorkers(t *testing.T) {
	res, err := RunE1(400, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Workers != 4 {
		t.Errorf("default workers = %d, want the paper's 4", res.Workers)
	}
	if res.Headroom != 0 {
		t.Error("headroom without peak demand")
	}
}

// TestRunE1 checks that E1 issues exactly the requested count when it
// is not a multiple of the workers, or is below them, and rejects an
// empty run.
func TestRunE1(t *testing.T) {
	for _, requests := range []int{3, 5} {
		res, err := RunE1(requests, 4, 0)
		if err != nil {
			t.Fatalf("RunE1(%d, 4): %v", requests, err)
		}
		if res.Requests != requests {
			t.Errorf("RunE1(%d, 4) reports %d requests", requests, res.Requests)
		}
	}
	if _, err := RunE1(0, 4, 0); err == nil {
		t.Error("RunE1(0, 4) accepted an empty run")
	}
}

func TestRunE2AndReport(t *testing.T) {
	stats, err := RunE2(trace.Config{
		Hosts: 5_000, Duration: 30 * time.Minute, PeakRate: 300, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.UniqueHosts == 0 || stats.PeakRate == 0 {
		t.Errorf("stats: %+v", stats)
	}
	var sb strings.Builder
	FprintE2(&sb, stats)
	if !strings.Contains(sb.String(), "1,266,598") {
		t.Error("report missing paper column")
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

func TestRunE5MatchesPaperAccounting(t *testing.T) {
	results, err := RunE5(10 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"host-host":          1.0,
		"host-host-0rtt":     0.0,
		"client-server":      1.0,
		"client-server-0rtt": 0.0,
	}
	wantPeer := map[string]float64{
		"host-host":          1.5,
		"host-host-0rtt":     0.5,
		"client-server":      1.5, // the paper's "1.5 RTT total"
		"client-server-0rtt": 0.5,
	}
	if len(results) != len(want) {
		t.Fatalf("modes = %d", len(results))
	}
	for _, r := range results {
		if got := r.RTTs(); got != want[r.Mode] {
			t.Errorf("%s: initiator wait %.2f RTT, want %.2f", r.Mode, got, want[r.Mode])
		}
		if got := float64(r.FirstDataAtPeer) / float64(r.RTT); got != wantPeer[r.Mode] {
			t.Errorf("%s: data at peer %.2f RTT, want %.2f", r.Mode, got, wantPeer[r.Mode])
		}
	}
	var sb strings.Builder
	FprintE5(&sb, results)
	if !strings.Contains(sb.String(), "client-server-0rtt") {
		t.Error("report incomplete")
	}
}
