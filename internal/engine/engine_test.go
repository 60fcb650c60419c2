package engine

import (
	"maps"
	"testing"

	"apna/internal/border"
	"apna/internal/pktgen"
	"apna/internal/wire"
)

func testWorld(t *testing.T, badFrac float64) *pktgen.World {
	t.Helper()
	w, err := pktgen.NewWorld(pktgen.WorldConfig{
		ASes: 3, HostsPerAS: 16, FrameSize: 256,
		FramesPerLane: 128, BadFrac: badFrac, Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestRunCleanWorldDeliversEverything(t *testing.T) {
	w := testWorld(t, 0)
	rep, err := Run(w, Config{Workers: 2, BatchSize: 32, PacketsPerWorker: 5_000})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Packets == 0 {
		t.Fatal("no packets processed")
	}
	if rep.Delivered != rep.Packets {
		t.Fatalf("delivered %d of %d clean packets (verdicts %v)",
			rep.Delivered, rep.Packets, rep.Verdicts)
	}
	if rep.Dropped != 0 {
		t.Fatalf("dropped %d clean packets", rep.Dropped)
	}
	if rep.PPS <= 0 {
		t.Fatalf("pps %v", rep.PPS)
	}
	for _, stage := range []string{"egress", "transit", "ingress"} {
		s, ok := rep.Stages[stage]
		if !ok {
			t.Fatalf("missing stage %q", stage)
		}
		if s.P50 <= 0 || s.P99 < s.P50 {
			t.Fatalf("stage %q stats inconsistent: %+v", stage, s)
		}
	}
}

// TestRunBadTrafficIsDropped holds the engine to the routers' uncached
// single-packet path: every frame of the world goes through
// EgressVerify, LookupRoute and IngressVerify once, and a run of whole
// passes over the lanes must reproduce that verdict histogram (forward
// counted once per stage passed), Delivered and Dropped exactly — on
// one worker and on two.
func TestRunBadTrafficIsDropped(t *testing.T) {
	w := testWorld(t, 0.3)
	want := map[string]uint64{}
	var frames, delivered uint64
	for _, lane := range w.Lanes {
		for _, frame := range lane.Frames {
			frames++
			v, _ := lane.Src.Router.EgressVerify(frame)
			if v == border.VerdictForward {
				want[v.String()]++
				if _, ok := lane.Src.Router.LookupRoute(wire.FrameDstAID(frame)); ok {
					v, _ = lane.Dst.Router.IngressVerify(frame)
				} else {
					v = border.VerdictDropNoRoute
				}
			}
			want[v.String()]++
			if v == border.VerdictForward {
				delivered++
			}
		}
	}
	if delivered == 0 || delivered == frames {
		t.Fatalf("%d of %d frames delivered: the world needs both kinds", delivered, frames)
	}
	const passes = 4
	for name, n := range want {
		want[name] = n * passes
	}
	for _, workers := range []int{1, 2} {
		// 32-frame batches divide every lane's stripe, so each worker's
		// budget is whole passes over its stripes.
		rep, err := Run(w, Config{Workers: workers, BatchSize: 32, PacketsPerWorker: passes * int(frames) / workers})
		if err != nil {
			t.Fatal(err)
		}
		if !maps.Equal(rep.Verdicts, want) {
			t.Errorf("%d workers: verdicts %v, want %v", workers, rep.Verdicts, want)
		}
		if rep.Packets != passes*frames || rep.Delivered != passes*delivered || rep.Dropped != passes*(frames-delivered) {
			t.Errorf("%d workers: %d packets, %d delivered, %d dropped; want %d, %d, %d", workers,
				rep.Packets, rep.Delivered, rep.Dropped, passes*frames, passes*delivered, passes*(frames-delivered))
		}
	}
}

// TestRunScalesAcrossWorkers is a smoke check that more workers process
// the same per-worker budget, i.e. total packets grow linearly.
func TestRunScalesAcrossWorkers(t *testing.T) {
	w := testWorld(t, 0)
	one, err := Run(w, Config{Workers: 1, BatchSize: 32, PacketsPerWorker: 2_000})
	if err != nil {
		t.Fatal(err)
	}
	four, err := Run(w, Config{Workers: 4, BatchSize: 32, PacketsPerWorker: 2_000})
	if err != nil {
		t.Fatal(err)
	}
	if four.Packets != 4*one.Packets {
		t.Fatalf("1 worker: %d packets, 4 workers: %d", one.Packets, four.Packets)
	}
}

func TestRunEmptyWorldErrors(t *testing.T) {
	if _, err := Run(&pktgen.World{}, Config{}); err == nil {
		t.Fatal("expected error for empty world")
	}
}
