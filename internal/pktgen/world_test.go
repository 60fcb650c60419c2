package pktgen

import (
	"testing"

	"apna/internal/border"
	"apna/internal/wire"
)

func TestNewWorldShape(t *testing.T) {
	w, err := NewWorld(WorldConfig{ASes: 3, HostsPerAS: 8, FrameSize: 256, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(w.ASes) != 3 || len(w.Lanes) != 3 {
		t.Fatalf("got %d ASes, %d lanes", len(w.ASes), len(w.Lanes))
	}
	for i, lane := range w.Lanes {
		if len(lane.Frames) != 8 {
			t.Fatalf("lane %d: %d frames", i, len(lane.Frames))
		}
		for j, frame := range lane.Frames {
			if len(frame) != 256 {
				t.Fatalf("lane %d frame %d: size %d", i, j, len(frame))
			}
		}
		if lane.Dst != w.ASes[(i+1)%3] {
			t.Fatalf("lane %d: wrong destination", i)
		}
	}
}

// TestWorldCleanTrafficForwards pushes every clean frame through the
// full egress -> route -> ingress path by hand.
func TestWorldCleanTrafficForwards(t *testing.T) {
	w, err := NewWorld(WorldConfig{ASes: 2, HostsPerAS: 4, FrameSize: 128, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, lane := range w.Lanes {
		eg := lane.Src.Router.NewEgressPipeline()
		ig := lane.Dst.Router.NewIngressPipeline()
		for i, frame := range lane.Frames {
			one := lane.Frames[i : i+1]
			if v := eg.ProcessBatch(one, nil)[0]; v != border.VerdictForward {
				t.Fatalf("egress verdict %v", v)
			}
			if _, ok := lane.Src.Router.LookupRoute(wire.FrameDstAID(frame)); !ok {
				t.Fatalf("no route toward %v", wire.FrameDstAID(frame))
			}
			if res := ig.ProcessBatch(one, nil)[0]; res.Verdict != border.VerdictForward {
				t.Fatalf("ingress verdict %v", res.Verdict)
			}
		}
	}
}

// TestWorldBadFramesDrop verifies each adversarial kind produces its
// matching drop verdict somewhere on the path.
func TestWorldBadFramesDrop(t *testing.T) {
	w, err := NewWorld(WorldConfig{
		ASes: 2, HostsPerAS: 16, FrameSize: 256,
		FramesPerLane: 400, BadFrac: 0.5, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[border.Verdict]int)
	totalBad := 0
	for _, lane := range w.Lanes {
		for _, n := range lane.Bad {
			totalBad += n
		}
		eg := lane.Src.Router.NewEgressPipeline()
		ig := lane.Dst.Router.NewIngressPipeline()
		for i := range lane.Frames {
			one := lane.Frames[i : i+1]
			v := eg.ProcessBatch(one, nil)[0]
			if v != border.VerdictForward {
				counts[v]++
				continue
			}
			counts[ig.ProcessBatch(one, nil)[0].Verdict]++
		}
	}
	if totalBad == 0 {
		t.Fatal("no bad frames generated at BadFrac=0.5")
	}
	dropped := 0
	for v, n := range counts {
		if v != border.VerdictForward {
			dropped += n
		}
	}
	if dropped != totalBad {
		t.Fatalf("dropped %d, expected %d bad frames (verdicts %v)", dropped, totalBad, counts)
	}
	for _, want := range []border.Verdict{
		border.VerdictDropBadEphID, border.VerdictDropExpired,
		border.VerdictDropRevoked, border.VerdictDropBadMAC,
	} {
		if counts[want] == 0 {
			t.Errorf("no %v drops in a 50%% bad mix", want)
		}
	}
}

func TestWorldConfigValidation(t *testing.T) {
	bad := []WorldConfig{
		{ASes: 1, HostsPerAS: 1, FrameSize: 128},
		{ASes: 2, HostsPerAS: 0, FrameSize: 128},
		{ASes: 2, HostsPerAS: 1, FrameSize: 10},
		{ASes: 2, HostsPerAS: 1, FrameSize: 128, BadFrac: 1.5},
	}
	for i, cfg := range bad {
		if _, err := NewWorld(cfg); err == nil {
			t.Errorf("config %d: expected error", i)
		}
	}
}

func TestShard(t *testing.T) {
	frames := make([][]byte, 10)
	for i := range frames {
		frames[i] = []byte{byte(i)}
	}
	stripes := Shard(frames, 3)
	if len(stripes) != 3 {
		t.Fatalf("got %d stripes", len(stripes))
	}
	total := 0
	for _, s := range stripes {
		total += len(s)
	}
	if total != 10 {
		t.Fatalf("stripes carry %d frames", total)
	}
	if stripes[0][0][0] != 0 || stripes[1][0][0] != 1 || stripes[2][0][0] != 2 {
		t.Fatal("striping is not round-robin")
	}
}
