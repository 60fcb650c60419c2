package pktgen

import (
	"bytes"
	"hash/fnv"
	"runtime"
	"slices"
	"testing"

	"apna/internal/border"
	"apna/internal/ephid"
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

// slowPath is one frame's verdict on the routers' uncached single-packet
// checks: egress at the source AS, route, ingress at the destination.
func slowPath(lane *Lane, frame []byte) border.Verdict {
	if v, _ := lane.Src.Router.EgressVerify(frame); v != border.VerdictForward {
		return v
	}
	if _, ok := lane.Src.Router.LookupRoute(wire.FrameDstAID(frame)); !ok {
		return border.VerdictDropNoRoute
	}
	v, _ := lane.Dst.Router.IngressVerify(frame)
	return v
}

// laneShape is what a world's seed fixes of one lane: its bad-frame
// counts, and each frame's length and slow-path verdict. The keys, and
// so the bytes, are fresh in every build.
type laneShape struct {
	bad      [badKinds]int
	lens     []int
	verdicts []border.Verdict
}

// TestNewWorldDeterministic builds each world at GOMAXPROCS 1, where the
// caller does every step, and at 2, where fixtures and lanes fan out to
// a spare core. Both builds must agree on everything the seed fixes,
// and agree with the figures pinned below, which the one-core,
// frame-at-a-time builder produced before the work fanned out: each
// lane's Bad counts and an FNV-64a of its frames' verdict sequence. Every
// frame's batch-applied MAC must be the one a 1-lane PacketMAC writes,
// and every frame must be capped at its own bytes of the lane's slab.
func TestNewWorldDeterministic(t *testing.T) {
	for _, tc := range []struct {
		cfg      WorldConfig
		bad      [][badKinds]int
		verdicts []uint64
	}{
		// Every host sends many frames, so its schedule serves several
		// MAC chunks.
		{
			cfg:      WorldConfig{ASes: 3, HostsPerAS: 16, FrameSize: 128, FramesPerLane: 400, BadFrac: 0.5, Seed: 3},
			bad:      [][badKinds]int{{35, 27, 37, 33, 27, 30}, {29, 36, 40, 29, 44, 34}, {41, 30, 45, 27, 36, 24}},
			verdicts: []uint64{0x2199d83af95b4217, 0x8d5be79dada29c8e, 0xb3d3b28c39b16f5a},
		},
		// No host sends twice, over several chunks and a partial one;
		// frames without payload, so a BadMAC flips a MAC byte.
		{
			cfg:      WorldConfig{ASes: 2, HostsPerAS: 300, FrameSize: wire.HeaderSize, FramesPerLane: 200, BadFrac: 0.3, Seed: 4},
			bad:      [][badKinds]int{{12, 15, 14, 9, 11, 9}, {10, 8, 7, 10, 6, 13}},
			verdicts: []uint64{0x665ebe1ab65960e, 0xf8c7715e04afd374},
		},
	} {
		cfg := tc.cfg
		var want []laneShape
		for _, procs := range []int{1, 2} {
			prev := runtime.GOMAXPROCS(procs)
			w, err := NewWorld(cfg)
			runtime.GOMAXPROCS(prev)
			if err != nil {
				t.Fatal(err)
			}
			var got []laneShape
			for i, lane := range w.Lanes {
				shape := laneShape{bad: lane.Bad}
				h := fnv.New64a()
				for j, frame := range lane.Frames {
					if cap(frame) != len(frame) {
						t.Fatalf("seed %d, GOMAXPROCS %d, lane %d frame %d: capacity %d reaches past its %d bytes",
							cfg.Seed, procs, i, j, cap(frame), len(frame))
					}
					v := slowPath(lane, frame)
					shape.lens = append(shape.lens, len(frame))
					shape.verdicts = append(shape.verdicts, v)
					h.Write([]byte{byte(v)})
					checkMAC(t, lane, j, frame, v == border.VerdictDropBadMAC)
				}
				if n := countOf(shape.verdicts, border.VerdictDropBadMAC); n != lane.Bad[BadMAC] {
					t.Fatalf("seed %d, lane %d: %d bad-MAC drops for %d BadMAC frames", cfg.Seed, i, n, lane.Bad[BadMAC])
				}
				if lane.Bad != tc.bad[i] || h.Sum64() != tc.verdicts[i] {
					t.Fatalf("seed %d, GOMAXPROCS %d, lane %d: Bad %v, verdicts %#x; pinned %v, %#x",
						cfg.Seed, procs, i, lane.Bad, h.Sum64(), tc.bad[i], tc.verdicts[i])
				}
				got = append(got, shape)
			}
			if want == nil {
				want = got
				continue
			}
			for i := range want {
				if got[i].bad != want[i].bad || !slices.Equal(got[i].lens, want[i].lens) ||
					!slices.Equal(got[i].verdicts, want[i].verdicts) {
					t.Fatalf("seed %d, lane %d: GOMAXPROCS %d builds %+v, GOMAXPROCS 1 built %+v",
						cfg.Seed, i, procs, got[i], want[i])
				}
			}
		}
	}
}

// checkMAC recomputes frame j's MAC with a 1-lane PacketMAC under its
// source host's key, undoing the BadMAC flip of the last byte first.
func checkMAC(t *testing.T, lane *Lane, j int, frame []byte, flipped bool) {
	t.Helper()
	e, err := lane.Src.DB.Get(ephid.HID(j%lane.Src.DB.Len() + 1))
	if err != nil {
		t.Fatal(err)
	}
	pm, err := wire.NewPacketMAC(e.Keys.MAC[:])
	if err != nil {
		t.Fatal(err)
	}
	sent := bytes.Clone(frame)
	if flipped {
		sent[len(sent)-1] ^= 0xff
	}
	want := bytes.Clone(sent)
	pm.Apply(want)
	if !bytes.Equal(sent, want) {
		t.Fatalf("lane %v->%v frame %d: batch-applied MAC differs from PacketMAC.Apply's", lane.Src.AID, lane.Dst.AID, j)
	}
}

func countOf(vs []border.Verdict, v border.Verdict) int {
	n := 0
	for _, x := range vs {
		if x == v {
			n++
		}
	}
	return n
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
