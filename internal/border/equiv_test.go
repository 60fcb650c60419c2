package border_test

import (
	"math/rand"
	"testing"

	"apna/internal/border"
	"apna/internal/crypto"
	"apna/internal/ephid"
	"apna/internal/hostdb"
	"apna/internal/pktgen"
	"apna/internal/wire"
)

// equivSizes are the frame sizes mixed into the equivalence stream. The
// MAC input is the frame less the 8-byte MAC field: 64 is the header
// alone (a partial last block), 72 and 88 end exactly on a block
// boundary (K1), 73 is one byte past one (K2), 65, 79 and 80 have a
// payload that fits, nearly fills and exactly fills the staged head,
// and 1518 is the bulk case.
var equivSizes = []int{64, 65, 72, 73, 79, 80, 88, 128, 1518}

// mintFrame builds a frame of the given size from host hid of src,
// MACed under key.
func mintFrame(t *testing.T, src *pktgen.Fixture, hid ephid.HID, key []byte, size int, nonce uint64) []byte {
	t.Helper()
	p := wire.Packet{
		Header: wire.Header{
			NextProto: wire.ProtoSession, HopLimit: wire.DefaultHopLimit, Nonce: nonce,
			SrcAID: src.AID, DstAID: src.AID + 1,
			SrcEphID: src.Sealer.Mint(ephid.Payload{HID: hid, ExpTime: uint32(src.Now) + 3600}),
		},
		Payload: make([]byte, size-wire.HeaderSize),
	}
	for i := range p.Payload {
		p.Payload[i] = byte(nonce) + byte(i)
	}
	frame, err := p.Encode()
	if err != nil {
		t.Fatal(err)
	}
	pm, err := wire.NewPacketMAC(key)
	if err != nil {
		t.Fatal(err)
	}
	pm.Apply(frame)
	return frame
}

// slowVerdict is the reference: the router's uncached single-packet
// path, behind the frame check its port handler does first.
func slowVerdict(r *border.Router, frame []byte) border.Verdict {
	if !wire.ValidFrame(frame) {
		return border.VerdictDropMalformed
	}
	v, _ := r.EgressVerify(frame)
	return v
}

// TestEgressPathsAgree is the pipelines' differential test: one stream
// of good and adversarial frames of every awkward size goes through the
// router's slow path, through EgressPipeline.Process and through
// ProcessBatch at several batch sizes, all with warm caches, and every
// frame must get the same verdict from each. Half-way through, a host
// is re-keyed in hostdb and an EphID is revoked: cached key schedules
// and cached EphID opens must not outlive either.
func TestEgressPathsAgree(t *testing.T) {
	const hosts = 24
	w, err := pktgen.NewWorld(pktgen.WorldConfig{
		ASes: 2, HostsPerAS: hosts, FrameSize: 128, FramesPerLane: 20 * hosts, BadFrac: 0.5, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	lane := w.Lanes[0]
	for kind, n := range lane.Bad {
		if n == 0 {
			t.Fatalf("no frame of bad kind %d in the stream", kind)
		}
	}
	src := lane.Src
	rng := rand.New(rand.NewSource(7))

	// Host 1 is the one re-keyed later; victim's EphID is the one
	// revoked. Both also send plenty of ordinary frames before.
	const rekeyed, victim = ephid.HID(1), ephid.HID(2)
	oldEntry, err := src.DB.Get(rekeyed)
	if err != nil {
		t.Fatal(err)
	}
	newKeys := crypto.DeriveHostASKeys([]byte("re-keyed host 1"))

	stream := append([][]byte(nil), lane.Frames...)
	nonce := uint64(1 << 20)
	for round := 0; round < 6; round++ {
		for _, size := range equivSizes {
			nonce++
			hid := ephid.HID(1 + rng.Intn(hosts))
			e, err := src.DB.Get(hid)
			if err != nil {
				t.Fatal(err)
			}
			frame := mintFrame(t, src, hid, e.Keys.MAC[:], size, nonce)
			switch rng.Intn(4) {
			case 0: // one bit flipped anywhere: header, MAC field or payload
				frame[rng.Intn(len(frame))] ^= 1 << rng.Intn(8)
			case 1: // a transit hop decrement must not matter
				wire.FrameDecrementHopLimit(frame)
			}
			stream = append(stream, frame)
		}
		// Frames under host 1's old and new keys: which of the two
		// verifies flips with the re-key.
		nonce += 2
		stream = append(stream,
			mintFrame(t, src, rekeyed, oldEntry.Keys.MAC[:], equivSizes[round], nonce-1),
			mintFrame(t, src, rekeyed, newKeys.MAC[:], 128, nonce))
	}
	victimKeys, err := src.DB.Get(victim)
	if err != nil {
		t.Fatal(err)
	}
	victimFrame := mintFrame(t, src, victim, victimKeys.Keys.MAC[:], 200, nonce+1)
	for i := 0; i < 8; i++ {
		stream = append(stream, victimFrame)
	}
	stream = append(stream, make([]byte, 10), append([]byte(nil), victimFrame[:wire.HeaderSize+3]...)) // malformed
	rng.Shuffle(len(stream), func(i, j int) { stream[i], stream[j] = stream[j], stream[i] })

	single := src.Router.NewEgressPipeline()
	batchSizes := []int{1, 7, 8, 9, 64}
	batched := make([]*border.EgressPipeline, len(batchSizes))
	for i := range batched {
		batched[i] = src.Router.NewEgressPipeline()
	}

	seen := make(map[border.Verdict]int)
	check := func(part [][]byte, label string) {
		want := make([]border.Verdict, len(part))
		for i, frame := range part {
			want[i] = slowVerdict(src.Router, frame)
			seen[want[i]]++
			got := border.VerdictDropMalformed
			if wire.ValidFrame(frame) {
				got = single.Process(frame)
			}
			if got != want[i] {
				t.Fatalf("%s frame %d (%d B): Process = %v, EgressVerify = %v", label, i, len(frame), got, want[i])
			}
		}
		for bi, size := range batchSizes {
			var got []border.Verdict
			for at := 0; at < len(part); at += size {
				got = batched[bi].ProcessBatch(part[at:min(at+size, len(part))], got)
			}
			if len(got) != len(want) {
				t.Fatalf("%s batch %d: %d verdicts for %d frames", label, size, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s frame %d (%d B): ProcessBatch(%d) = %v, EgressVerify = %v", label, i, len(part[i]), size, got[i], want[i])
				}
			}
		}
	}

	half := len(stream) / 2
	check(stream[:half], "before")

	src.DB.Put(hostdb.Entry{HID: rekeyed, Keys: newKeys, RegisteredAt: src.Now})
	src.Router.Revoked().Insert(wire.FrameSrcEphID(victimFrame), uint32(src.Now)+3600)

	// The second half, then the first again: every pipeline now holds a
	// key schedule and an EphID open for everything that changed.
	check(stream[half:], "after")
	check(stream[:half], "replayed")

	for _, v := range []border.Verdict{
		border.VerdictForward, border.VerdictDropMalformed, border.VerdictDropBadEphID,
		border.VerdictDropExpired, border.VerdictDropRevoked, border.VerdictDropBadMAC,
	} {
		if seen[v] == 0 {
			t.Errorf("the stream never produced %v", v)
		}
	}
}
