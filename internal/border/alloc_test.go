package border

import (
	"encoding/binary"
	"testing"

	"apna/internal/crypto"
	"apna/internal/ephid"
	"apna/internal/hostdb"
	"apna/internal/netsim"
	"apna/internal/wire"
)

// Allocation-regression tests for the forwarding fast path: after one
// warm-up packet fills the per-worker caches, the steady state must not
// touch the heap at all — the precondition for "as fast as the hardware
// allows" forwarding. These tests are the gate: CI greps no benchmark
// output for allocations.

func egressFrame(t *testing.T, f *fixture) []byte {
	t.Helper()
	var remoteDst ephid.EphID
	remoteDst[0] = 0xEE
	return f.hostFrame(t, remoteAID, remoteDst, 0)
}

func ingressFrame(t *testing.T, f *fixture) []byte {
	t.Helper()
	// A populated remote revocation list makes the per-packet
	// remote-source check a real lookup, not a trivially-empty map hit —
	// the steady state once revocation digests have been installed.
	for i := 0; i < 8; i++ {
		e := f.sealer.Mint(ephid.Payload{HID: 999, ExpTime: uint32(f.now) + 600})
		f.router.ApplyRemote(e, localAID, uint32(f.now)+600)
	}
	dst := f.sealer.Mint(ephid.Payload{HID: f.hid, ExpTime: uint32(f.now) + 600})
	return f.hostFrame(t, localAID, dst, 0)
}

func TestEgressPipelineProcessZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are unreliable under the race detector")
	}
	f := newFixture(t)
	frame := egressFrame(t, f)
	pipe := f.router.NewEgressPipeline()
	if v := pipe.Process(frame); v != VerdictForward { // warm caches
		t.Fatalf("warm-up verdict %v", v)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if v := pipe.Process(frame); v != VerdictForward {
			t.Fatalf("verdict %v", v)
		}
	})
	if allocs != 0 {
		t.Fatalf("EgressPipeline.Process allocates %.1f times per packet", allocs)
	}
}

// revokeOthers puts n EphIDs no test frame carries on the router's local
// list and n on its remote list under the AS the test frames claim as
// source: every revocation probe of a test frame then misses in a table
// of thousands of entries, fwd_churn's steady state.
func revokeOthers(f *fixture, n int) {
	for i := 0; i < n; i++ {
		f.router.Revoked().Insert(revKey('L', i), uint32(f.now)+600)
		f.router.ApplyRemote(revKey('R', i), localAID, uint32(f.now)+600)
	}
}

// listSizes are the entries revokeOthers puts on each list before a
// zero-allocation test: none, and enough for the miss path.
var listSizes = []int{0, 10_000}

func TestEgressPipelineProcessBatchZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are unreliable under the race detector")
	}
	for _, revoked := range listSizes {
		f := newFixture(t)
		revokeOthers(f, revoked)
		// A full engine batch: eight rounds of the 8-lane MAC kernel, with
		// one bad MAC so the verdict patch-up runs too.
		frames := make([][]byte, 64)
		for i := range frames {
			frames[i] = egressFrame(t, f)
		}
		const bad = 37
		frames[bad][len(frames[bad])-1] ^= 1
		pipe := f.router.NewEgressPipeline()
		dst := make([]Verdict, 0, len(frames))
		dst = pipe.ProcessBatch(frames, dst) // warm caches
		allocs := testing.AllocsPerRun(200, func() {
			dst = pipe.ProcessBatch(frames, dst[:0])
			for i, v := range dst {
				want := VerdictForward
				if i == bad {
					want = VerdictDropBadMAC
				}
				if v != want {
					t.Fatalf("%d revoked: frame %d: verdict %v, want %v", revoked, i, v, want)
				}
			}
		})
		if allocs != 0 {
			t.Fatalf("%d revoked: EgressPipeline.ProcessBatch allocates %.1f times per batch", revoked, allocs)
		}
	}
}

// TestEgressVerifyZeroAllocs pins the slow path's side of the same
// invariant: the router's single-packet egress check keys its packet
// MAC on the stack and allocates nothing else. Where the AES-NI kernel
// runs, keying allocates nothing either; the portable build's key
// schedule is crypto/aes's and lives on the heap, so the bound is
// whatever keying a packet MAC costs on this build.
func TestEgressVerifyZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are unreliable under the race detector")
	}
	f := newFixture(t)
	frame := egressFrame(t, f)
	if v, _ := f.router.EgressVerify(frame); v != VerdictForward {
		t.Fatalf("warm-up verdict %v", v)
	}
	keying := testing.AllocsPerRun(200, func() {
		var pm wire.PacketMAC
		if err := pm.Init(f.keys.MAC[:]); err != nil {
			t.Fatal(err)
		}
	})
	allocs := testing.AllocsPerRun(200, func() {
		if v, _ := f.router.EgressVerify(frame); v != VerdictForward {
			t.Fatalf("verdict %v", v)
		}
	})
	if allocs != keying {
		t.Fatalf("EgressVerify allocates %.1f times per packet; keying its packet MAC accounts for %.1f", allocs, keying)
	}
}

// TestEgressMACCacheBounded drives more distinct senders through one
// pipeline than its key-schedule cache may hold: the cache must stay
// within its bound, and the wholesale reset that keeps it there must
// not change a single verdict.
func TestEgressMACCacheBounded(t *testing.T) {
	f := newFixture(t)
	const hosts = maxCachedMACs + 1000
	entries := make([]hostdb.Entry, hosts)
	for i := range entries {
		var keys crypto.HostASKeys
		binary.BigEndian.PutUint32(keys.MAC[:], uint32(i))
		entries[i] = hostdb.Entry{HID: ephid.HID(1000 + i), Keys: keys, RegisteredAt: f.now}
	}
	f.db.PutBatch(entries)

	var remoteDst ephid.EphID
	remoteDst[0] = 0xEE
	pipe := f.router.NewEgressPipeline()
	batch := make([][]byte, 0, 64)
	var verdicts []Verdict
	flush := func(first int) {
		verdicts = pipe.ProcessBatch(batch, verdicts[:0])
		for j, v := range verdicts {
			// Every seventh sender's frame is tampered with.
			want := VerdictForward
			if (first+j)%7 == 0 {
				want = VerdictDropBadMAC
			}
			if v != want {
				t.Fatalf("sender %d (cache holds %d): verdict %v, want %v", first+j, pipe.macs.n, v, want)
			}
		}
		if pipe.macs.n > maxCachedMACs {
			t.Fatalf("macs cache holds %d entries, bound is %d", pipe.macs.n, maxCachedMACs)
		}
		batch = batch[:0]
	}
	var pm wire.PacketMAC
	for i, e := range entries {
		p := wire.Packet{Header: wire.Header{
			HopLimit: wire.DefaultHopLimit, Nonce: uint64(i), SrcAID: localAID, DstAID: remoteAID,
			SrcEphID: f.sealer.Mint(ephid.Payload{HID: e.HID, ExpTime: uint32(f.now) + 600}),
			DstEphID: remoteDst,
		}}
		frame, err := p.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if err := pm.Init(e.Keys.MAC[:]); err != nil {
			t.Fatal(err)
		}
		pm.Apply(frame)
		if i%7 == 0 {
			frame[wire.HeaderSize-1] ^= 1
		}
		if batch = append(batch, frame); len(batch) == cap(batch) {
			flush(i + 1 - len(batch))
		}
	}
	flush(hosts - len(batch))
	if pipe.macs.n == 0 || pipe.macs.n >= hosts-maxCachedMACs+64 {
		t.Fatalf("macs cache holds %d entries after %d senders: it was never reset", pipe.macs.n, hosts)
	}
	// A sender cached before the reset is still served after it.
	first := entries[0]
	p := wire.Packet{Header: wire.Header{
		HopLimit: wire.DefaultHopLimit, SrcAID: localAID, DstAID: remoteAID,
		SrcEphID: f.sealer.Mint(ephid.Payload{HID: first.HID, ExpTime: uint32(f.now) + 600}),
	}}
	frame, _ := p.Encode()
	if err := pm.Init(first.Keys.MAC[:]); err != nil {
		t.Fatal(err)
	}
	pm.Apply(frame)
	if v := pipe.Process(frame); v != VerdictForward {
		t.Fatalf("evicted sender's next frame: %v", v)
	}
}

func TestIngressVerifyZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are unreliable under the race detector")
	}
	f := newFixture(t)
	frame := ingressFrame(t, f)
	if v, _ := f.router.IngressVerify(frame); v != VerdictForward {
		t.Fatalf("warm-up verdict %v", v)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if v, _ := f.router.IngressVerify(frame); v != VerdictForward {
			t.Fatalf("verdict %v", v)
		}
	})
	if allocs != 0 {
		t.Fatalf("IngressVerify allocates %.1f times per packet", allocs)
	}
}

func TestIngressPipelineProcessBatchZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are unreliable under the race detector")
	}
	for _, revoked := range listSizes {
		f := newFixture(t)
		revokeOthers(f, revoked)
		frames := [][]byte{ingressFrame(t, f), ingressFrame(t, f)}
		pipe := f.router.NewIngressPipeline()
		dst := make([]IngressResult, 0, len(frames))
		dst = pipe.ProcessBatch(frames, dst) // warm caches
		allocs := testing.AllocsPerRun(200, func() {
			dst = pipe.ProcessBatch(frames, dst[:0])
			for _, res := range dst {
				if res.Verdict != VerdictForward || res.HID != f.hid {
					t.Fatalf("%d revoked: result %+v", revoked, res)
				}
			}
			if v, hid := pipe.Process(frames[0]); v != VerdictForward || hid != f.hid {
				t.Fatalf("%d revoked: verdict %v, host %v", revoked, v, hid)
			}
		})
		if allocs != 0 {
			t.Fatalf("%d revoked: IngressPipeline.ProcessBatch and Process allocate %.1f times per batch", revoked, allocs)
		}
	}
}

func TestRevocationContainsZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are unreliable under the race detector")
	}
	var l RevocationList
	var e ephid.EphID
	e[0] = 5
	l.Insert(e, 1<<30)
	allocs := testing.AllocsPerRun(200, func() {
		if !l.Contains(e) {
			t.Fatal("missing entry")
		}
	})
	if allocs != 0 {
		t.Fatalf("RevocationList.Contains allocates %.1f times per lookup", allocs)
	}
}

// TestPortHandlersRunZeroAllocs pins the same for the routers on the
// simulator: 64 frames that arrive at one instant go through a side's
// HandleFrames as one run — ProcessBatch, then 64 Forwards — and once
// the router's scratch and the event queue have grown to hold a run,
// none of it touches the heap.
func TestPortHandlersRunZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are unreliable under the race detector")
	}
	for _, side := range []string{"internal", "external"} {
		f := newFixture(t)
		tables := f.router.tables.Load()
		// Frames enter at the far end of a link of the side and leave the
		// router toward the far end of the other link, which keeps the
		// buffers it is delivered for the next round.
		in, out, frame := tables.hostPorts[f.hid].Link().B(), tables.asPorts[remoteAID].Link().B(), egressFrame
		if side == "external" {
			in, out, frame = out, in, ingressFrame
		}
		frames := make([][]byte, 64)
		for i := range frames {
			frames[i] = frame(t, f)
		}
		got := make([][]byte, 0, len(frames))
		out.Attach(netsim.HandlerFunc(func(frame []byte, _ *netsim.Port) { got = append(got, frame) }), "sink")
		run := func() {
			got = got[:0]
			for _, frame := range frames {
				in.Forward(frame)
			}
			f.sim.Run(1 << 10)
			if len(got) != len(frames) || len(f.router.valid) != len(frames) {
				t.Fatalf("%s side: %d of %d frames came through, the last run had %d", side, len(got), len(frames), len(f.router.valid))
			}
			copy(frames, got)
		}
		run() // warm caches, grow the scratch and the queue
		if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
			t.Errorf("%s side: a run of %d frames allocates %.1f times", side, len(frames), allocs)
		}
	}
}
