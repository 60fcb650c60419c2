package accountability

import (
	"bytes"
	"errors"
	"slices"
	"testing"

	"apna/internal/ephid"
	"apna/internal/wire"
)

// mintRevoked mints a fresh EphID in aid with the given lifetime and
// feeds it to aid's engine as a local revocation.
func (w *world) mintRevoked(aid ephid.AID, hid ephid.HID, lifetime int64) ephid.EphID {
	w.t.Helper()
	exp := uint32(w.now + lifetime)
	id := w.ases[aid].sealer.Mint(ephid.Payload{HID: hid, ExpTime: exp})
	w.ases[aid].engine.NoteRevoked(id, exp)
	return id
}

// filterSend interposes on src's transport: messages for which drop
// returns true vanish silently — a lossy link, not a transport error.
func (w *world) filterSend(src ephid.AID, drop func(dst wire.Endpoint, payload []byte) bool) {
	w.ases[src].engine.SetSend(w.transport(src, drop))
}

// digestsTo decodes the MsgDigest messages src handed its transport
// for dst's AS, in order.
func (w *world) digestsTo(src, dst ephid.AID) []*Digest {
	w.t.Helper()
	var out []*Digest
	for _, m := range w.sentOf(src, MsgDigest) {
		if m.dst.AID != dst {
			continue
		}
		d, err := DecodeDigest(m.payload[1:])
		if err != nil {
			w.t.Fatal(err)
		}
		out = append(out, d)
	}
	return out
}

func TestDeltaFlushesAnnounceOnlyChurn(t *testing.T) {
	w := newWorld(t, aidA, aidB, aidC)
	eng := w.ases[aidA].engine
	e1 := w.mintRevoked(aidA, 71, 100_000)
	if got := eng.FlushDigest(); got != 1 {
		t.Fatalf("first flush announced %d entries, want 1 (snapshot)", got)
	}
	e2 := w.mintRevoked(aidA, 72, 100_000)
	if got := eng.FlushDigest(); got != 1 {
		t.Fatalf("second flush announced %d entries, want 1 (delta)", got)
	}
	ds := w.digestsTo(aidA, aidC)
	if len(ds) != 2 || ds[0].Kind != DigestSnapshot || ds[1].Kind != DigestDelta {
		t.Fatalf("A sent C %d digests (%+v), want a snapshot then a delta", len(ds), ds)
	}
	rem := w.ases[aidC].router.RemoteRevoked()
	if !rem.Matches(e1, aidA) || !rem.Matches(e2, aidA) {
		t.Fatal("C missing a disseminated revocation")
	}
	// Cumulative flooding would re-install e1 with the second flush; the
	// delta carries only the churn.
	if got := w.ases[aidC].engine.Stats().EntriesInstalled; got != 2 {
		t.Fatalf("C installed %d entries, want 2 (no cumulative re-install)", got)
	}
}

func TestDeltaAnnouncesRemovals(t *testing.T) {
	w := newWorld(t, aidA, aidB, aidC)
	eng := w.ases[aidA].engine
	events := w.events(aidC)
	w.mintRevoked(aidA, 61, 100) // expires below
	w.mintRevoked(aidA, 62, 100_000)
	if got := eng.FlushDigest(); got != 2 {
		t.Fatalf("snapshot announced %d entries, want 2", got)
	}
	w.now += 500
	if got := eng.FlushDigest(); got != 1 {
		t.Fatalf("delta announced %d changes, want 1 (the removal)", got)
	}
	ds := w.digestsTo(aidA, aidC)
	if len(ds) != 2 || ds[1].Kind != DigestDelta || len(ds[1].Entries) != 0 || len(ds[1].Removed) != 1 {
		t.Fatalf("A sent C %d digests (%+v), want the second a delta of one removal", len(ds), ds)
	}
	// Removals are advisory: nothing installs from them.
	if got := countKind(*events, "digest-install"); got != 2 || w.ases[aidC].engine.Stats().EntriesInstalled != 2 {
		t.Fatalf("C installed %d digests of %d entries, want 2/2", got, w.ases[aidC].engine.Stats().EntriesInstalled)
	}
}

// TestGapThenSnapshotRepair drives a lost delta through both repair
// paths: the unicast snapshot request (answered inline by the origin)
// and the periodic anti-entropy snapshot (when the request itself is
// lost). Requests and served snapshots are read off the transport: A
// sends C one digest per flush round plus each snapshot it serves.
func TestGapThenSnapshotRepair(t *testing.T) {
	cases := []struct {
		name          string
		snapEvery     int
		dropFlush     int  // A's flush round whose digest is lost toward C
		blockRequests bool // C's snapshot requests to A are lost too
		rounds        int
		wantRequests  int
		wantServed    int
	}{
		// flush1 = first snapshot; the flush-2 delta is lost toward C;
		// flush 3's delta reveals the gap and the unicast snapshot
		// repairs it inline.
		{"unicast-snapshot-repair", 100, 2, false, 4, 1, 1},
		// snapshotEvery=3: flush 3 is a snapshot, the flush-4 delta is
		// lost, flush 5's delta reveals the gap, the repair request is
		// lost too, and the flush-6 anti-entropy snapshot heals.
		{"anti-entropy-repair", 3, 4, true, 6, 1, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := newWorld(t, aidA, aidB, aidC)
			for _, as := range w.ases {
				as.engine.SetDissemination(ModeMesh, tc.snapEvery)
			}
			round := 0
			w.filterSend(aidA, func(dst wire.Endpoint, payload []byte) bool {
				return dst.AID == aidC && round == tc.dropFlush
			})
			w.filterSend(aidC, func(dst wire.Endpoint, payload []byte) bool {
				return tc.blockRequests && payload[0] == MsgSnapshotRequest
			})
			var ids []ephid.EphID
			for round = 1; round <= tc.rounds; round++ {
				ids = append(ids, w.mintRevoked(aidA, ephid.HID(10+round), 1_000_000))
				want := 1
				if round != 1 && round%tc.snapEvery == 0 {
					want = round // a snapshot carries the full set
				}
				if got := w.ases[aidA].engine.FlushDigest(); got != want {
					t.Fatalf("flush %d announced %d entries, want %d", round, got, want)
				}
				w.now += 30
			}
			rem := w.ases[aidC].router.RemoteRevoked()
			if rem.Len() != len(ids) {
				t.Fatalf("C has %d remote revocations, want %d", rem.Len(), len(ids))
			}
			for i, id := range ids {
				if !rem.Matches(id, aidA) {
					t.Fatalf("C missing revocation %d after repair", i+1)
				}
			}
			if got := len(w.sentOf(aidC, MsgSnapshotRequest)); got != tc.wantRequests {
				t.Fatalf("C sent %d snapshot requests, want %d", got, tc.wantRequests)
			}
			if served := len(w.digestsTo(aidA, aidC)) - tc.rounds; served != tc.wantServed {
				t.Fatalf("A served %d snapshots, want %d", served, tc.wantServed)
			}
		})
	}
}

func TestDigestReorderRepairedBySnapshot(t *testing.T) {
	w := newWorld(t, aidA, aidB, aidC)
	w.ases[aidA].engine.SetDissemination(ModeMesh, 100)
	var stash [][]byte
	capture := false
	w.filterSend(aidA, func(dst wire.Endpoint, payload []byte) bool {
		if capture && dst.AID == aidC {
			stash = append(stash, append([]byte(nil), payload...))
			return true
		}
		return false
	})
	e1 := w.mintRevoked(aidA, 21, 1_000_000)
	w.ases[aidA].engine.FlushDigest() // snapshot seq 1 reaches C
	capture = true
	e2 := w.mintRevoked(aidA, 22, 1_000_000)
	w.ases[aidA].engine.FlushDigest() // delta seq 2, stashed
	e3 := w.mintRevoked(aidA, 23, 1_000_000)
	w.ases[aidA].engine.FlushDigest() // delta seq 3, stashed
	capture = false
	if len(stash) != 2 {
		t.Fatalf("captured %d digests toward C, want 2", len(stash))
	}
	from := wire.Endpoint{AID: aidA, EphID: w.aaEphID[aidA]}
	eng := w.ases[aidC].engine
	// seq 3 arrives first: a gap — the unicast snapshot repairs inline.
	eng.HandleMessage(from, stash[1])
	rem := w.ases[aidC].router.RemoteRevoked()
	for i, id := range []ephid.EphID{e1, e2, e3} {
		if !rem.Matches(id, aidA) {
			t.Fatalf("C missing revocation %d after reorder repair", i+1)
		}
	}
	// The late seq 2 is a replay now: dropped without reinstalling or
	// asking for a repair.
	events := w.events(aidC)
	requests := len(w.sent[aidC])
	eng.HandleMessage(from, stash[0])
	if len(*events) != 0 || len(w.sent[aidC]) != requests {
		t.Fatalf("late delta: events %v, %d messages sent, want none", *events, len(w.sent[aidC])-requests)
	}
	if rem.Len() != 3 {
		t.Fatalf("C has %d remote revocations, want 3", rem.Len())
	}
}

// TestRelayLineOverlay checks ModeRelay along A—B—C: one batch per
// neighbor per tick, no echo to the learned-from peer, no digest handed
// back to its origin, and no way for a relay to forge on behalf of an
// origin.
func TestRelayLineOverlay(t *testing.T) {
	w := newWorld(t, aidA, aidB, aidC)
	for _, as := range w.ases {
		as.engine.SetDissemination(ModeRelay, 100)
	}
	link := func(x, y ephid.AID) {
		w.ases[x].engine.RegisterNeighbor(y, w.aaEphID[y])
		w.ases[y].engine.RegisterNeighbor(x, w.aaEphID[x])
	}
	link(aidA, aidB)
	link(aidB, aidC)

	e1 := w.mintRevoked(aidA, 31, 1_000_000)
	w.ases[aidA].engine.FlushDigest() // A -> B
	if !w.ases[aidB].router.RemoteRevoked().Matches(e1, aidA) {
		t.Fatal("B did not install after one hop")
	}
	if w.ases[aidC].router.RemoteRevoked().Matches(e1, aidA) {
		t.Fatal("C installed before B's relay tick")
	}
	w.ases[aidB].engine.FlushDigest() // relays A's digest to C (not back to A)
	if !w.ases[aidC].router.RemoteRevoked().Matches(e1, aidA) {
		t.Fatal("C did not install after the relay hop")
	}
	w.ases[aidC].engine.FlushDigest() // learned from B: nothing to forward

	for _, row := range []struct {
		src, dst ephid.AID
		origins  []ephid.AID
	}{
		{aidA, aidB, []ephid.AID{aidA}},
		{aidB, aidC, []ephid.AID{aidA}}, // not back to A
	} {
		sent := w.sent[row.src]
		if len(sent) != 1 || sent[0].dst.AID != row.dst || sent[0].payload[0] != MsgDigestBatch {
			t.Fatalf("%v sent %d messages, want one batch to %v", row.src, len(sent), row.dst)
		}
		raws, err := DecodeDigestBatch(sent[0].payload[1:])
		if err != nil {
			t.Fatal(err)
		}
		var origins []ephid.AID
		for _, raw := range raws {
			d, err := DecodeDigest(raw)
			if err != nil {
				t.Fatal(err)
			}
			origins = append(origins, d.Origin)
		}
		if !slices.Equal(origins, row.origins) {
			t.Fatalf("%v's batch carries digests of %v, want %v", row.src, origins, row.origins)
		}
	}
	if len(w.sent[aidC]) != 0 {
		t.Fatalf("C sent %d messages, want 0 (nothing to forward)", len(w.sent[aidC]))
	}

	// A relay cannot forge: a digest claiming origin A but signed by B
	// is rejected before install and never queued for forwarding.
	victim := w.ases[aidA].sealer.Mint(ephid.Payload{HID: 32, ExpTime: uint32(w.now + 1000)})
	forged := &Digest{Origin: aidA, Seq: 99, IssuedAt: w.now, Kind: DigestSnapshot,
		Entries: []DigestEntry{{EphID: victim, ExpTime: uint32(w.now + 1000)}}}
	forged.Sign(w.ases[aidB].signer)
	engC := w.ases[aidC].engine
	if err := engC.HandleDigest(aidB, forged.Encode()); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("forged digest: err = %v, want ErrBadSignature", err)
	}
	payload := append([]byte{MsgDigestBatch}, EncodeDigestBatch([][]byte{forged.Encode()})...)
	engC.HandleMessage(wire.Endpoint{AID: aidB, EphID: w.aaEphID[aidB]}, payload)
	if w.ases[aidC].router.RemoteRevoked().Matches(victim, aidA) {
		t.Fatal("forged entry installed")
	}
	engC.mu.Lock()
	queued := len(engC.outbox)
	engC.mu.Unlock()
	if queued != 0 {
		t.Fatal("forged digest queued for relay")
	}
}

// TestFlushOverAFailingTransport: a transport error toward one peer
// does not stop the flood to the others, each failure is a send-failed
// event naming its peer, and the flush still announces its digest.
func TestFlushOverAFailingTransport(t *testing.T) {
	w := newWorld(t, aidA, aidB, aidC)
	eng := w.ases[aidA].engine
	events := w.events(aidA)
	var tried []ephid.AID
	eng.SetSend(func(dst wire.Endpoint, payload []byte) error {
		tried = append(tried, dst.AID)
		return errors.New("link down")
	})
	w.mintRevoked(aidA, 41, 1_000_000)
	if got := eng.FlushDigest(); got != 1 {
		t.Fatalf("flush announced %d entries, want 1", got)
	}
	if !slices.Equal(tried, []ephid.AID{aidB, aidC}) {
		t.Fatalf("the flood tried %v, want both peers", tried)
	}
	want := []Event{
		{Kind: "send-failed", AID: aidA, Peer: aidB},
		{Kind: "send-failed", AID: aidA, Peer: aidC},
		{Kind: "digest-flush", AID: aidA, Entries: 1},
	}
	if !slices.Equal(*events, want) {
		t.Fatalf("events %v, want %v", *events, want)
	}
}

// TestSnapshotServedToRegisteredPeersOnly: a snapshot request names its
// requester only in the frame's unauthenticated source, so one from an
// AS that is not a registered peer, or from a registered AS at an EphID
// other than its registered agent endpoint, is dropped before the engine
// keeps anything of it or signs anything for it (servedAt is written
// before the signature, so an untouched servedAt means none was made).
// The same request from the registered endpoint is served, there.
func TestSnapshotServedToRegisteredPeersOnly(t *testing.T) {
	w := newWorld(t, aidA, aidB)
	eng := w.ases[aidA].engine
	w.mintRevoked(aidA, 31, 1_000_000)
	eng.FlushDigest()
	var replies []wire.Endpoint
	eng.SetSend(func(dst wire.Endpoint, payload []byte) error {
		replies = append(replies, dst)
		return nil
	})
	req := append([]byte{MsgSnapshotRequest}, EncodeSnapshotRequest(aidA)...)
	registered := wire.Endpoint{AID: aidB, EphID: w.aaEphID[aidB]}
	impostor := wire.Endpoint{AID: aidB, EphID: ephid.EphID{0xEE}}
	for _, row := range []struct {
		name   string
		src    wire.Endpoint
		served bool
	}{
		// The refused rows come first: a served request starts the
		// spacing that would refuse the rows after it anyway.
		{"unregistered AID", wire.Endpoint{AID: aidC, EphID: ephid.EphID{0xEE}}, false},
		{"registered AID, other EphID", impostor, false},
		{"registered endpoint", registered, true},
	} {
		replies = replies[:0]
		eng.HandleMessage(row.src, req)
		eng.mu.Lock()
		p, kept := eng.peers[row.src.AID]
		var servedAt int64
		if kept {
			servedAt = p.servedAt
		}
		eng.mu.Unlock()
		if !row.served {
			if len(replies) != 0 || servedAt != 0 {
				t.Fatalf("%s: served: replies=%v servedAt=%d", row.name, replies, servedAt)
			}
			if kept && row.src.AID == aidC {
				t.Fatalf("%s: the requester left a peer record", row.name)
			}
			continue
		}
		if len(replies) != 1 || replies[0] != registered || servedAt == 0 {
			t.Fatalf("%s: replies=%v servedAt=%d, want one to %v",
				row.name, replies, servedAt, registered)
		}
	}
}

func TestDigestBatchCodec(t *testing.T) {
	raws := [][]byte{[]byte("alpha"), {}, []byte("gamma-gamma")}
	enc := EncodeDigestBatch(raws)
	dec, err := DecodeDigestBatch(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec) != len(raws) {
		t.Fatalf("decoded %d elements, want %d", len(dec), len(raws))
	}
	for i := range raws {
		if !bytes.Equal(dec[i], raws[i]) {
			t.Fatalf("element %d mismatch", i)
		}
	}
	if got, err := DecodeDigestBatch(EncodeDigestBatch(nil)); err != nil || len(got) != 0 {
		t.Fatalf("empty batch: %v, %d elements", err, len(got))
	}
	bad := [][]byte{
		append(append([]byte(nil), enc...), 0), // trailing byte
		enc[:len(enc)-1],                       // truncated
		{0xff, 0xff},                           // count over MaxDigestBatch
		{0x00},                                 // shorter than the count field
	}
	for i, b := range bad {
		if _, err := DecodeDigestBatch(b); err == nil {
			t.Fatalf("malformed batch %d accepted", i)
		}
	}
}

// TestDecodersRejectWithErrBadDigest drives every rejecting branch of
// the three digest-plane decoders, one row each, and requires the error
// to wrap ErrBadDigest, which the engine counts malformed input by.
func TestDecodersRejectWithErrBadDigest(t *testing.T) {
	d := Digest{Origin: 1, Seq: 2, IssuedAt: 3, Kind: DigestDelta,
		Entries: []DigestEntry{{ExpTime: 4}}, Removed: make([]ephid.EphID, 1)}
	valid := d.Encode()
	if _, err := DecodeDigest(valid); err != nil {
		t.Fatalf("valid digest rejected: %v", err)
	}
	edit := func(f func(b []byte) []byte) []byte { return f(append([]byte(nil), valid...)) }
	batch := EncodeDigestBatch([][]byte{[]byte("x")})
	rows := []struct {
		name   string
		decode func([]byte) error
		data   []byte
	}{
		{"digest shorter than its fixed fields", decodeDigest, valid[:20]},
		{"digest of an unknown kind", decodeDigest, edit(func(b []byte) []byte { b[20] = 9; return b })},
		{"digest entry count past its bytes", decodeDigest, edit(func(b []byte) []byte { b[24] = 200; return b })},
		{"digest length off its counts", decodeDigest, append(edit(func(b []byte) []byte { return b }), 0)},
		{"snapshot with removals", decodeDigest, edit(func(b []byte) []byte { b[20] = DigestSnapshot; return b })},
		{"batch shorter than its count", decodeBatch, batch[:1]},
		{"batch over MaxDigestBatch", decodeBatch, []byte{0x40, 0x01}},
		{"batch truncated before an element's length", decodeBatch, batch[:4]},
		{"batch element past the body", decodeBatch, batch[:len(batch)-1]},
		{"batch with trailing bytes", decodeBatch, append(append([]byte(nil), batch...), 0)},
		{"snapshot request of the wrong length", decodeSnapshotRequest, EncodeSnapshotRequest(7)[:3]},
	}
	for _, r := range rows {
		if err := r.decode(r.data); !errors.Is(err, ErrBadDigest) {
			t.Errorf("%s: err = %v, want ErrBadDigest", r.name, err)
		}
	}
}

func decodeDigest(b []byte) error { _, err := DecodeDigest(b); return err }

func decodeBatch(b []byte) error { _, err := DecodeDigestBatch(b); return err }

func decodeSnapshotRequest(b []byte) error { _, err := DecodeSnapshotRequest(b); return err }
