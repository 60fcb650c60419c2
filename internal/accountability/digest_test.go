package accountability

import (
	"bytes"
	"errors"
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
	as := w.ases[src]
	as.engine.SetSend(func(dst wire.Endpoint, payload []byte) error {
		if drop(dst, payload) {
			return nil
		}
		peer, ok := w.ases[dst.AID]
		if !ok || dst.EphID != w.aaEphID[dst.AID] {
			w.dropped++
			return nil
		}
		from := wire.Endpoint{AID: src, EphID: w.aaEphID[src]}
		peer.engine.HandleMessage(from, append([]byte(nil), payload...))
		return nil
	})
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
	st := eng.Stats()
	if st.SnapshotsSent != 1 || st.DeltasSent != 1 {
		t.Fatalf("snapshots=%d deltas=%d, want 1/1", st.SnapshotsSent, st.DeltasSent)
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
	w.mintRevoked(aidA, 61, 100) // expires below
	w.mintRevoked(aidA, 62, 100_000)
	if got := eng.FlushDigest(); got != 2 {
		t.Fatalf("snapshot announced %d entries, want 2", got)
	}
	w.now += 500
	if got := eng.FlushDigest(); got != 1 {
		t.Fatalf("delta announced %d changes, want 1 (the removal)", got)
	}
	st := eng.Stats()
	if st.DeltasSent != 1 || st.RemovalsAnnounced != 1 {
		t.Fatalf("deltas=%d removals=%d, want 1/1", st.DeltasSent, st.RemovalsAnnounced)
	}
	// Removals are advisory: nothing installs from them.
	cs := w.ases[aidC].engine.Stats()
	if cs.DigestsReceived != 2 || cs.EntriesInstalled != 2 {
		t.Fatalf("C received=%d installed=%d, want 2/2", cs.DigestsReceived, cs.EntriesInstalled)
	}
}

// TestGapThenSnapshotRepair drives a lost delta through both repair
// paths: the unicast snapshot request (answered inline by the origin)
// and the periodic anti-entropy snapshot (when the request itself is
// lost).
func TestGapThenSnapshotRepair(t *testing.T) {
	cases := []struct {
		name          string
		snapEvery     int
		dropFlush     int  // A's flush round whose digest is lost toward C
		blockRequests bool // C's snapshot requests to A are lost too
		rounds        int
		wantGaps      uint64
		wantRequests  uint64
		wantServed    uint64
	}{
		// flush1 = first snapshot; the flush-2 delta is lost toward C;
		// flush 3's delta reveals the gap and the unicast snapshot
		// repairs it inline.
		{"unicast-snapshot-repair", 100, 2, false, 4, 1, 1, 1},
		// snapshotEvery=3: flush 3 is a snapshot, the flush-4 delta is
		// lost, flush 5's delta reveals the gap, the repair request is
		// lost too, and the flush-6 anti-entropy snapshot heals.
		{"anti-entropy-repair", 3, 4, true, 6, 1, 1, 0},
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
			cs, as := w.ases[aidC].engine.Stats(), w.ases[aidA].engine.Stats()
			if cs.SeqGaps != tc.wantGaps || cs.SnapshotRequestsSent != tc.wantRequests {
				t.Fatalf("C gaps=%d requests=%d, want %d/%d",
					cs.SeqGaps, cs.SnapshotRequestsSent, tc.wantGaps, tc.wantRequests)
			}
			if as.SnapshotRequestsServed != tc.wantServed {
				t.Fatalf("A served %d snapshots, want %d", as.SnapshotRequestsServed, tc.wantServed)
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
	// The late seq 2 is a replay now: dropped without reinstalling.
	before := eng.Stats().DigestsStale
	eng.HandleMessage(from, stash[0])
	if got := eng.Stats().DigestsStale; got != before+1 {
		t.Fatalf("stale count %d after late delta, want %d", got, before+1)
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

	sa, sb, sc := w.ases[aidA].engine.Stats(), w.ases[aidB].engine.Stats(), w.ases[aidC].engine.Stats()
	if sa.MessagesSent != 1 || sa.RelayBatchesSent != 1 {
		t.Fatalf("A sent %d msgs / %d batches, want 1/1", sa.MessagesSent, sa.RelayBatchesSent)
	}
	if sb.DigestsRelayed != 1 || sb.MessagesSent != 1 {
		t.Fatalf("B relayed %d / sent %d, want 1/1", sb.DigestsRelayed, sb.MessagesSent)
	}
	if sc.MessagesSent != 0 {
		t.Fatalf("C sent %d messages, want 0 (nothing to forward)", sc.MessagesSent)
	}
	if sa.DigestsStale != 0 {
		t.Fatal("A was handed its own digest back")
	}

	// A relay cannot forge: a digest claiming origin A but signed by B
	// is rejected before install and never queued for forwarding.
	victim := w.ases[aidA].sealer.Mint(ephid.Payload{HID: 32, ExpTime: uint32(w.now + 1000)})
	forged := &Digest{Origin: aidA, Seq: 99, IssuedAt: w.now, Kind: DigestSnapshot,
		Entries: []DigestEntry{{EphID: victim, ExpTime: uint32(w.now + 1000)}}}
	forged.Sign(w.ases[aidB].signer)
	payload := append([]byte{MsgDigestBatch}, EncodeDigestBatch([][]byte{forged.Encode()})...)
	before := w.ases[aidC].engine.Stats()
	w.ases[aidC].engine.HandleMessage(wire.Endpoint{AID: aidB, EphID: w.aaEphID[aidB]}, payload)
	after := w.ases[aidC].engine.Stats()
	if after.DigestsInvalid != before.DigestsInvalid+1 {
		t.Fatalf("forged digest not counted invalid: %d -> %d", before.DigestsInvalid, after.DigestsInvalid)
	}
	if w.ases[aidC].router.RemoteRevoked().Matches(victim, aidA) {
		t.Fatal("forged entry installed")
	}
	if after.DigestsRelayed != before.DigestsRelayed {
		t.Fatal("forged digest queued for relay")
	}
}

func TestFlushSurfacesSendFailures(t *testing.T) {
	w := newWorld(t, aidA, aidB, aidC)
	eng := w.ases[aidA].engine
	var events []Event
	eng.SetObserver(func(ev Event) { events = append(events, ev) })
	eng.SetSend(func(dst wire.Endpoint, payload []byte) error {
		return errors.New("link down")
	})
	w.mintRevoked(aidA, 41, 1_000_000)
	if got := eng.FlushDigest(); got != 1 {
		t.Fatalf("flush announced %d entries, want 1", got)
	}
	st := eng.Stats()
	if st.SendFailures != 2 || st.MessagesSent != 0 {
		t.Fatalf("failures=%d sent=%d, want 2/0", st.SendFailures, st.MessagesSent)
	}
	var flush *Event
	for i := range events {
		if events[i].Kind == "digest-flush" {
			flush = &events[i]
		}
	}
	if flush == nil {
		t.Fatal("no digest-flush event")
	}
	if flush.SendFailures != 2 || flush.Entries != 1 {
		t.Fatalf("event failures=%d entries=%d, want 2/1", flush.SendFailures, flush.Entries)
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
		before := eng.Stats().SnapshotRequestsServed
		eng.HandleMessage(row.src, req)
		served := eng.Stats().SnapshotRequestsServed - before
		eng.mu.Lock()
		p, kept := eng.peers[row.src.AID]
		var servedAt int64
		if kept {
			servedAt = p.servedAt
		}
		eng.mu.Unlock()
		if !row.served {
			if len(replies) != 0 || served != 0 || servedAt != 0 {
				t.Fatalf("%s: served: replies=%v served=%d servedAt=%d", row.name, replies, served, servedAt)
			}
			if kept && row.src.AID == aidC {
				t.Fatalf("%s: the requester left a peer record", row.name)
			}
			continue
		}
		if len(replies) != 1 || replies[0] != registered || served != 1 || servedAt == 0 {
			t.Fatalf("%s: replies=%v served=%d servedAt=%d, want one to %v",
				row.name, replies, served, servedAt, registered)
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
