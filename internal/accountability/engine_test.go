package accountability

import (
	"bytes"
	"errors"
	"slices"
	"strings"
	"testing"

	"apna/internal/aa"
	"apna/internal/border"
	"apna/internal/cert"
	"apna/internal/crypto"
	"apna/internal/ephid"
	"apna/internal/hostdb"
	"apna/internal/rpki"
	"apna/internal/wire"
)

// testAS is one hand-built AS: sealer, host database, agent, one border
// router and an accountability engine, all sharing one trust store.
type testAS struct {
	aid    ephid.AID
	secret *crypto.ASSecret
	sealer *ephid.Sealer
	signer *crypto.Signer
	db     *hostdb.DB
	agent  *aa.Agent
	router *border.Router
	engine *Engine
}

// world is a hand-built multi-AS control plane with a direct in-process
// transport between engines (no simulator: unit tests drive the
// protocol functions synchronously).
type world struct {
	t     *testing.T
	now   int64
	trust *rpki.TrustStore
	ases  map[ephid.AID]*testAS
	// aaEphID maps an AS to its agent's (synthetic) EphID, used as the
	// AAEphID in issued certificates and as the transport address.
	aaEphID map[ephid.AID]ephid.EphID
	// dropped counts sends the transport could not route.
	dropped int
	// sent logs, per sending AS and in order, every message an engine
	// handed its transport, delivered or not.
	sent map[ephid.AID][]sentMsg
}

// sentMsg is one message an engine handed its transport.
type sentMsg struct {
	dst     wire.Endpoint
	payload []byte
}

// transport is src's direct transport: it logs every message, drops
// the ones drop (if any) returns true for — a lossy link, not a
// transport error — and hands the rest synchronously to the addressed
// engine, with src's agent endpoint as source.
func (w *world) transport(src ephid.AID, drop func(dst wire.Endpoint, payload []byte) bool) func(wire.Endpoint, []byte) error {
	return func(dst wire.Endpoint, payload []byte) error {
		w.sent[src] = append(w.sent[src], sentMsg{dst: dst, payload: append([]byte(nil), payload...)})
		if drop != nil && drop(dst, payload) {
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
	}
}

// sentOf returns the messages of the given kind that src handed its
// transport, in order.
func (w *world) sentOf(src ephid.AID, kind byte) []sentMsg {
	var out []sentMsg
	for _, m := range w.sent[src] {
		if m.payload[0] == kind {
			out = append(out, m)
		}
	}
	return out
}

// events records every event the AS's engine emits from now on.
func (w *world) events(aid ephid.AID) *[]Event {
	var evs []Event
	w.ases[aid].engine.SetObserver(func(ev Event) { evs = append(evs, ev) })
	return &evs
}

// countKind counts the events of one kind.
func countKind(evs []Event, kind string) int {
	n := 0
	for _, ev := range evs {
		if ev.Kind == kind {
			n++
		}
	}
	return n
}

func newWorld(t *testing.T, aids ...ephid.AID) *world {
	t.Helper()
	auth, err := rpki.NewAuthority()
	if err != nil {
		t.Fatal(err)
	}
	w := &world{
		t: t, now: 1_000_000,
		trust:   rpki.NewTrustStore(auth.PublicKey()),
		ases:    make(map[ephid.AID]*testAS),
		aaEphID: make(map[ephid.AID]ephid.EphID),
		sent:    make(map[ephid.AID][]sentMsg),
	}
	nowFn := func() int64 { return w.now }
	for _, aid := range aids {
		aid := aid
		secret, err := crypto.NewASSecret()
		if err != nil {
			t.Fatal(err)
		}
		sealer, err := ephid.NewSealer(secret)
		if err != nil {
			t.Fatal(err)
		}
		signer, err := crypto.GenerateSigner()
		if err != nil {
			t.Fatal(err)
		}
		dh, err := crypto.GenerateKeyPair()
		if err != nil {
			t.Fatal(err)
		}
		rec, err := auth.Certify(aid, signer.PublicKey(), dh.PublicKey(), w.now+1<<31)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.trust.Add(rec); err != nil {
			t.Fatal(err)
		}
		db := hostdb.New()
		agent := aa.New(aa.Config{AID: aid, StrikeLimit: 7}, sealer, db, secret, w.trust, nowFn)
		router, err := border.New(aid, sealer, db, secret, nowFn)
		if err != nil {
			t.Fatal(err)
		}
		agent.AddRouter(router)
		engine := New(Config{AID: aid, Signer: signer, Trust: w.trust, Agent: agent, Now: nowFn})
		engine.AddRouter(router)
		agent.SetRevocationHook(engine.NoteRevoked)
		as := &testAS{aid: aid, secret: secret, sealer: sealer, signer: signer,
			db: db, agent: agent, router: router, engine: engine}
		w.ases[aid] = as
		w.aaEphID[aid] = sealer.Mint(ephid.Payload{HID: 1, ExpTime: uint32(w.now) + 1<<30})
	}
	for _, as := range w.ases {
		as.engine.SetSend(w.transport(as.aid, nil))
		for aid, ep := range w.aaEphID {
			as.engine.RegisterPeer(aid, ep)
		}
	}
	return w
}

// identity is one host identity: an EphID with its certificate and
// keys, plus the MAC key registered in its AS's host database.
type identity struct {
	hid    ephid.HID
	ephID  ephid.EphID
	cert   cert.Cert
	sig    *crypto.Signer
	macKey [crypto.SymKeySize]byte
}

// addHost registers a host and issues it one EphID with lifetime
// seconds of validity (negative lifetimes mint an already-expired
// EphID).
func (w *world) addHost(aid ephid.AID, hid ephid.HID, lifetime int64) *identity {
	w.t.Helper()
	as := w.ases[aid]
	keys := crypto.DeriveHostASKeys([]byte{byte(hid), byte(aid), 0x5a})
	as.db.Put(hostdb.Entry{HID: hid, Keys: keys, RegisteredAt: w.now})
	exp := uint32(w.now + lifetime)
	id := &identity{hid: hid, macKey: keys.MAC}
	id.ephID = as.sealer.Mint(ephid.Payload{HID: hid, ExpTime: exp})
	dh, err := crypto.GenerateKeyPair()
	if err != nil {
		w.t.Fatal(err)
	}
	id.sig, err = crypto.GenerateSigner()
	if err != nil {
		w.t.Fatal(err)
	}
	id.cert = cert.Cert{
		Kind: ephid.KindData, EphID: id.ephID, ExpTime: exp,
		AID: aid, AAEphID: w.aaEphID[aid],
	}
	copy(id.cert.DHPub[:], dh.PublicKey())
	copy(id.cert.SigPub[:], id.sig.PublicKey())
	id.cert.Sign(as.signer)
	return id
}

// evidence builds a validly-MACed frame from src to dst.
func (w *world) evidence(src, dst *identity, payload []byte) []byte {
	w.t.Helper()
	p := wire.Packet{
		Header: wire.Header{
			NextProto: wire.ProtoSession, HopLimit: wire.DefaultHopLimit, Nonce: 9,
			SrcAID: src.cert.AID, DstAID: dst.cert.AID,
			SrcEphID: src.ephID, DstEphID: dst.ephID,
		},
		Payload: payload,
	}
	frame, err := p.Encode()
	if err != nil {
		w.t.Fatal(err)
	}
	pm, err := wire.NewPacketMAC(src.macKey[:])
	if err != nil {
		w.t.Fatal(err)
	}
	pm.Apply(frame)
	return frame
}

// complain runs the full complaint flow from the victim's engine and
// returns the receipt delivered to the done callback.
func (w *world) complain(victim, offender *identity, frame []byte) (*Receipt, error) {
	w.t.Helper()
	c := NewComplaint(frame, &victim.cert, &offender.cert, victim.sig)
	var got *Receipt
	err := w.ases[victim.cert.AID].engine.HandleComplaint(c, func(r *Receipt, err error) {
		if err != nil {
			w.t.Fatalf("complaint callback error: %v", err)
		}
		got = r
	})
	return got, err
}

const (
	aidA = ephid.AID(100) // source (offender) AS
	aidB = ephid.AID(200) // victim AS
	aidC = ephid.AID(300) // uninvolved third AS
)

func strikes(t *testing.T, as *testAS, hid ephid.HID) int {
	t.Helper()
	e, err := as.db.Get(hid)
	if err != nil {
		t.Fatal(err)
	}
	return e.Strikes
}

func TestCrossASShutoffEndToEnd(t *testing.T) {
	w := newWorld(t, aidA, aidB)
	offender := w.addHost(aidA, 7, 600)
	victim := w.addHost(aidB, 8, 600)
	frame := w.evidence(offender, victim, []byte("spam"))

	r, err := w.complain(victim, offender, frame)
	if err != nil {
		t.Fatal(err)
	}
	if r == nil || r.Status != StatusRevoked {
		t.Fatalf("receipt %+v, want StatusRevoked", r)
	}
	if r.Issuer != aidA || r.SrcEphID != offender.ephID {
		t.Fatalf("receipt names %v/%v, want %v/%v", r.Issuer, r.SrcEphID, aidA, offender.ephID)
	}
	if err := r.Verify(w.trust, w.now); err != nil {
		t.Fatalf("receipt verification: %v", err)
	}
	// Source AS: local revocation; victim AS: immediate remote install.
	if !w.ases[aidA].router.Revoked().Contains(offender.ephID) {
		t.Fatal("offender EphID not revoked at the source border")
	}
	if !w.ases[aidB].router.RemoteRevoked().Contains(offender.ephID) {
		t.Fatal("offender EphID not installed in the victim's remote list")
	}
	if got := strikes(t, w.ases[aidA], 7); got != 1 {
		t.Fatalf("offender strikes = %d, want 1", got)
	}
}

func TestComplaintWithForgedSignatureRejected(t *testing.T) {
	w := newWorld(t, aidA, aidB)
	offender := w.addHost(aidA, 7, 600)
	victim := w.addHost(aidB, 8, 600)
	frame := w.evidence(offender, victim, []byte("spam"))

	// Signed with a key that is not the victim's certificate key.
	wrong, err := crypto.GenerateSigner()
	if err != nil {
		t.Fatal(err)
	}
	c := NewComplaint(frame, &victim.cert, &offender.cert, wrong)
	err = w.ases[aidB].engine.HandleComplaint(c, func(*Receipt, error) {
		t.Fatal("rejected complaint must not resolve")
	})
	if !errors.Is(err, ErrComplaintProof) {
		t.Fatalf("err = %v, want ErrComplaintProof", err)
	}
	if w.ases[aidA].router.Revoked().Contains(offender.ephID) {
		t.Fatal("forged complaint caused a revocation")
	}
}

// TestComplaintRejectionsObservable: every reason HandleComplaint
// refuses a complaint for shows twice, as the typed error it returns and
// as exactly one "complaint-rejected" event; no callback fires and no
// request leaves the victim's AS.
func TestComplaintRejectionsObservable(t *testing.T) {
	for _, tc := range []struct {
		name string
		// complaint builds the complaint filed at the victim AS (aidB).
		complaint func(w *world, offender, victim *identity) *Complaint
		want      error
		reason    string // in the error's text: the check that refused it
	}{
		{"foreign cert", func(w *world, offender, _ *identity) *Complaint {
			outsider := w.addHost(aidA, 9, 600)
			return NewComplaint(w.evidence(offender, outsider, []byte("spam")), &outsider.cert, &offender.cert, outsider.sig)
		}, ErrNotVictimAS, "cert from"},
		{"forged victim certificate", func(w *world, offender, victim *identity) *Complaint {
			forged := victim.cert
			forged.Signature[0] ^= 0xff
			return NewComplaint(w.evidence(offender, victim, []byte("spam")), &forged, &offender.cert, victim.sig)
		}, ErrComplaintProof, "victim certificate"},
		{"bad victim signature", func(w *world, offender, victim *identity) *Complaint {
			wrong, err := crypto.GenerateSigner()
			if err != nil {
				t.Fatal(err)
			}
			return NewComplaint(w.evidence(offender, victim, []byte("spam")), &victim.cert, &offender.cert, wrong)
		}, ErrComplaintProof, "victim signature"},
		{"evidence addressed to another host", func(w *world, offender, victim *identity) *Complaint {
			other := w.addHost(aidB, 9, 600)
			return NewComplaint(w.evidence(offender, other, []byte("spam")), &victim.cert, &offender.cert, victim.sig)
		}, ErrComplaintProof, "not addressed to complainant"},
		{"offender cert not the evidence's source", func(w *world, offender, victim *identity) *Complaint {
			bystander := w.addHost(aidA, 9, 600)
			return NewComplaint(w.evidence(offender, victim, []byte("spam")), &victim.cert, &bystander.cert, victim.sig)
		}, ErrComplaintProof, "does not match evidence source"},
		{"unresolvable offender AS", func(w *world, offender, victim *identity) *Complaint {
			ghost := *offender
			ghost.cert.AID = 999 // in no trust store
			return NewComplaint(w.evidence(&ghost, victim, []byte("spam")), &victim.cert, &ghost.cert, victim.sig)
		}, ErrComplaintProof, "resolving offender AS"},
		{"offender certificate with a bad signature", func(w *world, offender, victim *identity) *Complaint {
			forged := offender.cert
			forged.Signature[0] ^= 0xff
			return NewComplaint(w.evidence(offender, victim, []byte("spam")), &victim.cert, &forged, victim.sig)
		}, ErrComplaintProof, "offender certificate:"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := newWorld(t, aidA, aidB)
			offender := w.addHost(aidA, 7, 600)
			victim := w.addHost(aidB, 8, 600)
			c := tc.complaint(w, offender, victim)
			var events []Event
			w.ases[aidB].engine.SetObserver(func(ev Event) { events = append(events, ev) })
			err := w.ases[aidB].engine.HandleComplaint(c, func(*Receipt, error) {
				t.Fatal("a rejected complaint resolved")
			})
			if !errors.Is(err, tc.want) || !strings.Contains(err.Error(), tc.reason) {
				t.Fatalf("err = %v, want %v for %q", err, tc.want, tc.reason)
			}
			if len(events) != 1 || events[0].Kind != "complaint-rejected" || events[0].AID != aidB {
				t.Fatalf("events %+v, want one complaint-rejected at %v", events, aidB)
			}
			if len(w.sent[aidB]) != 0 {
				t.Fatalf("the rejected complaint went on: %d messages sent", len(w.sent[aidB]))
			}
			if w.ases[aidA].router.Revoked().Contains(offender.ephID) {
				t.Fatal("a rejected complaint caused a revocation")
			}
		})
	}
}

func TestForgedMACProofRejectedAtSource(t *testing.T) {
	w := newWorld(t, aidA, aidB)
	offender := w.addHost(aidA, 7, 600)
	victim := w.addHost(aidB, 8, 600)
	// A frame the offender never sent: valid addressing, wrong MAC (the
	// framing attack of Section VI-C carried into the complaint path).
	frame := w.evidence(offender, victim, []byte("framed"))
	frame[len(frame)-1] ^= 0xff

	r, err := w.complain(victim, offender, frame)
	if err != nil {
		t.Fatal(err)
	}
	if r == nil || r.Status != StatusRejected {
		t.Fatalf("receipt %+v, want StatusRejected", r)
	}
	if w.ases[aidA].router.Revoked().Contains(offender.ephID) {
		t.Fatal("forged MAC proof caused a revocation")
	}
	if got := strikes(t, w.ases[aidA], 7); got != 0 {
		t.Fatalf("offender strikes = %d, want 0", got)
	}
}

func TestExpiredEphIDShutoffIsNoOpReceipt(t *testing.T) {
	w := newWorld(t, aidA, aidB)
	offender := w.addHost(aidA, 7, -10) // already expired
	victim := w.addHost(aidB, 8, 600)
	frame := w.evidence(offender, victim, []byte("late"))

	r, err := w.complain(victim, offender, frame)
	if err != nil {
		t.Fatal(err)
	}
	if r == nil || r.Status != StatusExpiredNoOp {
		t.Fatalf("receipt %+v, want StatusExpiredNoOp", r)
	}
	if w.ases[aidA].router.Revoked().Contains(offender.ephID) {
		t.Fatal("expired EphID was pointlessly revoked")
	}
	if got := strikes(t, w.ases[aidA], 7); got != 0 {
		t.Fatalf("offender strikes = %d, want 0 for a no-op", got)
	}
}

func TestDuplicateShutoffRequestsIdempotent(t *testing.T) {
	w := newWorld(t, aidA, aidB)
	offender := w.addHost(aidA, 7, 600)
	victim := w.addHost(aidB, 8, 600)
	frame := w.evidence(offender, victim, []byte("spam"))

	// Build the signed AA-to-AA request by hand so the exact bytes can
	// be replayed.
	c := NewComplaint(frame, &victim.cert, &offender.cert, victim.sig)
	enc, err := c.Encode()
	if err != nil {
		t.Fatal(err)
	}
	req := &ShutoffRequest{Origin: aidB, Seq: 1, IssuedAt: w.now, Complaint: enc}
	req.Sign(w.ases[aidB].signer)
	raw := req.Encode()

	src := w.ases[aidA].engine
	r1, err := src.HandleShutoffRequest(raw)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Status != StatusRevoked {
		t.Fatalf("first request: %v, want StatusRevoked", r1.Status)
	}
	// Bit-exact replay: answered from the cache, no second strike.
	r2, err := src.HandleShutoffRequest(append([]byte(nil), raw...))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(r1.Encode(), r2.Encode()) {
		t.Fatal("replayed request did not return the cached receipt")
	}
	// A fresh request about the same EphID (retry after a lost
	// receipt): a no-op receipt, still no second strike.
	req3 := &ShutoffRequest{Origin: aidB, Seq: 2, IssuedAt: w.now + 1, Complaint: enc}
	req3.Sign(w.ases[aidB].signer)
	r3, err := src.HandleShutoffRequest(req3.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if r3.Status != StatusAlreadyRevoked {
		t.Fatalf("retry request: %v, want StatusAlreadyRevoked", r3.Status)
	}
	if got := strikes(t, w.ases[aidA], 7); got != 1 {
		t.Fatalf("offender strikes = %d, want exactly 1", got)
	}
	st := src.Stats()
	if st.RequestsDuplicate != 1 || st.Revocations != 1 {
		t.Fatalf("stats %+v, want 1 duplicate and 1 revocation (the retry's no-op is its receipt)", st)
	}
}

func TestUnsignedRequestDroppedSilently(t *testing.T) {
	w := newWorld(t, aidA, aidB)
	offender := w.addHost(aidA, 7, 600)
	victim := w.addHost(aidB, 8, 600)
	frame := w.evidence(offender, victim, []byte("spam"))
	c := NewComplaint(frame, &victim.cert, &offender.cert, victim.sig)
	enc, _ := c.Encode()
	req := &ShutoffRequest{Origin: aidB, Seq: 1, IssuedAt: w.now, Complaint: enc}
	req.Sign(w.ases[aidB].signer)
	raw := req.Encode()
	raw[len(raw)-1] ^= 0xff // break the origin AS signature

	if _, err := w.ases[aidA].engine.HandleShutoffRequest(raw); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("err = %v, want ErrBadSignature", err)
	}
	if w.ases[aidA].router.Revoked().Contains(offender.ephID) {
		t.Fatal("unauthenticated request caused a revocation")
	}
}

// signedRequest wraps an encoded complaint in a shutoff request that
// origin's AS signs.
func (w *world) signedRequest(origin ephid.AID, complaint []byte) []byte {
	req := &ShutoffRequest{Origin: origin, Seq: 1, IssuedAt: w.now, Complaint: complaint}
	req.Sign(w.ases[origin].signer)
	return req.Encode()
}

// TestTruncatedComplaintRefused: a validly signed shutoff request
// whose complaint is cut short is refused with ErrBadComplaint, before
// anything is revoked or answered.
func TestTruncatedComplaintRefused(t *testing.T) {
	w := newWorld(t, aidA, aidB)
	offender := w.addHost(aidA, 7, 600)
	victim := w.addHost(aidB, 8, 600)
	enc, err := NewComplaint(w.evidence(offender, victim, []byte("spam")), &victim.cert, &offender.cert, victim.sig).Encode()
	if err != nil {
		t.Fatal(err)
	}
	events := w.events(aidA)
	for _, cut := range []int{10, len(enc) - 1} {
		if _, err := w.ases[aidA].engine.HandleShutoffRequest(w.signedRequest(aidB, enc[:cut])); !errors.Is(err, ErrBadComplaint) {
			t.Fatalf("complaint cut to %d bytes: err = %v, want ErrBadComplaint", cut, err)
		}
	}
	if w.ases[aidA].router.Revoked().Contains(offender.ephID) || len(*events) != 0 {
		t.Fatalf("a malformed complaint was acted on: events %v", *events)
	}
}

// TestRequestForAnotherSourceASRefused: a validly signed request from
// the victim's AS whose evidence names a third AS's source is refused
// by the AS it reached with ErrNotSourceAS: an agent answers only for
// its own hosts.
func TestRequestForAnotherSourceASRefused(t *testing.T) {
	w := newWorld(t, aidA, aidB, aidC)
	offender := w.addHost(aidC, 7, 600)
	victim := w.addHost(aidB, 8, 600)
	enc, err := NewComplaint(w.evidence(offender, victim, []byte("spam")), &victim.cert, &offender.cert, victim.sig).Encode()
	if err != nil {
		t.Fatal(err)
	}
	events := w.events(aidA)
	if _, err := w.ases[aidA].engine.HandleShutoffRequest(w.signedRequest(aidB, enc)); !errors.Is(err, ErrNotSourceAS) {
		t.Fatalf("err = %v, want ErrNotSourceAS", err)
	}
	if w.ases[aidC].router.Revoked().Contains(offender.ephID) || len(*events) != 0 {
		t.Fatalf("the misdirected request was acted on: events %v", *events)
	}
}

// TestComplaintWithoutTransportRefused: an engine that was never given
// a transport refuses a complaint it would have to forward with
// ErrNoTransport, never resolves it, and keeps no pending request.
func TestComplaintWithoutTransportRefused(t *testing.T) {
	w := newWorld(t, aidA, aidB)
	offender := w.addHost(aidA, 7, 600)
	victim := w.addHost(aidB, 8, 600)
	b := w.ases[aidB]
	eng := New(Config{AID: aidB, Signer: b.signer, Trust: w.trust, Agent: b.agent, Now: func() int64 { return w.now }})
	c := NewComplaint(w.evidence(offender, victim, []byte("spam")), &victim.cert, &offender.cert, victim.sig)
	err := eng.HandleComplaint(c, func(*Receipt, error) { t.Fatal("the refused complaint resolved") })
	if !errors.Is(err, ErrNoTransport) {
		t.Fatalf("err = %v, want ErrNoTransport", err)
	}
	eng.mu.Lock()
	pending := len(eng.pending)
	eng.mu.Unlock()
	if pending != 0 || w.ases[aidA].router.Revoked().Contains(offender.ephID) {
		t.Fatalf("%d pending requests left, or the offender was revoked", pending)
	}
}

func TestWrongIssuerReceiptCannotDisplacePending(t *testing.T) {
	w := newWorld(t, aidA, aidB, aidC)
	offender := w.addHost(aidA, 7, 600)
	victim := w.addHost(aidB, 8, 600)
	frame := w.evidence(offender, victim, []byte("spam"))
	engB := w.ases[aidB].engine

	// Capture the outgoing request instead of delivering it, so the
	// pending entry stays in flight.
	var sent [][]byte
	engB.SetSend(func(_ wire.Endpoint, payload []byte) error {
		sent = append(sent, append([]byte(nil), payload...))
		return nil
	})
	c := NewComplaint(frame, &victim.cert, &offender.cert, victim.sig)
	var got *Receipt
	if err := engB.HandleComplaint(c, func(r *Receipt, err error) {
		if err != nil {
			t.Fatalf("callback error: %v", err)
		}
		got = r
	}); err != nil {
		t.Fatal(err)
	}
	if len(sent) != 1 || sent[0][0] != MsgShutoffRequest {
		t.Fatalf("captured %d sends", len(sent))
	}
	raw := sent[0][1:]

	// A rogue RPKI-certified AS that observed the request on-path signs
	// a receipt with the correct hash but itself as issuer: it must
	// neither resolve the complaint nor burn the pending entry.
	rogue := &Receipt{Issuer: aidC, Status: StatusRevoked,
		SrcEphID: offender.ephID, ExpTime: uint32(w.now) + 600,
		ReqHash: RequestHash(raw), IssuedAt: w.now}
	rogue.Sign(w.ases[aidC].signer)
	if err := engB.HandleReceipt(rogue.Encode()); !errors.Is(err, ErrBadReceipt) {
		t.Fatalf("err = %v, want ErrBadReceipt", err)
	}
	if got != nil {
		t.Fatal("rogue receipt resolved the complaint")
	}

	// The genuine receipt with its signature corrupted names the right
	// issuer, but its signature does not verify: it is refused the same
	// way, and installs nothing.
	genuine, err := w.ases[aidA].engine.HandleShutoffRequest(raw)
	if err != nil {
		t.Fatal(err)
	}
	forged := genuine.Encode()
	forged[len(forged)-1] ^= 0xff
	if err := engB.HandleReceipt(forged); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("err = %v, want ErrBadSignature", err)
	}
	if got != nil {
		t.Fatal("a receipt with a bad signature resolved the complaint")
	}
	if w.ases[aidB].router.RemoteRevoked().Contains(offender.ephID) {
		t.Fatal("a receipt with a bad signature installed a remote revocation")
	}

	// The genuine receipt still lands, resolves, and installs.
	if err := engB.HandleReceipt(genuine.Encode()); err != nil {
		t.Fatal(err)
	}
	if got == nil || got.Status != StatusRevoked || got.Issuer != aidA {
		t.Fatalf("genuine receipt did not resolve the complaint: %+v", got)
	}
	if !w.ases[aidB].router.RemoteRevoked().Matches(offender.ephID, aidA) {
		t.Fatal("genuine receipt was not installed after the rogue attempt")
	}
}

func TestDigestFloodInstallsAtThirdAS(t *testing.T) {
	w := newWorld(t, aidA, aidB, aidC)
	offender := w.addHost(aidA, 7, 600)
	victim := w.addHost(aidB, 8, 600)
	frame := w.evidence(offender, victim, []byte("spam"))

	if _, err := w.complain(victim, offender, frame); err != nil {
		t.Fatal(err)
	}
	// AS C was not involved in the complaint: only the digest flood can
	// teach it.
	if w.ases[aidC].router.RemoteRevoked().Contains(offender.ephID) {
		t.Fatal("third AS learned the revocation before any digest")
	}
	if n := w.ases[aidA].engine.FlushDigest(); n != 1 {
		t.Fatalf("flushed %d entries, want 1", n)
	}
	if !w.ases[aidC].router.RemoteRevoked().Contains(offender.ephID) {
		t.Fatal("digest flood did not install at the third AS")
	}
	// The source's own routers rely on the *local* list, not the remote
	// one.
	if w.ases[aidA].router.RemoteRevoked().Contains(offender.ephID) {
		t.Fatal("source AS installed its own revocation remotely")
	}
	// With zero churn since the first flush and the anti-entropy round
	// not yet due, a second flush is skipped outright: no signing, no
	// messages.
	flushed := len(w.sentOf(aidA, MsgDigest))
	events := w.events(aidA)
	if n := w.ases[aidA].engine.FlushDigest(); n != 0 {
		t.Fatalf("unchanged re-flush announced %d entries, want 0 (skip)", n)
	}
	if got := len(w.sentOf(aidA, MsgDigest)); got != flushed || len(*events) != 0 {
		t.Fatalf("the skipped flush sent %d digests and emitted %v", got-flushed, *events)
	}
	if st := w.ases[aidA].engine.Stats(); st.DigestsSent != 1 {
		t.Fatalf("stats %+v, want 1 digest sent", st)
	}
	// Forcing the anti-entropy cadence re-floods the full set (loss
	// recovery); installing again is a no-op, and stale seqs are
	// dropped.
	w.ases[aidA].engine.SetDissemination(ModeMesh, 1)
	if n := w.ases[aidA].engine.FlushDigest(); n != 1 {
		t.Fatalf("anti-entropy re-flush flooded %d entries, want 1", n)
	}
	if got := w.ases[aidC].router.RemoteRevoked().Len(); got != 1 {
		t.Fatalf("third AS remote list has %d entries, want 1", got)
	}
}

func TestDigestReplayAndForgeryRejected(t *testing.T) {
	w := newWorld(t, aidA, aidC)
	d := &Digest{Origin: aidA, Seq: 1, IssuedAt: w.now, Kind: DigestSnapshot, Entries: []DigestEntry{
		{EphID: w.ases[aidA].sealer.Mint(ephid.Payload{HID: 7, ExpTime: uint32(w.now) + 600}),
			ExpTime: uint32(w.now) + 600},
	}}
	d.Sign(w.ases[aidA].signer)
	engC := w.ases[aidC].engine
	if err := engC.HandleDigest(aidA, d.Encode()); err != nil {
		t.Fatal(err)
	}
	if got := w.ases[aidC].router.RemoteRevoked().Len(); got != 1 {
		t.Fatalf("remote list %d, want 1", got)
	}
	// Replay: same seq again is stale, dropped without an install.
	events := w.events(aidC)
	if err := engC.HandleDigest(aidA, d.Encode()); err != nil {
		t.Fatal(err)
	}
	if len(*events) != 0 || engC.Stats().EntriesInstalled != 1 {
		t.Fatalf("the replay was installed: events %v, %d entries", *events, engC.Stats().EntriesInstalled)
	}
	// Forgery: a digest signed by the wrong AS is rejected — its seq is
	// above the accepted high-water mark, so it reaches (and fails) the
	// signature check rather than the early dedup.
	forged := &Digest{Origin: aidA, Seq: 9, IssuedAt: w.now, Kind: DigestSnapshot, Entries: d.Entries}
	forged.Sign(w.ases[aidC].signer)
	if err := engC.HandleDigest(aidA, forged.Encode()); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("err = %v, want ErrBadSignature", err)
	}
}

func TestDigestAfterGCRetentionSkipsExpiredEntries(t *testing.T) {
	w := newWorld(t, aidA, aidC)
	// A digest that was delayed past the entries' lifetime — the
	// receiver's GC would reap them instantly, so they are never
	// installed at all.
	dead := w.ases[aidA].sealer.Mint(ephid.Payload{HID: 7, ExpTime: uint32(w.now - 50)})
	live := w.ases[aidA].sealer.Mint(ephid.Payload{HID: 7, ExpTime: uint32(w.now + 600)})
	d := &Digest{Origin: aidA, Seq: 1, IssuedAt: w.now - 100, Kind: DigestSnapshot, Entries: []DigestEntry{
		{EphID: dead, ExpTime: uint32(w.now - 50)},
		{EphID: live, ExpTime: uint32(w.now + 600)},
	}}
	d.Sign(w.ases[aidA].signer)
	engC := w.ases[aidC].engine
	events := w.events(aidC)
	if err := engC.HandleDigest(aidA, d.Encode()); err != nil {
		t.Fatal(err)
	}
	list := w.ases[aidC].router.RemoteRevoked()
	if list.Contains(dead) {
		t.Fatal("expired digest entry was installed")
	}
	if !list.Contains(live) {
		t.Fatal("live digest entry was skipped")
	}
	if len(*events) != 1 || (*events)[0].Kind != "digest-install" || (*events)[0].Entries != 1 || engC.Stats().EntriesInstalled != 1 {
		t.Fatalf("events %v, want one digest-install of 1 of the 2 entries", *events)
	}
	// Expired announcements are likewise pruned before flooding.
	w.ases[aidA].engine.NoteRevoked(dead, uint32(w.now-50))
	if n := w.ases[aidA].engine.FlushDigest(); n != 0 {
		t.Fatalf("flushed %d expired entries, want 0", n)
	}
}

func TestLocalComplaintShortCircuits(t *testing.T) {
	w := newWorld(t, aidA)
	offender := w.addHost(aidA, 7, 600)
	victim := w.addHost(aidA, 8, 600)
	frame := w.evidence(offender, victim, []byte("spam"))

	events := w.events(aidA)
	r, err := w.complain(victim, offender, frame)
	if err != nil {
		t.Fatal(err)
	}
	if r == nil || r.Status != StatusRevoked || r.Issuer != aidA {
		t.Fatalf("receipt %+v, want local StatusRevoked from %v", r, aidA)
	}
	if !w.ases[aidA].router.Revoked().Contains(offender.ephID) {
		t.Fatal("local complaint did not revoke")
	}
	if countKind(*events, "shutoff") != 1 || countKind(*events, "forward") != 0 || len(w.sent[aidA]) != 0 {
		t.Fatalf("events %v, %d messages sent: want one local shutoff and no forwarding", *events, len(w.sent[aidA]))
	}
}

func TestRevokedHostShutoffIsNoOp(t *testing.T) {
	w := newWorld(t, aidA, aidB)
	offender := w.addHost(aidA, 7, 600)
	victim := w.addHost(aidB, 8, 600)
	frame := w.evidence(offender, victim, []byte("spam"))
	// The whole host was already revoked (strike escalation): its
	// EphIDs are implicitly dead, so the shutoff is acknowledged as a
	// no-op rather than rejected.
	w.ases[aidA].db.RevokeAt(7, w.now)

	r, err := w.complain(victim, offender, frame)
	if err != nil {
		t.Fatal(err)
	}
	if r == nil || r.Status != StatusAlreadyRevoked {
		t.Fatalf("receipt %+v, want StatusAlreadyRevoked", r)
	}
}

// TestPruneWalksOncePerClockSecond pins the housekeeping cost under a
// shutoff flood: with 10^4 cached receipts, 10^3 fresh requests inside
// one clock second walk the cache once, and a receipt is still evicted
// by the first request after its horizon.
func TestPruneWalksOncePerClockSecond(t *testing.T) {
	w := newWorld(t, aidA, aidB)
	offender := w.addHost(aidA, 7, 600)
	victim := w.addHost(aidB, 8, 600)
	c := NewComplaint(w.evidence(offender, victim, []byte("spam")), &victim.cert, &offender.cert, victim.sig)
	enc, err := c.Encode()
	if err != nil {
		t.Fatal(err)
	}
	src := w.ases[aidA].engine
	request := func(seq uint64) {
		t.Helper()
		req := &ShutoffRequest{Origin: aidB, Seq: seq, IssuedAt: w.now, Complaint: enc}
		req.Sign(w.ases[aidB].signer)
		if _, err := src.HandleShutoffRequest(req.Encode()); err != nil {
			t.Fatal(err)
		}
	}

	const cached = 10_000
	for i := 0; i < cached; i++ {
		h := [32]byte{1, byte(i >> 8), byte(i)}
		src.receipts[h] = &Receipt{IssuedAt: w.now}
	}
	request(1) // this second's walk
	// Only a walk can evict this one: already past its horizon, and
	// planted after the walk this clock second has had.
	stale := [32]byte{2}
	src.receipts[stale] = &Receipt{IssuedAt: w.now - receiptHorizon - 1}
	const flood = 1000
	for seq := uint64(2); seq <= flood; seq++ {
		request(seq)
	}
	if _, ok := src.receipts[stale]; !ok {
		t.Fatal("a request inside an already-pruned clock second walked the receipt cache")
	}
	if got := len(src.receipts); got != cached+flood+1 {
		t.Fatalf("receipt cache holds %d entries, want %d", got, cached+flood+1)
	}

	w.now++
	request(flood + 1)
	if _, ok := src.receipts[stale]; ok {
		t.Error("stale receipt survived the first request after its horizon")
	}
}

// TestReceiptCacheCappedByCount: a hostile origin AS signing distinct
// requests about one complaint cannot grow the receipt cache past
// maxReceipts inside the horizon. The oldest receipt goes first, and a
// bit-exact replay of the evicted request is re-executed into a no-op
// receipt, never a second revocation. Between the two real requests the
// cache is filled through the same insertion path with stand-ins for
// maxReceipts-1 further distinct requests (signing that many would make
// the test slow, not stronger).
func TestReceiptCacheCappedByCount(t *testing.T) {
	w := newWorld(t, aidA, aidB)
	offender := w.addHost(aidA, 7, 600)
	victim := w.addHost(aidB, 8, 600)
	c := NewComplaint(w.evidence(offender, victim, []byte("spam")), &victim.cert, &offender.cert, victim.sig)
	enc, err := c.Encode()
	if err != nil {
		t.Fatal(err)
	}
	src := w.ases[aidA].engine
	request := func(seq uint64) []byte {
		req := &ShutoffRequest{Origin: aidB, Seq: seq, IssuedAt: w.now, Complaint: enc}
		req.Sign(w.ases[aidB].signer)
		return req.Encode()
	}
	handle := func(raw []byte, want Status) {
		t.Helper()
		r, err := src.HandleShutoffRequest(raw)
		if err != nil {
			t.Fatal(err)
		}
		if r.Status != want {
			t.Fatalf("receipt %v, want %v", r.Status, want)
		}
	}

	first := request(1)
	handle(first, StatusRevoked)
	src.mu.Lock()
	for i := 1; i < maxReceipts; i++ {
		src.cacheReceipt([32]byte{1, byte(i >> 16), byte(i >> 8), byte(i)}, &Receipt{IssuedAt: w.now})
	}
	src.mu.Unlock()
	handle(request(2), StatusAlreadyRevoked) // request maxReceipts+1
	if got := len(src.receipts); got > maxReceipts {
		t.Fatalf("receipt cache holds %d entries, cap %d", got, maxReceipts)
	}
	if _, ok := src.receipts[RequestHash(first)]; ok {
		t.Fatal("the oldest receipt survived a full cache")
	}

	dupBefore := src.Stats().RequestsDuplicate
	handle(first, StatusAlreadyRevoked)
	st := src.Stats()
	if st.Revocations != 1 {
		t.Fatalf("%d revocations after replaying an evicted request, want 1", st.Revocations)
	}
	if st.RequestsDuplicate != dupBefore {
		t.Fatal("an evicted request was answered from the cache")
	}
}

// TestSendFailuresAreEvents: an answer no caller waits on — a
// complaint ack, a receipt — that the transport refuses shows as a
// send-failed event naming the destination AS (a refused digest is
// TestFlushOverAFailingTransport).
func TestSendFailuresAreEvents(t *testing.T) {
	w := newWorld(t, aidA, aidB)
	offender := w.addHost(aidA, 7, 600)
	local := w.addHost(aidA, 8, 600)
	remote := w.addHost(aidB, 9, 600)
	a := w.ases[aidA].engine
	a.SetSend(func(wire.Endpoint, []byte) error { return errors.New("link down") })
	events := w.events(aidA)
	complaint := func(victim *identity) []byte {
		c, err := NewComplaint(w.evidence(offender, victim, []byte("spam")), &victim.cert, &offender.cert, victim.sig).Encode()
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	failed := func() []ephid.AID {
		var peers []ephid.AID
		for _, ev := range *events {
			if ev.Kind == "send-failed" {
				peers = append(peers, ev.Peer)
			}
		}
		*events = nil
		return peers
	}

	// A local complaint resolves at once; its ack goes back to the
	// complaining host's AS.
	a.HandleMessage(wire.Endpoint{AID: aidA, EphID: local.ephID}, append([]byte{MsgComplaint, 0, 0, 0, 0, 0, 0, 0, 1}, complaint(local)...))
	if got := failed(); !slices.Equal(got, []ephid.AID{aidA}) {
		t.Fatalf("complaint ack: send-failed to %v, want %v", got, []ephid.AID{aidA})
	}
	// A shutoff request from AS B is answered with a receipt to B.
	a.HandleMessage(wire.Endpoint{AID: aidB, EphID: w.aaEphID[aidB]}, append([]byte{MsgShutoffRequest}, w.signedRequest(aidB, complaint(remote))...))
	if got := failed(); !slices.Equal(got, []ephid.AID{aidB}) {
		t.Fatalf("receipt: send-failed to %v, want %v", got, []ephid.AID{aidB})
	}
}
