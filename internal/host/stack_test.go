package host

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"apna/internal/cert"
	"apna/internal/crypto"
	"apna/internal/ephid"
	"apna/internal/icmp"
	"apna/internal/ms"
	"apna/internal/netsim"
	"apna/internal/rpki"
	"apna/internal/session"
	"apna/internal/wire"
)

// In-package protocol tests: two host stacks wired back to back over a
// single link (no border router — egress checks have their own tests),
// with certificates issued by two synthetic ASes registered in a shared
// trust store.

type duplex struct {
	sim   *netsim.Simulator
	trust *rpki.TrustStore
	link  *netsim.Link
	a, b  *Host
	// signers for the two synthetic ASes.
	signA, signB *crypto.Signer
}

func newDuplex(t testing.TB) *duplex {
	t.Helper()
	d := &duplex{sim: netsim.New(1)}
	auth, err := rpki.NewAuthority()
	if err != nil {
		t.Fatal(err)
	}
	d.trust = rpki.NewTrustStore(auth.PublicKey())
	mkAS := func(aid ephid.AID) *crypto.Signer {
		s, err := crypto.GenerateSigner()
		if err != nil {
			t.Fatal(err)
		}
		dh, err := crypto.GenerateKeyPair()
		if err != nil {
			t.Fatal(err)
		}
		rec, err := auth.Certify(aid, s.PublicKey(), dh.PublicKey(), 1<<40)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.trust.Add(rec); err != nil {
			t.Fatal(err)
		}
		return s
	}
	d.signA, d.signB = mkAS(1), mkAS(2)

	mkHost := func(aid ephid.AID, hid ephid.HID) *Host {
		h, err := New(Config{
			AID: aid, HID: hid,
			Keys:  crypto.DeriveHostASKeys([]byte{byte(aid)}),
			Trust: d.trust,
			Now:   func() int64 { return 1000 },
		})
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	d.a, d.b = mkHost(1, 10), mkHost(2, 20)

	d.link = d.sim.NewLink("ab", 0, 0)
	d.a.Attach(d.link.A())
	d.b.Attach(d.link.B())
	return d
}

// issue mints a certified EphID for a host under its AS signer.
func (d *duplex) issue(t testing.TB, h *Host, signer *crypto.Signer, kind ephid.Kind, tag byte) *OwnedEphID {
	t.Helper()
	dh, err := crypto.GenerateKeyPair()
	if err != nil {
		t.Fatal(err)
	}
	sig, err := crypto.GenerateSigner()
	if err != nil {
		t.Fatal(err)
	}
	o := &OwnedEphID{DH: dh, Sig: sig}
	o.Cert.Kind = kind
	o.Cert.ExpTime = 1 << 30
	o.Cert.AID = h.cfg.AID
	o.Cert.EphID[0] = tag
	o.Cert.EphID[1] = byte(h.cfg.AID)
	copy(o.Cert.DHPub[:], dh.PublicKey())
	copy(o.Cert.SigPub[:], sig.PublicKey())
	o.Cert.Sign(signer)
	h.AddEphID(o)
	return o
}

func TestStackDialAndExchange(t *testing.T) {
	d := newDuplex(t)
	idA := d.issue(t, d.a, d.signA, ephid.KindData, 1)
	idB := d.issue(t, d.b, d.signB, ephid.KindData, 2)

	established := false
	conn, err := d.a.Dial(idA, &idB.Cert, DialOptions{OnEstablish: func(*Conn) { established = true }})
	if err != nil {
		t.Fatal(err)
	}
	// Data queued before establishment must flush afterwards.
	if err := conn.Send([]byte("queued before ack")); err != nil {
		t.Fatal(err)
	}
	d.sim.Run(1000)
	if !established || !conn.Established() {
		t.Fatal("connection not established")
	}
	msgs := d.b.Inbox()
	if len(msgs) != 1 || string(msgs[0].Payload) != "queued before ack" {
		t.Fatalf("b inbox: %+v", msgs)
	}
	// Respond and receive.
	if err := d.b.Respond(msgs[0], []byte("reply")); err != nil {
		t.Fatal(err)
	}
	d.sim.Run(1000)
	back := d.a.Inbox()
	if len(back) != 1 || string(back[0].Payload) != "reply" {
		t.Fatalf("a inbox: %+v", back)
	}
	if d.a.sessions[sessKey{local: idA.Cert.EphID, peer: conn.Peer()}] == nil {
		t.Error("initiator session missing")
	}
}

func TestStackZeroRTT(t *testing.T) {
	d := newDuplex(t)
	idA := d.issue(t, d.a, d.signA, ephid.KindData, 1)
	idB := d.issue(t, d.b, d.signB, ephid.KindData, 2)

	if _, err := d.a.Dial(idA, &idB.Cert, DialOptions{Data0RTT: []byte("first flight")}); err != nil {
		t.Fatal(err)
	}
	d.sim.Run(1000)
	msgs := d.b.Inbox()
	if len(msgs) != 1 || string(msgs[0].Payload) != "first flight" {
		t.Fatalf("b inbox: %+v", msgs)
	}
}

func TestStackReceiveOnlyMigration(t *testing.T) {
	d := newDuplex(t)
	idA := d.issue(t, d.a, d.signA, ephid.KindData, 1)
	recvOnly := d.issue(t, d.b, d.signB, ephid.KindReceiveOnly, 2)
	serving := d.issue(t, d.b, d.signB, ephid.KindData, 3)

	var accepted []ephid.EphID
	d.b.OnAccept(func(s ephid.EphID, _ wire.Endpoint, addressed ephid.EphID) {
		accepted = append(accepted, s, addressed)
	})

	conn, err := d.a.Dial(idA, &recvOnly.Cert, DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	d.sim.Run(1000)
	if conn.Peer().EphID != serving.Cert.EphID {
		t.Errorf("peer = %v, want serving EphID", conn.Peer().EphID)
	}
	if len(accepted) != 2 || accepted[0] != serving.Cert.EphID || accepted[1] != recvOnly.Cert.EphID {
		t.Errorf("accept hook: %v", accepted)
	}
	// The peer certificate (with AA coordinates) is retained.
	if d.a.peerCerts[sessKey{local: idA.Cert.EphID, peer: conn.Peer()}] == nil {
		t.Error("peer certificate not retained")
	}
}

func TestStackRejectsBadHandshakeCert(t *testing.T) {
	d := newDuplex(t)
	idA := d.issue(t, d.a, d.signA, ephid.KindData, 1)
	idB := d.issue(t, d.b, d.signB, ephid.KindData, 2)

	// A dials B's genuine certificate from an EphID whose own
	// certificate has expired: B's stack must reject the initiator's.
	badA := idA.Cert
	badA.ExpTime = 1 // expired
	badA.Sign(d.signA)
	aBad := &OwnedEphID{Cert: badA, DH: idA.DH, Sig: idA.Sig}

	if _, err := d.a.Dial(aBad, &idB.Cert, DialOptions{}); err != nil {
		t.Fatal(err) // dialing itself works; the peer rejects
	}
	d.sim.Run(1000)
	if d.b.Stats().DropBadHandshake == 0 {
		t.Error("expired initiator cert accepted by responder")
	}
}

// TestDialVerifiesPeerCert is the regression test for Dial deriving
// keys from a certificate nobody had verified: a genuine certificate
// with one DHPub byte flipped, passed out of band, used to get a session
// keyed to the substituted public key and a 0-RTT frame sealed under it
// on the wire before the ack's certificate check. Dial must refuse it
// before any frame, flow state or key derivation exists.
func TestDialVerifiesPeerCert(t *testing.T) {
	d := newDuplex(t)
	idA := d.issue(t, d.a, d.signA, ephid.KindData, 1)
	idB := d.issue(t, d.b, d.signB, ephid.KindData, 2)
	substituted := idB.Cert
	substituted.DHPub[0] ^= 1

	sent, derivations := d.a.Stats().Sent, session.Derivations()
	if _, err := d.a.Dial(idA, &substituted, DialOptions{Data0RTT: []byte("for B only")}); !errors.Is(err, ErrBadPeerCert) {
		t.Fatalf("dialing a substituted DHPub: err = %v, want ErrBadPeerCert", err)
	}
	if got := d.a.Stats().Sent; got != sent {
		t.Errorf("Sent %d -> %d: a frame left for an unverified certificate", sent, got)
	}
	if got := session.Derivations(); got != derivations {
		t.Errorf("%d key derivations started for an unverified certificate", got-derivations)
	}
	if len(d.a.sessions) != 0 || len(d.a.peerCerts) != 0 || len(d.a.dials) != 0 || len(d.a.conns) != 0 {
		t.Errorf("refused dial left state: %d sessions, %d peer certs, %d dials, %d conns",
			len(d.a.sessions), len(d.a.peerCerts), len(d.a.dials), len(d.a.conns))
	}

	// The genuine certificate still dials, 0-RTT data and all.
	conn, err := d.a.Dial(idA, &idB.Cert, DialOptions{Data0RTT: []byte("for B only")})
	if err != nil {
		t.Fatal(err)
	}
	d.sim.Run(1000)
	if msgs := d.b.Inbox(); !conn.Established() || len(msgs) != 1 || string(msgs[0].Payload) != "for B only" {
		t.Fatalf("genuine dial: established %v, inbox %+v", conn.Established(), msgs)
	}
}

// TestResponderDropsBeforeDeriving: the responder derives a session key
// only from a certificate that verified and a DHPub that is not of small
// order. A handshake carrying a forged certificate (a DHPub substituted
// after the AS signed it) or a properly signed one whose DHPub is a
// small-order point is dropped as a bad handshake, unanswered, with no
// session and no derivation started.
func TestResponderDropsBeforeDeriving(t *testing.T) {
	for _, tc := range []struct {
		name string
		edit func(c *cert.Cert, signer *crypto.Signer)
	}{
		{"forged certificate", func(c *cert.Cert, _ *crypto.Signer) { c.DHPub[0] ^= 1 }},
		{"small-order DHPub", func(c *cert.Cert, signer *crypto.Signer) {
			c.DHPub = [crypto.X25519PublicKeySize]byte{0: 1} // u = 1
			c.Sign(signer)
		}},
		{"small-order DHPub, bit 255 set", func(c *cert.Cert, signer *crypto.Signer) {
			c.DHPub = [crypto.X25519PublicKeySize]byte{31: 0x80} // u = 0
			c.Sign(signer)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := newDuplex(t)
			idA := d.issue(t, d.a, d.signA, ephid.KindData, 1)
			idB := d.issue(t, d.b, d.signB, ephid.KindData, 2)
			bad := &OwnedEphID{Cert: idA.Cert, DH: idA.DH, Sig: idA.Sig}
			tc.edit(&bad.Cert, d.signA)

			conn, err := d.a.Dial(bad, &idB.Cert, DialOptions{})
			if err != nil {
				t.Fatal(err) // the initiator's own certificate is not its to check
			}
			sent, derivations := d.b.Stats().Sent, session.Derivations()
			d.sim.Run(1000)
			if got := d.b.Stats().DropBadHandshake; got != 1 {
				t.Errorf("DropBadHandshake = %d, want 1", got)
			}
			if got := d.b.Stats().Sent; got != sent {
				t.Errorf("responder sent %d frames, want no ack", got-sent)
			}
			if got := session.Derivations(); got != derivations {
				t.Errorf("responder started %d key derivations", got-derivations)
			}
			if len(d.b.sessions) != 0 || len(d.b.hsCompleted) != 0 || conn.Established() {
				t.Errorf("dropped handshake left %d sessions, %d completed handshakes; established %v",
					len(d.b.sessions), len(d.b.hsCompleted), conn.Established())
			}
		})
	}
}

// TestAckCertificateChecks pins what an ack's certificate still has to
// pass once Dial verified the dialed one: the same certificate must be
// unexpired when the ack lands, and a different one — the serving EphID
// a receive-only dial migrates to — is verified in full. A failed check
// drops the ack and leaves the dial in flight.
func TestAckCertificateChecks(t *testing.T) {
	t.Run("same certificate, expired by the ack", func(t *testing.T) {
		d := newDuplex(t)
		now := int64(1000)
		d.a.cfg.Now = func() int64 { return now }
		idA := d.issue(t, d.a, d.signA, ephid.KindData, 1)
		idB := d.issue(t, d.b, d.signB, ephid.KindData, 2)
		idB.Cert.ExpTime = 1500
		idB.Cert.Sign(d.signB)
		conn, err := d.a.Dial(idA, &idB.Cert, DialOptions{})
		if err != nil {
			t.Fatal(err)
		}
		now = 1501
		d.sim.Run(1000)
		if conn.Established() || d.a.Stats().DropBadHandshake != 1 || len(d.a.dials) != 1 {
			t.Errorf("established %v, DropBadHandshake %d, dials in flight %d; want false, 1, 1",
				conn.Established(), d.a.Stats().DropBadHandshake, len(d.a.dials))
		}
	})
	t.Run("serving certificate not signed by its AS", func(t *testing.T) {
		d := newDuplex(t)
		idA := d.issue(t, d.a, d.signA, ephid.KindData, 1)
		recvOnly := d.issue(t, d.b, d.signB, ephid.KindReceiveOnly, 2)
		serving := d.issue(t, d.b, d.signB, ephid.KindData, 3)
		serving.Cert.Sign(d.signA) // the wrong AS
		conn, err := d.a.Dial(idA, &recvOnly.Cert, DialOptions{})
		if err != nil {
			t.Fatal(err)
		}
		d.sim.Run(1000)
		if conn.Established() || d.a.Stats().DropBadHandshake != 1 || len(d.a.dials) != 1 {
			t.Errorf("established %v, DropBadHandshake %d, dials in flight %d; want false, 1, 1",
				conn.Established(), d.a.Stats().DropBadHandshake, len(d.a.dials))
		}
	})
}

func TestStackReplayRejected(t *testing.T) {
	d := newDuplex(t)
	idA := d.issue(t, d.a, d.signA, ephid.KindData, 1)
	idB := d.issue(t, d.b, d.signB, ephid.KindData, 2)
	conn, err := d.a.Dial(idA, &idB.Cert, DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	d.sim.Run(1000)
	if err := conn.Send([]byte("pay")); err != nil {
		t.Fatal(err)
	}
	d.sim.Run(1000)
	msgs := d.b.Inbox()
	if len(msgs) != 1 {
		t.Fatal("no delivery")
	}
	// Replay the captured frame straight into B's stack.
	d.b.HandleFrame(append([]byte(nil), msgs[0].Raw...), nil)
	if got := d.b.Inbox(); len(got) != 0 {
		t.Error("replayed frame delivered")
	}
	if d.b.Stats().DropReplay != 1 {
		t.Errorf("DropReplay = %d", d.b.Stats().DropReplay)
	}
}

func TestStackHandshakeReplayRejected(t *testing.T) {
	d := newDuplex(t)
	idA := d.issue(t, d.a, d.signA, ephid.KindData, 1)
	idB := d.issue(t, d.b, d.signB, ephid.KindData, 2)

	accepts := 0
	d.b.OnAccept(func(ephid.EphID, wire.Endpoint, ephid.EphID) { accepts++ })

	// An on-path adversary captures the initiator's handshake frame.
	var handshake []byte
	d.link.AddTap(func(f []byte, _ *netsim.Port) {
		var hdr wire.Header
		if hdr.DecodeFromBytes(f) == nil && hdr.NextProto == wire.ProtoHandshake && hdr.DstAID == 2 {
			handshake = f
		}
	})
	conn, err := d.a.Dial(idA, &idB.Cert, DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	d.sim.Run(1000)
	if !conn.Established() || accepts != 1 {
		t.Fatalf("established=%v accepts=%d", conn.Established(), accepts)
	}
	if handshake == nil {
		t.Fatal("tap captured no handshake")
	}
	if err := conn.Send([]byte("pay")); err != nil {
		t.Fatal(err)
	}
	d.sim.Run(1000)
	msgs := d.b.Inbox()
	if len(msgs) != 1 {
		t.Fatal("no delivery")
	}

	// Replaying the captured handshake must not complete a second
	// establishment — and, crucially, must not re-derive the session
	// (which would reset the data-plane replay window).
	d.b.HandleFrame(append([]byte(nil), handshake...), nil)
	if accepts != 1 {
		t.Errorf("replayed handshake accepted: accepts = %d", accepts)
	}
	if d.b.Stats().DropReplay != 1 {
		t.Errorf("DropReplay = %d after handshake replay", d.b.Stats().DropReplay)
	}
	// The data-plane window survived: a replayed data frame still
	// bounces even after the handshake replay attempt.
	d.b.HandleFrame(append([]byte(nil), msgs[0].Raw...), nil)
	if got := d.b.Inbox(); len(got) != 0 {
		t.Error("replayed data delivered after handshake replay")
	}
	if d.b.Stats().DropReplay != 2 {
		t.Errorf("DropReplay = %d after data replay", d.b.Stats().DropReplay)
	}
}

func TestStackHandshakeCacheNotPoisonedByGarbage(t *testing.T) {
	d := newDuplex(t)
	idA := d.issue(t, d.a, d.signA, ephid.KindData, 1)
	idB := d.issue(t, d.b, d.signB, ephid.KindData, 2)

	// An attacker who knows A's endpoint and predictable next nonce
	// (the per-host counter starts at 0, so A's dial carries nonce 1)
	// injects an unauthenticated garbage handshake with that (source,
	// nonce) pair before A dials. The replay cache must not record
	// unauthenticated frames — otherwise the genuine handshake would be
	// dropped as a replay, a trivial denial of service.
	p := wire.Packet{
		Header: wire.Header{
			NextProto: wire.ProtoHandshake, HopLimit: wire.DefaultHopLimit,
			Nonce:  1,
			SrcAID: 1, DstAID: 2,
			SrcEphID: idA.Cert.EphID, DstEphID: idB.Cert.EphID,
		},
		Payload: []byte("not a handshake"),
	}
	frame, err := p.Encode()
	if err != nil {
		t.Fatal(err)
	}
	d.b.HandleFrame(frame, nil)
	if d.b.Stats().DropBadHandshake != 1 {
		t.Fatalf("DropBadHandshake = %d, want 1", d.b.Stats().DropBadHandshake)
	}

	conn, err := d.a.Dial(idA, &idB.Cert, DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	d.sim.Run(1000)
	if !conn.Established() {
		t.Error("genuine handshake dropped: replay cache poisoned by unauthenticated frame")
	}
	if d.b.Stats().DropReplay != 0 {
		t.Errorf("DropReplay = %d, want 0", d.b.Stats().DropReplay)
	}
}

func TestStackHandshakePreplayDoesNotStarveDial(t *testing.T) {
	d := newDuplex(t)
	idA := d.issue(t, d.a, d.signA, ephid.KindData, 1)
	idB := d.issue(t, d.b, d.signB, ephid.KindData, 2)

	accepts := 0
	d.b.OnAccept(func(ephid.EphID, wire.Endpoint, ephid.EphID) { accepts++ })

	// A stronger poisoning attempt than garbage: an attacker holding
	// A's captured (genuinely signed) certificate preplays A's fully
	// valid, predictable handshake before A dials. It authenticates and
	// completes on B — but when A's genuine handshake arrives, B must
	// answer it with the original ack (idempotent completion) rather
	// than starving A's dial by dropping it as a replay.
	msg := handshakeMsg{cert: idA.Cert}
	payload, err := msg.encode()
	if err != nil {
		t.Fatal(err)
	}
	p := wire.Packet{
		Header: wire.Header{
			NextProto: wire.ProtoHandshake, HopLimit: wire.DefaultHopLimit,
			Nonce:  1 << 50,
			SrcAID: 1, DstAID: 2,
			SrcEphID: idA.Cert.EphID, DstEphID: idB.Cert.EphID,
		},
		Payload: payload,
	}
	frame, err := p.Encode()
	if err != nil {
		t.Fatal(err)
	}
	d.b.HandleFrame(frame, nil)
	if accepts != 1 {
		t.Fatalf("accepts = %d after preplay, want 1", accepts)
	}

	conn, err := d.a.Dial(idA, &idB.Cert, DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	d.sim.Run(1000)
	if !conn.Established() {
		t.Error("genuine dial starved by preplayed handshake")
	}
	if accepts != 1 {
		t.Errorf("accepts = %d, want 1 (duplicate handshake must not re-accept)", accepts)
	}
	if d.b.Stats().DropReplay != 1 {
		t.Errorf("DropReplay = %d, want 1", d.b.Stats().DropReplay)
	}
	// The connection actually works end to end.
	if err := conn.Send([]byte("after preplay")); err != nil {
		t.Fatal(err)
	}
	d.sim.Run(1000)
	if msgs := d.b.Inbox(); len(msgs) != 1 || string(msgs[0].Payload) != "after preplay" {
		t.Fatalf("b inbox: %+v", msgs)
	}
}

func TestStackDialSecondEphIDOfSameHost(t *testing.T) {
	// Replay protection is per flow, not per initiator: after dialing
	// one of B's EphIDs, dialing a *different* EphID of the same host
	// from the same source endpoint is a new flow and must complete,
	// not be answered with the first flow's cached ack.
	d := newDuplex(t)
	idA := d.issue(t, d.a, d.signA, ephid.KindData, 1)
	idB1 := d.issue(t, d.b, d.signB, ephid.KindData, 2)
	idB2 := d.issue(t, d.b, d.signB, ephid.KindData, 3)

	c1, err := d.a.Dial(idA, &idB1.Cert, DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	d.sim.Run(1000)
	if !c1.Established() {
		t.Fatal("first dial failed")
	}
	c2, err := d.a.Dial(idA, &idB2.Cert, DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	d.sim.Run(1000)
	if !c2.Established() {
		t.Error("dial to second EphID starved by first flow's replay cache")
	}
	if got := d.b.Stats().DropReplay; got != 0 {
		t.Errorf("DropReplay = %d, want 0", got)
	}
}

func TestStackReceiveOnlyRedialKeepsReplayWindow(t *testing.T) {
	// Re-dialing a receive-only flow migrates to the same serving EphID
	// again; the initiator must KEEP its existing serving session —
	// re-deriving it would reset the anti-replay window and re-admit
	// captured ciphertext the window already consumed.
	d := newDuplex(t)
	idA := d.issue(t, d.a, d.signA, ephid.KindData, 1)
	recvOnly := d.issue(t, d.b, d.signB, ephid.KindReceiveOnly, 2)
	d.issue(t, d.b, d.signB, ephid.KindData, 3) // serving

	var captured [][]byte
	d.link.AddTap(func(f []byte, _ *netsim.Port) {
		var hdr wire.Header
		if hdr.DecodeFromBytes(f) == nil && hdr.NextProto == wire.ProtoSession && hdr.DstAID == 1 {
			captured = append(captured, f)
		}
	})

	c1, err := d.a.Dial(idA, &recvOnly.Cert, DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	d.sim.Run(1000)
	if !c1.Established() {
		t.Fatal("first dial failed")
	}
	// B sends data so A's receive window consumes its nonces.
	if err := c1.Send([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	d.sim.Run(1000)
	msgs := d.b.Inbox()
	if len(msgs) != 1 {
		t.Fatal("no delivery at B")
	}
	if err := d.b.Respond(msgs[0], []byte("pong")); err != nil {
		t.Fatal(err)
	}
	d.sim.Run(1000)
	if back := d.a.Inbox(); len(back) != 1 {
		t.Fatal("no response at A")
	}
	if len(captured) == 0 {
		t.Fatal("tap captured no B->A data frame")
	}

	// Genuine re-dial of the same receive-only flow.
	c2, err := d.a.Dial(idA, &recvOnly.Cert, DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	d.sim.Run(1000)
	if !c2.Established() {
		t.Fatal("re-dial failed")
	}

	// An on-path attacker replays the captured B->A data. A fresh
	// serving session would decrypt and deliver it a second time.
	for _, f := range captured {
		d.a.HandleFrame(append([]byte(nil), f...), nil)
	}
	if got := d.a.Inbox(); len(got) != 0 {
		t.Errorf("replayed data delivered after re-dial: %d messages", len(got))
	}
}

func TestStackAbortRedialKeepsEstablishedSession(t *testing.T) {
	// Aborting an abandoned re-dial must not tear down the session the
	// established connection on the same flow is still using.
	d := newDuplex(t)
	idA := d.issue(t, d.a, d.signA, ephid.KindData, 1)
	idB := d.issue(t, d.b, d.signB, ephid.KindData, 2)

	c1, err := d.a.Dial(idA, &idB.Cert, DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	d.sim.Run(1000)
	if !c1.Established() {
		t.Fatal("dial failed")
	}

	// Re-dial the same flow, then abandon it before the ack arrives.
	c2, err := d.a.Dial(idA, &idB.Cert, DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	d.a.AbortDial(c2)

	if d.a.sessions[sessKey{local: idA.Cert.EphID, peer: c1.Peer()}] == nil {
		t.Fatal("aborted re-dial destroyed the established session")
	}
	if err := c1.Send([]byte("still alive")); err != nil {
		t.Fatal(err)
	}
	d.sim.Run(1000)
	if msgs := d.b.Inbox(); len(msgs) != 1 || string(msgs[0].Payload) != "still alive" {
		t.Fatalf("b inbox after abort: %+v", msgs)
	}
}

func TestStackSessionDataForUnknownFlowDropped(t *testing.T) {
	d := newDuplex(t)
	idA := d.issue(t, d.a, d.signA, ephid.KindData, 1)
	idB := d.issue(t, d.b, d.signB, ephid.KindData, 2)
	// Raw session data without a handshake.
	if err := d.a.SendRaw(wire.ProtoSession, 0, idA.Cert.EphID,
		wire.Endpoint{AID: 2, EphID: idB.Cert.EphID}, []byte("junk")); err != nil {
		t.Fatal(err)
	}
	d.sim.Run(1000)
	if d.b.Stats().DropNoSession != 1 {
		t.Errorf("DropNoSession = %d", d.b.Stats().DropNoSession)
	}
}

func TestStackPingEcho(t *testing.T) {
	d := newDuplex(t)
	d.issue(t, d.a, d.signA, ephid.KindData, 1)
	idB := d.issue(t, d.b, d.signB, ephid.KindData, 2)

	var replies []uint16
	d.a.AddEchoListener(func(_ wire.Endpoint, seq uint16) { replies = append(replies, seq) })
	if err := d.a.Ping(wire.Endpoint{AID: 2, EphID: idB.Cert.EphID}, 7); err != nil {
		t.Fatal(err)
	}
	d.sim.Run(1000)
	if len(replies) != 1 || replies[0] != 7 {
		t.Errorf("replies = %v", replies)
	}
}

func TestStackPingWithoutEphID(t *testing.T) {
	d := newDuplex(t)
	if err := d.a.Ping(wire.Endpoint{AID: 2}, 1); err != ErrNoEphID {
		t.Errorf("err = %v", err)
	}
}

func TestStackShutoffRequestPath(t *testing.T) {
	d := newDuplex(t)
	idA := d.issue(t, d.a, d.signA, ephid.KindData, 1)
	idB := d.issue(t, d.b, d.signB, ephid.KindData, 2)
	conn, err := d.a.Dial(idA, &idB.Cert, DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	d.sim.Run(1000)
	if err := conn.Send([]byte("unwanted")); err != nil {
		t.Fatal(err)
	}
	d.sim.Run(1000)
	msgs := d.b.Inbox()
	if len(msgs) != 1 {
		t.Fatal("no delivery")
	}
	// B files a shutoff using the retained peer cert and raw frame; it
	// leaves B's port without error (AA handling is tested in aa/).
	if _, err := d.b.RequestShutoff(msgs[0]); err != nil {
		t.Fatalf("RequestShutoff: %v", err)
	}
	sent := d.b.Stats().Sent
	if sent == 0 {
		t.Error("no shutoff frame sent")
	}
}

func TestStackControlReplyKeyMismatch(t *testing.T) {
	// A control reply binding foreign keys must be rejected even if it
	// decrypts (a malicious MS cannot swap the host's keys).
	d := newDuplex(t)
	h := d.a
	var cbErr error
	dh, _ := crypto.GenerateKeyPair()
	sig, _ := crypto.GenerateSigner()
	err := h.RequestEphIDFor(ephid.KindData, 900, dh.PublicKey(), sig.PublicKey(),
		func(_ *cert.Cert, err error) { cbErr = err })
	if err != nil {
		t.Fatal(err)
	}
	// Forge a reply with different keys, encrypted under the right
	// host key.
	otherDH, _ := crypto.GenerateKeyPair()
	c := &cert.Cert{Kind: ephid.KindData, ExpTime: 1 << 30, AID: 1}
	copy(c.DHPub[:], otherDH.PublicKey())
	copy(c.SigPub[:], sig.PublicKey())
	c.Sign(d.signA)
	raw, _ := c.MarshalBinary()
	aead, _ := crypto.NewAEAD(h.cfg.Keys.Enc[:], 1)
	ct, _ := aead.Seal(nil, raw, h.cfg.CtrlEphID[:])

	hdr := wire.Header{NextProto: wire.ProtoControl, DstEphID: h.cfg.CtrlEphID}
	h.handleControlReply(&hdr, ct)
	if cbErr == nil {
		t.Error("foreign-key reply accepted")
	}
	if len(h.poolList) != 0 {
		t.Error("foreign-key EphID installed")
	}
}

// TestRequestRefusesKindsTheMSDoesNotIssue: a request for a control or
// undefined EphID kind is refused before it is sent. The MS would drop
// it unanswered, and the host, which matches replies FIFO, would hand
// the next request's reply to it. A data request made afterwards still
// gets its own reply.
func TestRequestRefusesKindsTheMSDoesNotIssue(t *testing.T) {
	d := newDuplex(t)
	h := d.a
	dh, _ := crypto.GenerateKeyPair()
	sig, _ := crypto.GenerateSigner()
	for _, kind := range []ephid.Kind{ephid.KindControl, 3, 255} {
		err := h.RequestEphIDFor(kind, 900, dh.PublicKey(), sig.PublicKey(),
			func(*cert.Cert, error) { t.Errorf("kind %v: continuation fired", kind) })
		if !errors.Is(err, ms.ErrBadRequest) {
			t.Errorf("RequestEphIDFor(%v): %v, want ErrBadRequest", kind, err)
		}
		if err := h.RequestEphID(kind, 900, func(*OwnedEphID, error) {}); !errors.Is(err, ms.ErrBadRequest) {
			t.Errorf("RequestEphID(%v): %v, want ErrBadRequest", kind, err)
		}
	}
	if sent := h.Stats().Sent; sent != 0 || len(h.pendingEphID) != 0 {
		t.Fatalf("refused requests sent %d frames and left %d continuations", sent, len(h.pendingEphID))
	}

	var got *cert.Cert
	if err := h.RequestEphIDFor(ephid.KindData, 900, dh.PublicKey(), sig.PublicKey(),
		func(c *cert.Cert, err error) {
			if err != nil {
				t.Errorf("data request: %v", err)
			}
			got = c
		}); err != nil {
		t.Fatal(err)
	}
	c := &cert.Cert{Kind: ephid.KindData, ExpTime: 1 << 30, AID: 1}
	copy(c.DHPub[:], dh.PublicKey())
	copy(c.SigPub[:], sig.PublicKey())
	c.Sign(d.signA)
	raw, _ := c.MarshalBinary()
	aead, _ := crypto.NewAEAD(h.cfg.Keys.Enc[:], 1)
	reply, _ := aead.SealOnce(nil, append([]byte{0}, raw...), h.cfg.CtrlEphID[:])
	hdr := wire.Header{NextProto: wire.ProtoControl, DstEphID: h.cfg.CtrlEphID}
	h.handleControlReply(&hdr, reply)
	if got == nil || !got.Equal(c) {
		t.Errorf("the data request's reply delivered %+v", got)
	}
}

func TestStackICMPErrorSurfaced(t *testing.T) {
	d := newDuplex(t)
	idA := d.issue(t, d.a, d.signA, ephid.KindData, 1)
	var got []uint8
	d.a.AddRawListener(wire.ProtoICMP, func(_ *wire.Header, payload []byte) {
		if m, err := icmp.Decode(payload); err == nil {
			got = append(got, uint8(m.Type), m.Code)
		}
	})

	// B plays a router sending a dest-unreachable to A.
	idB := d.issue(t, d.b, d.signB, ephid.KindData, 2)
	m := &Message{}
	_ = m
	errMsg := []byte{3, 2, 0, 0, 0, 0} // TypeDestUnreachable, CodeEphIDRevoked, seq 0, len 0
	if err := d.b.SendRaw(wire.ProtoICMP, 0, idB.Cert.EphID,
		wire.Endpoint{AID: 1, EphID: idA.Cert.EphID}, errMsg); err != nil {
		t.Fatal(err)
	}
	d.sim.Run(1000)
	if len(got) != 2 || got[0] != 3 || got[1] != 2 {
		t.Errorf("got = %v", got)
	}
}

func TestStackRawPayloadTooLarge(t *testing.T) {
	d := newDuplex(t)
	idA := d.issue(t, d.a, d.signA, ephid.KindData, 1)
	err := d.a.SendRaw(wire.ProtoSession, 0, idA.Cert.EphID,
		wire.Endpoint{AID: 2}, bytes.Repeat([]byte{1}, wire.MaxPayload+1))
	if err == nil {
		t.Error("oversized payload accepted")
	}
}

// TestHandshakeRecordsLeaveWithTheirEphID pins the bound on the
// responder's completed-handshake map: records answer replays with the
// identical ack while the addressed EphID is pooled, and are dropped
// with it once it expires and is reaped — after which a replay is an
// ordinary bad handshake.
func TestHandshakeRecordsLeaveWithTheirEphID(t *testing.T) {
	d := newDuplex(t)
	now := int64(1000)
	d.b.cfg.Now = func() int64 { return now }
	idB := d.issue(t, d.b, d.signB, ephid.KindData, 2)
	idB.Cert.ExpTime = 2000
	idB.Cert.Sign(d.signB)

	// Capture initiator 0's handshake and every ack that answers it.
	first := d.issue(t, d.a, d.signA, ephid.KindData, 10)
	var handshake []byte
	var acks [][]byte
	d.link.AddTap(func(f []byte, _ *netsim.Port) {
		var hdr wire.Header
		if hdr.DecodeFromBytes(f) != nil || hdr.NextProto != wire.ProtoHandshake {
			return
		}
		switch {
		case hdr.SrcEphID == first.Cert.EphID:
			handshake = append([]byte(nil), f...)
		case hdr.DstEphID == first.Cert.EphID:
			acks = append(acks, append([]byte(nil), f[wire.HeaderSize:]...))
		}
	})
	const n = 8
	for i := 0; i < n; i++ {
		idA := first
		if i > 0 {
			idA = d.issue(t, d.a, d.signA, ephid.KindData, byte(10+i))
		}
		if _, err := d.a.Dial(idA, &idB.Cert, DialOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	d.sim.Run(10_000)
	if len(d.b.hsCompleted) != n || handshake == nil || len(acks) != 1 {
		t.Fatalf("records = %d, want %d (handshake captured: %v, acks: %d)",
			len(d.b.hsCompleted), n, handshake != nil, len(acks))
	}

	// Before expiry a replay is answered with the identical ack.
	d.b.HandleFrame(append([]byte(nil), handshake...), nil)
	d.sim.Run(1000)
	if d.b.Stats().DropReplay != 1 || len(acks) != 2 || !bytes.Equal(acks[0], acks[1]) {
		t.Fatalf("replay before expiry: DropReplay = %d, acks = %d", d.b.Stats().DropReplay, len(acks))
	}

	// Past the serving EphID's expiry the reap takes the records along.
	now = 2001
	d.b.ReapExpired()
	if _, ok := d.b.Lookup(idB.Cert.EphID); ok || len(d.b.poolList) != 0 {
		t.Fatalf("after the reap: serving EphID pooled %v, %d EphIDs left, want none", ok, len(d.b.poolList))
	}
	if len(d.b.hsCompleted) != 0 {
		t.Errorf("%d handshake records outlived their EphID", len(d.b.hsCompleted))
	}
	bad := d.b.Stats().DropBadHandshake
	d.b.HandleFrame(append([]byte(nil), handshake...), nil)
	if s := d.b.Stats(); s.DropBadHandshake != bad+1 || s.DropReplay != 1 {
		t.Errorf("replay after expiry: DropBadHandshake %d -> %d, DropReplay = %d", bad, s.DropBadHandshake, s.DropReplay)
	}
}

// TestRefusedSendConsumesNothing is the regression test for SendData
// sealing before checking: a send refused for size or for want of an
// attachment used to burn a header nonce and an AEAD counter value. Both
// are read off the wire — the header nonce, and the counter half of the
// sealed message's 12-byte AEAD nonce — on the accepted messages either
// side of the refused ones.
func TestRefusedSendConsumesNothing(t *testing.T) {
	d := newDuplex(t)
	idA := d.issue(t, d.a, d.signA, ephid.KindData, 1)
	idB := d.issue(t, d.b, d.signB, ephid.KindData, 2)
	conn, err := d.a.Dial(idA, &idB.Cert, DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	d.sim.Run(1000)
	if !conn.Established() {
		t.Fatal("connection not established")
	}

	type nonces struct{ header, aead uint64 }
	var sent []nonces
	d.link.AddTap(func(f []byte, _ *netsim.Port) {
		var hdr wire.Header
		if hdr.DecodeFromBytes(f) == nil && hdr.NextProto == wire.ProtoSession && hdr.SrcAID == 1 {
			sealed := f[wire.HeaderSize:]
			sent = append(sent, nonces{hdr.Nonce, binary.BigEndian.Uint64(sealed[4:crypto.NonceSize])})
		}
	})
	deliver := func(want string) {
		t.Helper()
		if err := conn.Send([]byte(want)); err != nil {
			t.Fatal(err)
		}
		d.sim.Run(1000)
		if got := d.b.Inbox(); len(got) != 1 || string(got[0].Payload) != want {
			t.Fatalf("peer inbox %+v, want %q", got, want)
		}
	}
	deliver("before")

	hostNonce := d.a.nonce
	sess := d.a.sessions[sessKey{local: idA.Cert.EphID, peer: conn.Peer()}]
	tooLarge := make([]byte, wire.MaxPayload-sess.Overhead()+1)
	if err := conn.Send(tooLarge); !errors.Is(err, wire.ErrTooLarge) {
		t.Fatalf("oversize send: %v, want ErrTooLarge", err)
	}
	port := d.a.port
	d.a.port = nil
	if err := conn.Send([]byte("into the void")); !errors.Is(err, ErrNotAttached) {
		t.Fatalf("unattached send: %v, want ErrNotAttached", err)
	}
	d.a.port = port
	if d.a.nonce != hostNonce {
		t.Errorf("refused sends moved the header nonce %d -> %d", hostNonce, d.a.nonce)
	}

	// The largest payload that fits is not refused, and the next message
	// continues both counters without a gap and still opens at the peer.
	if err := conn.Send(tooLarge[1:]); err != nil {
		t.Fatalf("largest payload refused: %v", err)
	}
	d.sim.Run(1000)
	if got := d.b.Inbox(); len(got) != 1 || len(got[0].Payload) != len(tooLarge)-1 {
		t.Fatalf("largest payload not delivered: %d messages", len(got))
	}
	deliver("after")
	if len(sent) != 3 {
		t.Fatalf("%d data frames on the wire, want 3", len(sent))
	}
	for i := 1; i < len(sent); i++ {
		if sent[i].header != sent[i-1].header+1 || sent[i].aead != sent[i-1].aead+1 {
			t.Errorf("frame %d carries nonces %+v after %+v: a refused send consumed one", i, sent[i], sent[i-1])
		}
	}
}
