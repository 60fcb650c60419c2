package aa

import (
	"bytes"
	"errors"
	"testing"

	"apna/internal/border"
	"apna/internal/cert"
	"apna/internal/crypto"
	"apna/internal/ephid"
	"apna/internal/hostdb"
	"apna/internal/rpki"
	"apna/internal/wire"
)

// fixture models two ASes: AS 100 hosts the attacker (and the agent
// under test); AS 200 hosts the victim destination.
type fixture struct {
	agent  *Agent
	router *border.Router
	now    int64

	srcSealer *ephid.Sealer
	srcDB     *hostdb.DB
	srcHID    ephid.HID
	srcKeys   crypto.HostASKeys
	srcEphID  ephid.EphID

	dstSigner  *crypto.Signer // AS 200's certificate signer
	dstCert    cert.Cert
	dstKeyPair *crypto.Signer // victim's per-EphID signing key
	dstEphID   ephid.EphID
}

const (
	srcAID ephid.AID = 100
	dstAID ephid.AID = 200
)

func newFixture(t *testing.T) *fixture {
	t.Helper()
	f := &fixture{now: 1_000_000}

	srcSecret, err := crypto.ASSecretFromBytes(bytes.Repeat([]byte{1}, crypto.SymKeySize))
	if err != nil {
		t.Fatal(err)
	}
	f.srcSealer, err = ephid.NewSealer(srcSecret)
	if err != nil {
		t.Fatal(err)
	}
	f.srcDB = hostdb.New()
	f.srcHID = 9
	f.srcKeys = crypto.DeriveHostASKeys([]byte("attacker"))
	f.srcDB.Put(hostdb.Entry{HID: f.srcHID, Keys: f.srcKeys, RegisteredAt: f.now})
	f.srcEphID = f.srcSealer.Mint(ephid.Payload{HID: f.srcHID, ExpTime: uint32(f.now) + 600})

	// Destination AS 200: signer registered with the shared RPKI.
	f.dstSigner, err = crypto.GenerateSigner()
	if err != nil {
		t.Fatal(err)
	}
	auth, err := rpki.NewAuthority()
	if err != nil {
		t.Fatal(err)
	}
	dh, _ := crypto.GenerateKeyPair()
	rec, err := auth.Certify(dstAID, f.dstSigner.PublicKey(), dh.PublicKey(), f.now+86400)
	if err != nil {
		t.Fatal(err)
	}
	trust := rpki.NewTrustStore(auth.PublicKey())
	if err := trust.Add(rec); err != nil {
		t.Fatal(err)
	}

	// Victim's EphID certificate signed by AS 200.
	dstSecret, _ := crypto.ASSecretFromBytes(bytes.Repeat([]byte{2}, crypto.SymKeySize))
	dstSealer, _ := ephid.NewSealer(dstSecret)
	f.dstEphID = dstSealer.Mint(ephid.Payload{HID: 77, ExpTime: uint32(f.now) + 600})
	f.dstKeyPair, _ = crypto.GenerateSigner()
	dstDH, _ := crypto.GenerateKeyPair()
	f.dstCert = cert.Cert{
		Kind: ephid.KindData, EphID: f.dstEphID,
		ExpTime: uint32(f.now) + 600, AID: dstAID,
	}
	copy(f.dstCert.DHPub[:], dstDH.PublicKey())
	copy(f.dstCert.SigPub[:], f.dstKeyPair.PublicKey())
	f.dstCert.Sign(f.dstSigner)

	f.router, err = border.New(srcAID, f.srcSealer, f.srcDB, srcSecret, func() int64 { return f.now })
	if err != nil {
		t.Fatal(err)
	}
	f.agent = New(Config{AID: srcAID, StrikeLimit: 3}, f.srcSealer, f.srcDB, srcSecret,
		trust, func() int64 { return f.now })
	f.agent.AddRouter(f.router)
	return f
}

// offendingPacket builds a MACed packet from the attacker to the victim.
func (f *fixture) offendingPacket(t *testing.T) []byte {
	t.Helper()
	p := wire.Packet{
		Header: wire.Header{
			NextProto: wire.ProtoSession, HopLimit: wire.DefaultHopLimit, Nonce: 7,
			SrcAID: srcAID, DstAID: dstAID,
			SrcEphID: f.srcEphID, DstEphID: f.dstEphID,
		},
		Payload: []byte("unwanted flood traffic"),
	}
	frame, err := p.Encode()
	if err != nil {
		t.Fatal(err)
	}
	pm, err := wire.NewPacketMAC(f.srcKeys.MAC[:])
	if err != nil {
		t.Fatal(err)
	}
	pm.Apply(frame)
	return frame
}

func TestShutoffHappyPath(t *testing.T) {
	f := newFixture(t)
	pkt := f.offendingPacket(t)
	req := BuildRequest(pkt, &f.dstCert, f.dstKeyPair)

	res, err := f.agent.HandleShutoff(req)
	if err != nil {
		t.Fatal(err)
	}
	if res.Strikes != 1 {
		t.Errorf("strikes = %d", res.Strikes)
	}
	// The strike lands on the responsible host.
	if e, err := f.srcDB.Get(f.srcHID); err != nil || e.Strikes != 1 {
		t.Errorf("host %v: %+v, %v; want one strike", f.srcHID, e, err)
	}
	if !f.router.Revoked().Contains(f.srcEphID) {
		t.Error("EphID not on the router's revocation list")
	}
	// Host remains valid after a single strike: other EphIDs work.
	if !f.srcDB.Valid(f.srcHID) {
		t.Error("host revoked after one strike")
	}
}

func TestShutoffRequestCodecRoundTrip(t *testing.T) {
	f := newFixture(t)
	req := BuildRequest(f.offendingPacket(t), &f.dstCert, f.dstKeyPair)
	raw, err := req.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeRequest(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Cert.Equal(&req.Cert) || got.Signature != req.Signature || !bytes.Equal(got.Packet, req.Packet) {
		t.Error("roundtrip mismatch")
	}
	// The decoded request still passes the full shutoff validation.
	if _, err := f.agent.HandleShutoff(got); err != nil {
		t.Errorf("decoded request rejected: %v", err)
	}
}

func TestDecodeRequestErrors(t *testing.T) {
	if _, err := DecodeRequest(make([]byte, 10)); !errors.Is(err, ErrBadRequest) {
		t.Errorf("short: %v", err)
	}
	f := newFixture(t)
	req := BuildRequest(f.offendingPacket(t), &f.dstCert, f.dstKeyPair)
	raw, _ := req.Encode()
	if _, err := DecodeRequest(raw[:len(raw)-1]); !errors.Is(err, ErrBadRequest) {
		t.Errorf("truncated: %v", err)
	}
}

func TestShutoffRejectsForgedCert(t *testing.T) {
	// A malicious AS cannot fake someone else's certificate — the
	// trust store resolves the claimed AID's real key.
	f := newFixture(t)
	rogueSigner, _ := crypto.GenerateSigner()
	forged := f.dstCert
	forged.Sign(rogueSigner)
	req := BuildRequest(f.offendingPacket(t), &forged, f.dstKeyPair)
	if _, err := f.agent.HandleShutoff(req); !errors.Is(err, ErrBadCert) {
		t.Errorf("err = %v", err)
	}
}

func TestShutoffRejectsUnknownAS(t *testing.T) {
	f := newFixture(t)
	c := f.dstCert
	c.AID = 999 // no RPKI record
	c.Sign(f.dstSigner)
	req := BuildRequest(f.offendingPacket(t), &c, f.dstKeyPair)
	if _, err := f.agent.HandleShutoff(req); !errors.Is(err, ErrBadCert) {
		t.Errorf("err = %v", err)
	}
}

func TestShutoffRejectsWrongSigner(t *testing.T) {
	// Signature by someone who does not own the destination EphID.
	f := newFixture(t)
	mallory, _ := crypto.GenerateSigner()
	req := BuildRequest(f.offendingPacket(t), &f.dstCert, mallory)
	if _, err := f.agent.HandleShutoff(req); !errors.Is(err, ErrBadSignature) {
		t.Errorf("err = %v", err)
	}
}

func TestShutoffRejectsNonRecipient(t *testing.T) {
	// The authorization check: the evidence packet must be addressed
	// to the requester's own EphID (Section VI-C).
	f := newFixture(t)
	pkt := f.offendingPacket(t)
	// Change the destination EphID so the victim is no longer the
	// recipient; re-MAC so the packet itself is "authentic".
	pkt[40] ^= 0xFF
	pm, _ := wire.NewPacketMAC(f.srcKeys.MAC[:])
	pm.Apply(pkt)
	req := BuildRequest(pkt, &f.dstCert, f.dstKeyPair)
	if _, err := f.agent.HandleShutoff(req); !errors.Is(err, ErrNotAuthorized) {
		t.Errorf("err = %v", err)
	}
}

func TestShutoffRejectsForeignSource(t *testing.T) {
	f := newFixture(t)
	pkt := f.offendingPacket(t)
	pkt[19] = 99 // SrcAID no longer ours
	pm, _ := wire.NewPacketMAC(f.srcKeys.MAC[:])
	pm.Apply(pkt)
	req := BuildRequest(pkt, &f.dstCert, f.dstKeyPair)
	if _, err := f.agent.HandleShutoff(req); !errors.Is(err, ErrNotOurs) {
		t.Errorf("err = %v", err)
	}
}

func TestShutoffRejectsRoguePacket(t *testing.T) {
	// A destination cannot fabricate evidence: without kHA the MAC
	// does not verify ("the destination cannot make a shutoff request
	// with a rogue packet", Section VI-C).
	f := newFixture(t)
	pkt := f.offendingPacket(t)
	pkt[wire.HeaderSize] ^= 1 // tamper payload; MAC now stale
	req := BuildRequest(pkt, &f.dstCert, f.dstKeyPair)
	if _, err := f.agent.HandleShutoff(req); !errors.Is(err, ErrBadPacketMAC) {
		t.Errorf("err = %v", err)
	}
	if f.router.Revoked().Len() != 0 {
		t.Error("rogue packet caused a revocation")
	}
}

func TestShutoffRejectsGarbageEvidence(t *testing.T) {
	f := newFixture(t)
	req := BuildRequest([]byte("not a frame"), &f.dstCert, f.dstKeyPair)
	if _, err := f.agent.HandleShutoff(req); !errors.Is(err, ErrBadRequest) {
		t.Errorf("err = %v", err)
	}
}

func TestShutoffRejectsExpiredSourceEphID(t *testing.T) {
	f := newFixture(t)
	f.srcEphID = f.srcSealer.Mint(ephid.Payload{HID: f.srcHID, ExpTime: uint32(f.now) - 1})
	req := BuildRequest(f.offendingPacket(t), &f.dstCert, f.dstKeyPair)
	if _, err := f.agent.HandleShutoff(req); !errors.Is(err, ErrBadSrcEphID) {
		t.Errorf("err = %v", err)
	}
}

func TestShutoffRejectsUnknownSourceHost(t *testing.T) {
	f := newFixture(t)
	f.srcEphID = f.srcSealer.Mint(ephid.Payload{HID: 404, ExpTime: uint32(f.now) + 600})
	req := BuildRequest(f.offendingPacket(t), &f.dstCert, f.dstKeyPair)
	if _, err := f.agent.HandleShutoff(req); !errors.Is(err, ErrUnknownHost) {
		t.Errorf("err = %v", err)
	}
}

func TestStrikeEscalationRevokesHost(t *testing.T) {
	// Section VIII-G2: too many shutoffs revoke the HID itself.
	f := newFixture(t)
	for i := 1; i <= 3; i++ {
		f.srcEphID = f.srcSealer.Mint(ephid.Payload{HID: f.srcHID, ExpTime: uint32(f.now) + 600})
		req := BuildRequest(f.offendingPacket(t), &f.dstCert, f.dstKeyPair)
		res, err := f.agent.HandleShutoff(req)
		if err != nil {
			t.Fatalf("strike %d: %v", i, err)
		}
		if res.Strikes != i {
			t.Errorf("strike %d counted as %d", i, res.Strikes)
		}
		if revoked := !f.srcDB.Valid(f.srcHID); revoked != (i == 3) {
			t.Errorf("strike %d: revoked = %v", i, revoked)
		}
	}
	if f.srcDB.Valid(f.srcHID) {
		t.Error("host still valid after strike limit")
	}
}

func TestRevokeVoluntary(t *testing.T) {
	f := newFixture(t)
	if err := f.agent.RevokeVoluntary(f.srcHID, f.srcEphID); err != nil {
		t.Fatal(err)
	}
	if !f.router.Revoked().Contains(f.srcEphID) {
		t.Error("voluntary revocation not applied")
	}
	// Cannot revoke someone else's EphID.
	other := f.srcSealer.Mint(ephid.Payload{HID: 123, ExpTime: uint32(f.now) + 600})
	if err := f.agent.RevokeVoluntary(f.srcHID, other); !errors.Is(err, ErrNotAuthorized) {
		t.Errorf("cross-host revocation: %v", err)
	}
	var junk ephid.EphID
	if err := f.agent.RevokeVoluntary(f.srcHID, junk); !errors.Is(err, ErrBadSrcEphID) {
		t.Errorf("junk EphID: %v", err)
	}
}
