package host

import (
	"bytes"
	"errors"
	"testing"

	"apna/internal/crypto"
	"apna/internal/ephid"
	"apna/internal/rpki"
	"apna/internal/wire"
)

// End-to-end behavior of the host stack is covered by the facade
// integration tests (package apna); these tests cover the pieces that
// are unit-testable in isolation: codecs, pool policy, and guards.

func testHost(t *testing.T) *Host {
	t.Helper()
	h, err := New(Config{
		AID:   100,
		Keys:  crypto.DeriveHostASKeys([]byte("h")),
		Trust: rpki.NewTrustStore(nil),
		Now:   func() int64 { return 1000 },
	})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func owned(t *testing.T, kind ephid.Kind, exp uint32, tag byte) *OwnedEphID {
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
	o.Cert.ExpTime = exp
	o.Cert.AID = 100
	o.Cert.EphID[0] = tag
	copy(o.Cert.DHPub[:], dh.PublicKey())
	copy(o.Cert.SigPub[:], sig.PublicKey())
	return o
}

func TestHandshakeCodecRoundTrip(t *testing.T) {
	o := owned(t, ephid.KindData, 9999, 1)
	m := handshakeMsg{flags: hsFlagAck, cert: o.Cert, data: []byte("0rtt")}
	raw, err := m.encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeHandshake(raw)
	if err != nil {
		t.Fatal(err)
	}
	if got.flags != m.flags || !got.cert.Equal(&m.cert) || !bytes.Equal(got.data, m.data) {
		t.Error("roundtrip mismatch")
	}
}

func TestHandshakeCodecErrors(t *testing.T) {
	if _, err := decodeHandshake(make([]byte, 10)); err == nil {
		t.Error("short handshake accepted")
	}
	o := owned(t, ephid.KindData, 9999, 1)
	m := handshakeMsg{cert: o.Cert, data: []byte("abc")}
	raw, _ := m.encode()
	if _, err := decodeHandshake(raw[:len(raw)-1]); err == nil {
		t.Error("truncated data accepted")
	}
	if _, err := decodeHandshake(append(raw, 0)); err == nil {
		t.Error("trailing bytes accepted")
	}
}

func TestSessionAADBindsAllFields(t *testing.T) {
	base := wire.Header{Nonce: 7, SrcAID: 1, DstAID: 2}
	base.SrcEphID[0] = 3
	base.DstEphID[0] = 4
	var h Host
	aad := bytes.Clone(h.sessionAAD(&base)) // the scratch is rewritten below
	if len(aad) != sessionAADSize {
		t.Fatalf("AAD is %d bytes, want %d", len(aad), sessionAADSize)
	}

	mutations := []func(*wire.Header){
		func(h *wire.Header) { h.Nonce++ },
		func(h *wire.Header) { h.SrcAID++ },
		func(h *wire.Header) { h.DstAID++ },
		func(h *wire.Header) { h.SrcEphID[5] = 9 },
		func(h *wire.Header) { h.DstEphID[5] = 9 },
	}
	for i, mutate := range mutations {
		m := base
		mutate(&m)
		if bytes.Equal(aad, h.sessionAAD(&m)) {
			t.Errorf("mutation %d not reflected in AAD", i)
		}
	}
}

func TestAcquirePerFlowExhaustion(t *testing.T) {
	h := testHost(t)
	h.AddEphID(owned(t, ephid.KindData, 9999, 1))
	if _, err := h.Acquire(PerFlow, ""); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Acquire(PerFlow, ""); !errors.Is(err, ErrNoEphID) {
		t.Errorf("exhausted pool: %v", err)
	}
}

func TestAcquireSkipsExpiredAndReceiveOnly(t *testing.T) {
	h := testHost(t)
	h.AddEphID(owned(t, ephid.KindData, 1, 1))           // expired (now=1000)
	h.AddEphID(owned(t, ephid.KindReceiveOnly, 9999, 2)) // receive-only
	if _, err := h.Acquire(PerHost, ""); !errors.Is(err, ErrNoEphID) {
		t.Errorf("unusable EphIDs acquired: %v", err)
	}
	h.AddEphID(owned(t, ephid.KindData, 9999, 3))
	o, err := h.Acquire(PerHost, "")
	if err != nil || o.Cert.EphID[0] != 3 {
		t.Errorf("acquire: %v, %v", o, err)
	}
}

func TestPickServingSkipsReceiveOnly(t *testing.T) {
	h := testHost(t)
	h.AddEphID(owned(t, ephid.KindReceiveOnly, 9999, 1))
	if got := h.pickServing(); got != nil {
		t.Error("receive-only EphID picked as serving")
	}
	data := owned(t, ephid.KindData, 9999, 2)
	h.AddEphID(data)
	if got := h.pickServing(); got != data {
		t.Error("serving EphID not found")
	}
}

func TestGranularityString(t *testing.T) {
	names := map[Granularity]string{
		PerHost: "per-host", PerFlow: "per-flow",
		PerApplication: "per-application", Granularity(9): "granularity(9)",
	}
	for g, want := range names {
		if g.String() != want {
			t.Errorf("%d = %q", g, g)
		}
	}
}

func TestSendRequiresAttachment(t *testing.T) {
	h := testHost(t)
	err := h.SendRaw(wire.ProtoSession, 0, ephid.EphID{}, wire.Endpoint{}, nil)
	if !errors.Is(err, ErrNotAttached) {
		t.Errorf("err = %v", err)
	}
	if err := h.SendFrame([]byte{1}); !errors.Is(err, ErrNotAttached) {
		t.Errorf("SendFrame: %v", err)
	}
}

func TestSendDataWithoutSession(t *testing.T) {
	h := testHost(t)
	err := h.SendData(ephid.EphID{}, wire.Endpoint{AID: 5}, []byte("x"))
	if !errors.Is(err, ErrNoSession) {
		t.Errorf("err = %v", err)
	}
}

func TestDialRejectsExpiredCert(t *testing.T) {
	d := newDuplex(t)
	local := d.issue(t, d.a, d.signA, ephid.KindData, 1)
	peer := d.issue(t, d.b, d.signB, ephid.KindData, 2)
	peer.Cert.ExpTime = 1 // expired at now=1000, and signed as such
	peer.Cert.Sign(d.signB)
	if _, err := d.a.Dial(local, &peer.Cert, DialOptions{}); !errors.Is(err, ErrBadPeerCert) || !errors.Is(err, ephid.ErrExpired) {
		t.Errorf("err = %v, want ErrBadPeerCert for expiry", err)
	}
}

func TestInboxDrains(t *testing.T) {
	h := testHost(t)
	h.deliver(Message{Payload: []byte("a")})
	h.deliver(Message{Payload: []byte("b")})
	if got := h.Inbox(); len(got) != 2 {
		t.Fatalf("inbox = %d", len(got))
	}
	if got := h.Inbox(); len(got) != 0 {
		t.Error("inbox did not drain")
	}
}

func TestOnMessageBypassesInbox(t *testing.T) {
	h := testHost(t)
	var got []Message
	h.OnMessage(func(m Message) { got = append(got, m) })
	h.deliver(Message{Payload: []byte("x")})
	if len(got) != 1 || len(h.Inbox()) != 0 {
		t.Error("callback delivery wrong")
	}
}

func TestEndpointAccessor(t *testing.T) {
	o := owned(t, ephid.KindData, 9999, 7)
	ep := o.Endpoint()
	if ep.AID != 100 || ep.EphID != o.Cert.EphID {
		t.Error("Endpoint fields")
	}
}

func TestRequestShutoffWithoutEvidence(t *testing.T) {
	h := testHost(t)
	_, err := h.RequestShutoff(Message{})
	if !errors.Is(err, ErrNoPeerCert) {
		t.Errorf("err = %v", err)
	}
}
