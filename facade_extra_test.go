package apna

import (
	"bytes"
	"errors"
	"testing"

	"apna/internal/accountability"
	"apna/internal/ephid"
	"apna/internal/icmp"
	"apna/internal/wire"
)

// TestICMPTimeExceededInTransit: a packet whose hop limit dies inside a
// transit AS triggers a time-exceeded error from that AS's router — the
// mechanism traceroute builds on, working here without exposing any
// host identity (Section VIII-B).
func TestICMPTimeExceededInTransit(t *testing.T) {
	w := newWorld(t)
	idA := w.ephID(t, w.alice)
	idC := w.ephID(t, w.carol)

	var errTypes []uint8
	onICMPError(w.alice, func(typ, _ uint8, _ []byte) { errTypes = append(errTypes, typ) })

	// Build a frame that will exhaust its hop limit at AS 200: the
	// facade host stack always uses the default, so craft it manually
	// with the stack's frame tools.
	p := wire.Packet{
		Header: wire.Header{
			NextProto: wire.ProtoSession, HopLimit: 1, Nonce: 77,
			SrcAID: 100, DstAID: 300,
			SrcEphID: idA.Cert.EphID, DstEphID: idC.Cert.EphID,
		},
		Payload: []byte("ttl probe"),
	}
	frame, err := p.Encode()
	if err != nil {
		t.Fatal(err)
	}
	w.alice.Stack.ApplyMAC(frame)
	if err := w.alice.Stack.SendFrame(frame); err != nil {
		t.Fatal(err)
	}
	w.in.RunUntilIdle()

	if len(errTypes) != 1 || errTypes[0] != uint8(icmp.TypeTimeExceeded) {
		t.Errorf("errTypes = %v, want one time-exceeded", errTypes)
	}
	if got := w.carol.Stack.Inbox(); len(got) != 0 {
		t.Error("hop-limited packet was delivered")
	}
}

// TestIntraASCommunication: two hosts of the same AS communicate through
// their border router. The paper notes the AS sees both identities here
// (no privacy *from the AS* intra-domain, Section VI-B), but the
// protocol machinery — issuance, handshake, encryption, shutoff — works
// identically.
func TestIntraASCommunication(t *testing.T) {
	w := newWorld(t)
	dave := addHost(t, w.in, 100, "dave")
	idA := w.ephID(t, w.alice)
	idD, err := dave.NewEphID(ephid.KindData, 900)
	if err != nil {
		t.Fatal(err)
	}

	conn, err := w.alice.Connect(idA, &idD.Cert, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.alice.Send(conn, []byte("same-AS hello")); err != nil {
		t.Fatal(err)
	}
	msgs := dave.Stack.Inbox()
	if len(msgs) != 1 || string(msgs[0].Payload) != "same-AS hello" {
		t.Fatalf("dave inbox: %+v", msgs)
	}
	// Traffic never left AS 100.
	if w.in.AS(200).Router.Stats().Transited.Load() != 0 {
		t.Error("intra-AS traffic leaked into transit")
	}
	// Shutoff works intra-AS too: the AA of AS 100 serves both.
	if ok, err := dave.Shutoff(msgs[0]); err != nil || !ok {
		t.Errorf("intra-AS shutoff: %v %v", ok, err)
	}
	if !w.in.AS(100).Router.Revoked().Contains(idA.Cert.EphID) {
		t.Error("intra-AS shutoff did not revoke")
	}
}

// TestShutoffSurvivesUserRawHandler: the facade's shutoff-ack
// dispatcher rides an additive raw listener, so an application
// registering its own ProtoShutoff handler observes the acks without
// breaking Host.Shutoff.
func TestShutoffSurvivesUserRawHandler(t *testing.T) {
	w := newWorld(t)
	idA := w.ephID(t, w.alice)
	idC := w.ephID(t, w.carol)
	conn, err := w.alice.Connect(idA, &idC.Cert, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.alice.Send(conn, []byte("flood")); err != nil {
		t.Fatal(err)
	}
	msgs := w.carol.Stack.Inbox()

	observed := 0
	w.carol.Stack.RegisterRawHandler(wire.ProtoShutoff, func(_ *wire.Header, payload []byte) {
		observed++
	})
	ok, err := w.carol.Shutoff(msgs[0])
	if err != nil || !ok {
		t.Fatalf("shutoff with user raw handler installed: %v %v", ok, err)
	}
	if observed != 1 {
		t.Errorf("user handler observed %d acks, want 1", observed)
	}
}

// TestComplaintFutureVerifiesTheReceipt: the complaint future checks
// the offender AS's receipt at the complaining host, end to end. The
// victim AS's agent, past its own check, hands on a receipt whose
// signature bytes are corrupted, and the future completes with the
// verify error instead of the receipt.
func TestComplaintFutureVerifiesTheReceipt(t *testing.T) {
	w := newWorld(t)
	idA := w.ephID(t, w.alice)
	idC := w.ephID(t, w.carol)
	conn, err := w.alice.Connect(idA, &idC.Cert, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.alice.Send(conn, []byte("spam")); err != nil {
		t.Fatal(err)
	}
	msgs := w.carol.Stack.Inbox()
	if len(msgs) != 1 {
		t.Fatalf("carol inbox %d, want 1", len(msgs))
	}
	as := w.in.AS(300)
	corrupted := 0
	as.Acct.SetSend(func(dst wire.Endpoint, payload []byte) error {
		if payload[0] == accountability.MsgComplaintAck && len(payload) == 10+accountability.ReceiptSize {
			payload = bytes.Clone(payload)
			payload[len(payload)-1] ^= 0xff
			corrupted++
		}
		return as.aaHost.SendRaw(wire.ProtoAcct, 0, as.aaID.EphID, dst, payload)
	})
	rcpt, err := AwaitResult(w.in, w.carol.ComplainAsync(msgs[0]))
	if corrupted != 1 {
		t.Fatalf("%d receipts corrupted on the way to the host, want 1", corrupted)
	}
	if !errors.Is(err, accountability.ErrBadSignature) || rcpt != nil {
		t.Fatalf("receipt %+v, err %v; want no receipt and accountability.ErrBadSignature", rcpt, err)
	}
}

// TestServiceEndpointsAccessor covers the diagnostics accessor.
func TestServiceEndpointsAccessor(t *testing.T) {
	w := newWorld(t)
	msEp, dnsEp, aaEp := w.in.AS(100).ServiceEndpoints()
	if msEp.AID != 100 || dnsEp.AID != 100 || aaEp.AID != 100 {
		t.Error("service endpoints AID")
	}
	if msEp.EphID.IsZero() || dnsEp.EphID.IsZero() || aaEp.EphID.IsZero() {
		t.Error("service endpoints EphID unset")
	}
}
