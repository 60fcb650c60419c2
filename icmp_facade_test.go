package apna

import (
	"testing"

	"apna/internal/ephid"
	"apna/internal/icmp"
	"apna/internal/wire"
)

// onICMPError calls fn with every ICMP error h receives, read the way
// the facade's own listeners read their protocols: a raw listener and
// icmp.Decode. Echo requests and replies are not errors.
func onICMPError(h *Host, fn func(typ, code uint8, quoted []byte)) {
	h.Stack.AddRawListener(wire.ProtoICMP, func(_ *wire.Header, payload []byte) {
		m, err := icmp.Decode(payload)
		if err != nil || m.Type == icmp.TypeEchoRequest || m.Type == icmp.TypeEchoReply {
			return
		}
		fn(uint8(m.Type), m.Code, m.Body)
	})
}

// TestICMPDestUnreachableOnExpiredEphID exercises the router-originated
// ICMP feedback of Section VIII-B: a packet to an expired destination
// EphID is dropped at the destination AS, whose border router answers
// with a dest-unreachable error sent from its own EphID — so the sender
// learns of the failure without the router sacrificing privacy.
func TestICMPDestUnreachableOnExpiredEphID(t *testing.T) {
	w := newWorld(t)
	idA := w.ephID(t, w.alice)

	var errs []struct {
		typ, code uint8
	}
	onICMPError(w.alice, func(typ, code uint8, quoted []byte) {
		errs = append(errs, struct{ typ, code uint8 }{typ, code})
		// The quoted frame lets the source attribute the error to its
		// own flow.
		if len(quoted) == 0 || wire.FrameSrcEphID(quoted) != idA.Cert.EphID {
			t.Error("quote does not identify the offending flow")
		}
	})

	// Craft a destination EphID at AS 300 that is already expired.
	expired := w.in.AS(300).Sealer().Mint(ephid.Payload{
		HID:     w.carol.HID(),
		ExpTime: uint32(w.in.Now() - 10),
	})
	err := w.alice.Stack.SendRaw(wire.ProtoSession, 0, idA.Cert.EphID,
		Endpoint{AID: 300, EphID: expired}, []byte("doomed"))
	if err != nil {
		t.Fatal(err)
	}
	w.in.RunUntilIdle()

	if len(errs) != 1 {
		t.Fatalf("ICMP errors received: %d", len(errs))
	}
	if errs[0].typ != uint8(icmp.TypeDestUnreachable) || errs[0].code != icmp.CodeEphIDExpired {
		t.Errorf("got type %d code %d", errs[0].typ, errs[0].code)
	}
}

// TestICMPErrorDeliveredAcrossInterASLink pins the remote-AS branch of
// sendICMPError: when the drop happens at a *foreign* AS, the error is
// a regular APNA packet from that AS's router identity, forwarded back
// across the inter-AS links — not the local DeliverToHost fast path.
func TestICMPErrorDeliveredAcrossInterASLink(t *testing.T) {
	w := newWorld(t)
	idA := w.ephID(t, w.alice)

	errs := 0
	onICMPError(w.alice, func(typ, code uint8, _ []byte) {
		errs++
		if typ != uint8(icmp.TypeDestUnreachable) || code != icmp.CodeEphIDExpired {
			t.Errorf("got type %d code %d", typ, code)
		}
	})

	transitBefore := w.in.AS(200).Router.Stats().Transited.Load()
	rtrSentBefore := w.in.AS(300).rtrHost.Stats().Sent

	// A destination EphID at AS 300 that is already expired: the drop
	// verdict is rendered by AS 300's ingress, two links away from
	// alice.
	expired := w.in.AS(300).Sealer().Mint(ephid.Payload{
		HID:     w.carol.HID(),
		ExpTime: uint32(w.in.Now() - 10),
	})
	if err := w.alice.Stack.SendRaw(wire.ProtoSession, 0, idA.Cert.EphID,
		Endpoint{AID: 300, EphID: expired}, []byte("doomed")); err != nil {
		t.Fatal(err)
	}
	w.in.RunUntilIdle()

	if errs != 1 {
		t.Fatalf("ICMP errors received: %d", errs)
	}
	// The error left AS 300 through its router host's stack (the remote
	// branch), not via the local DeliverToHost shortcut.
	if got := w.in.AS(300).rtrHost.Stats().Sent - rtrSentBefore; got != 1 {
		t.Errorf("AS300 router host sent %d packets, want 1", got)
	}
	// Both the doomed packet and the returning error transited AS 200.
	if got := w.in.AS(200).Router.Stats().Transited.Load() - transitBefore; got != 2 {
		t.Errorf("AS200 transited %d packets, want 2 (probe + error)", got)
	}
}

// TestICMPRevokedFeedbackUsesLocalFastPath pins the counterpart local
// branch: feedback about a packet dropped at the source's own AS is
// delivered directly to the host, bypassing the ingress checks that
// would discard it (the revocation that triggered the error would also
// block the error).
func TestICMPRevokedFeedbackUsesLocalFastPath(t *testing.T) {
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
	if ok, err := w.carol.Shutoff(msgs[0]); err != nil || !ok {
		t.Fatalf("shutoff: %v %v", ok, err)
	}

	rtrSentBefore := w.in.AS(100).rtrHost.Stats().Sent
	errs := 0
	onICMPError(w.alice, func(_, code uint8, _ []byte) {
		errs++
		if code != icmp.CodeEphIDRevoked {
			t.Errorf("code = %d", code)
		}
	})
	if err := w.alice.Send(conn, []byte("again")); err != nil {
		t.Fatal(err)
	}
	if errs != 1 {
		t.Fatalf("ICMP errors: %d", errs)
	}
	// Local fast path: the router host's stack never transmitted — the
	// frame went straight to alice's port.
	if got := w.in.AS(100).rtrHost.Stats().Sent - rtrSentBefore; got != 0 {
		t.Errorf("AS100 router host sent %d packets, want 0 (DeliverToHost)", got)
	}
}

// TestICMPNoFeedbackForSpoofedPackets: drops whose source cannot be
// authenticated (bad MAC) must not generate ICMP — feedback to a forged
// source would be a reflection primitive.
func TestICMPNoFeedbackForSpoofedPackets(t *testing.T) {
	w := newWorld(t)
	idA := w.ephID(t, w.alice)
	mallory := addHost(t, w.in, 100, "mallory2")
	w.ephID(t, mallory)

	fired := 0
	onICMPError(w.alice, func(uint8, uint8, []byte) { fired++ })
	onICMPError(mallory, func(uint8, uint8, []byte) { fired++ })

	// Mallory spoofs alice's EphID; her MAC cannot verify.
	idC := w.ephID(t, w.carol)
	if err := mallory.Stack.SendRaw(wire.ProtoSession, 0, idA.Cert.EphID,
		Endpoint{AID: 300, EphID: idC.Cert.EphID}, []byte("spoof")); err != nil {
		t.Fatal(err)
	}
	w.in.RunUntilIdle()
	if fired != 0 {
		t.Errorf("spoofed packet generated %d ICMP errors", fired)
	}
}

// TestICMPRevokedFeedback: after a shutoff, the revoked sender gets
// dest-unreachable/revoked feedback instead of silent drops.
func TestICMPRevokedFeedback(t *testing.T) {
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
	if ok, err := w.carol.Shutoff(msgs[0]); err != nil || !ok {
		t.Fatalf("shutoff: %v %v", ok, err)
	}

	var codes []uint8
	onICMPError(w.alice, func(typ, code uint8, _ []byte) { codes = append(codes, code) })
	if err := w.alice.Send(conn, []byte("again")); err != nil {
		t.Fatal(err)
	}
	if len(codes) != 1 || codes[0] != icmp.CodeEphIDRevoked {
		t.Errorf("codes = %v", codes)
	}
}
