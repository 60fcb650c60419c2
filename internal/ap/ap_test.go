package ap

import (
	"errors"
	"testing"
	"time"

	"apna"
	"apna/internal/cert"
	"apna/internal/crypto"
	"apna/internal/ephid"
	"apna/internal/wire"
)

type world struct {
	in     *apna.Internet
	apHost *apna.Host
	nat    *NAT
	peer   *apna.Host
	peerRx [][]byte
	peerID *wire.Endpoint
}

func newWorld(t *testing.T) *world {
	t.Helper()
	in, err := apna.New(1,
		apna.WithAS(100, "ap"), apna.WithAS(200, "peer"),
		apna.WithLink(100, 200, time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	w := &world{in: in, apHost: in.Host("ap"), peer: in.Host("peer")}
	w.nat = NewNAT(w.apHost.Stack, in.Sim)

	peerEphID, err := w.peer.NewEphID(ephid.KindData, 900)
	if err != nil {
		t.Fatal(err)
	}
	ep := peerEphID.Endpoint()
	w.peerID = &ep
	// Capture raw session frames at the peer (the AP test exercises
	// the forwarding path, not end-to-end encryption, which has its
	// own tests).
	w.peer.Stack.RegisterRawHandler(wire.ProtoSession, func(hdr *wire.Header, payload []byte) {
		w.peerRx = append(w.peerRx, append([]byte(nil), payload...))
	})
	return w
}

// clientWithEphID admits a client and relays one EphID request for it.
func clientWithEphID(t *testing.T, w *world, name string) (*Client, ephid.EphID) {
	t.Helper()
	c, err := w.nat.AdmitClient(name)
	if err != nil {
		t.Fatal(err)
	}
	dh, err := crypto.GenerateKeyPair()
	if err != nil {
		t.Fatal(err)
	}
	sig, err := crypto.GenerateSigner()
	if err != nil {
		t.Fatal(err)
	}
	var issued ephid.EphID
	err = w.nat.RequestEphIDForClient(name, ephid.KindData, 900,
		dh.PublicKey(), sig.PublicKey(), func(c2 *cert.Cert, err error) {
			if err != nil {
				t.Errorf("issue: %v", err)
				return
			}
			issued = c2.EphID
		})
	if err != nil {
		t.Fatal(err)
	}
	w.in.RunUntilIdle()
	if issued.IsZero() {
		t.Fatal("no EphID issued through AP")
	}
	return c, issued
}

func TestNATEphIDRelay(t *testing.T) {
	w := newWorld(t)
	_, issued := clientWithEphID(t, w, "laptop")

	// The EphID decodes — at the AS — to the AP's HID, not to any
	// client identity: the AS sees only the AP (Section VII-B).
	p, err := w.in.AS(100).Sealer().Open(issued)
	if err != nil {
		t.Fatal(err)
	}
	if p.HID != w.apHost.HID() {
		t.Errorf("EphID HID %v, want the AP's %v", p.HID, w.apHost.HID())
	}
	// The AP can identify the owning client.
	owner, err := w.nat.Identify(issued)
	if err != nil || owner != "laptop" {
		t.Errorf("Identify = %q, %v", owner, err)
	}
	if _, err := w.nat.Identify(ephid.EphID{1}); !errors.Is(err, ErrUnknownEphID) {
		t.Errorf("unknown Identify: %v", err)
	}
}

func TestNATOutboundMACReplacement(t *testing.T) {
	w := newWorld(t)
	c, issued := clientWithEphID(t, w, "laptop")

	frame, err := c.BuildFrame(wire.ProtoSession, issued, 100, *w.peerID, 1, []byte("via ap"))
	if err != nil {
		t.Fatal(err)
	}
	c.Send(frame)
	w.in.RunUntilIdle()

	if len(w.peerRx) != 1 || string(w.peerRx[0]) != "via ap" {
		t.Fatalf("peer received %d frames", len(w.peerRx))
	}
	if w.nat.Forwarded == 0 {
		t.Error("AP forwarded counter")
	}
	// The AS border verified the AP's MAC on the way out.
	if w.in.AS(100).Router.Stats().Egressed.Load() == 0 {
		t.Error("frame did not pass AS egress")
	}
}

func TestNATDropsBadClientMAC(t *testing.T) {
	w := newWorld(t)
	c, issued := clientWithEphID(t, w, "laptop")
	frame, _ := c.BuildFrame(wire.ProtoSession, issued, 100, *w.peerID, 1, []byte("x"))
	frame[len(frame)-1] ^= 1
	c.Send(frame)
	w.in.RunUntilIdle()
	if len(w.peerRx) != 0 || w.nat.DroppedBadMAC == 0 {
		t.Error("bad client MAC forwarded")
	}
}

func TestNATDropsCrossClientEphIDUse(t *testing.T) {
	// A client cannot source traffic from another client's EphID:
	// the AP's EphID_info binds EphIDs to clients.
	w := newWorld(t)
	_, issuedA := clientWithEphID(t, w, "laptop")
	cB, _ := clientWithEphID(t, w, "phone")

	frame, _ := cB.BuildFrame(wire.ProtoSession, issuedA, 100, *w.peerID, 1, []byte("steal"))
	cB.Send(frame)
	w.in.RunUntilIdle()
	if len(w.peerRx) != 0 || w.nat.DroppedUnknown == 0 {
		t.Error("cross-client EphID use forwarded")
	}
}

func TestNATInboundRouting(t *testing.T) {
	w := newWorld(t)
	cA, issuedA := clientWithEphID(t, w, "laptop")
	cB, issuedB := clientWithEphID(t, w, "phone")

	peerSrc, err := w.peer.NewEphID(ephid.KindData, 900)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.peer.Stack.SendRaw(wire.ProtoSession, 0, peerSrc.Cert.EphID,
		wire.Endpoint{AID: 100, EphID: issuedA}, []byte("to laptop")); err != nil {
		t.Fatal(err)
	}
	if err := w.peer.Stack.SendRaw(wire.ProtoSession, 0, peerSrc.Cert.EphID,
		wire.Endpoint{AID: 100, EphID: issuedB}, []byte("to phone")); err != nil {
		t.Fatal(err)
	}
	w.in.RunUntilIdle()

	if len(cA.Inbox) != 1 || len(cB.Inbox) != 1 {
		t.Fatalf("inboxes: laptop=%d phone=%d", len(cA.Inbox), len(cB.Inbox))
	}
	pktA, err := wire.DecodePacket(cA.Inbox[0])
	if err != nil {
		t.Fatal(err)
	}
	if string(pktA.Payload) != "to laptop" {
		t.Errorf("laptop payload %q", pktA.Payload)
	}
}

func TestNATDuplicateAdmission(t *testing.T) {
	w := newWorld(t)
	if _, err := w.nat.AdmitClient("dup"); err != nil {
		t.Fatal(err)
	}
	if _, err := w.nat.AdmitClient("dup"); err == nil {
		t.Error("duplicate admission accepted")
	}
	err := w.nat.RequestEphIDForClient("ghost", ephid.KindData, 900, nil, nil, nil)
	if !errors.Is(err, ErrUnknownClient) {
		t.Errorf("ghost request: %v", err)
	}
}
