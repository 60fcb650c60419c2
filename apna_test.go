package apna

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"apna/internal/border"
	"apna/internal/dns"
	"apna/internal/ephid"
	"apna/internal/host"
	"apna/internal/wire"
)

// world builds a three-AS line topology (100 - 200 - 300) with one host
// in AS 100 and one in AS 300, so host traffic transits AS 200.
type world struct {
	in           *Internet
	alice, carol *Host
}

func newWorld(t *testing.T) *world {
	t.Helper()
	in, err := New(1,
		WithAS(100, "alice"), WithAS(200), WithAS(300, "carol"),
		WithLink(100, 200, 5*time.Millisecond),
		WithLink(200, 300, 5*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	return &world{in: in, alice: in.Host("alice"), carol: in.Host("carol")}
}

func (w *world) ephID(t *testing.T, h *Host) *host.OwnedEphID {
	t.Helper()
	id, err := h.NewEphID(ephid.KindData, 900)
	if err != nil {
		t.Fatalf("NewEphID(%s): %v", h.Name, err)
	}
	return id
}

func TestEphIDIssuanceOverNetwork(t *testing.T) {
	w := newWorld(t)
	id := w.ephID(t, w.alice)

	// The certificate verifies against AS 100's key.
	asKey, err := w.in.Trust.SigKey(100, w.in.Now())
	if err != nil {
		t.Fatal(err)
	}
	if err := id.Cert.Verify(asKey, w.in.Now()); err != nil {
		t.Errorf("cert: %v", err)
	}
	// Only AS 100 can link it to alice.
	p, err := w.in.AS(100).Sealer().Open(id.Cert.EphID)
	if err != nil || p.HID != w.alice.HID() {
		t.Errorf("AS cannot link EphID: %+v, %v", p, err)
	}
	if _, err := w.in.AS(300).Sealer().Open(id.Cert.EphID); err == nil {
		t.Error("foreign AS decoded the EphID — host privacy broken")
	}
}

func TestEndToEndEncryptedCommunication(t *testing.T) {
	w := newWorld(t)
	idA := w.ephID(t, w.alice)
	idC := w.ephID(t, w.carol)

	conn, err := w.alice.Connect(idA, &idC.Cert, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.alice.Send(conn, []byte("hello carol")); err != nil {
		t.Fatal(err)
	}
	msgs := w.carol.Stack.Inbox()
	if len(msgs) != 1 || string(msgs[0].Payload) != "hello carol" {
		t.Fatalf("carol inbox: %+v", msgs)
	}
	// Reply back along the flow.
	if err := w.carol.Stack.Respond(msgs[0], []byte("hi alice")); err != nil {
		t.Fatal(err)
	}
	w.in.RunUntilIdle()
	back := w.alice.Stack.Inbox()
	if len(back) != 1 || string(back[0].Payload) != "hi alice" {
		t.Fatalf("alice inbox: %+v", back)
	}
	// The payload crossed AS 200 encrypted: the transit counter moved
	// and no cleartext appears in any transit frame (sampled via the
	// raw evidence frame carried on the delivered message).
	if w.in.AS(200).Router.Stats().Transited.Load() == 0 {
		t.Error("traffic did not transit AS 200")
	}
	if bytes.Contains(msgs[0].Raw, []byte("hello carol")) {
		t.Error("plaintext visible on the wire")
	}
}

func TestZeroRTTDataDelivery(t *testing.T) {
	w := newWorld(t)
	idA := w.ephID(t, w.alice)
	idC := w.ephID(t, w.carol)

	if _, err := w.alice.Connect(idA, &idC.Cert, []byte("0-rtt payload")); err != nil {
		t.Fatal(err)
	}
	msgs := w.carol.Stack.Inbox()
	if len(msgs) != 1 || string(msgs[0].Payload) != "0-rtt payload" {
		t.Fatalf("carol inbox: %+v", msgs)
	}
}

func TestReceiveOnlyClientServerFlow(t *testing.T) {
	// Section VII-A: carol publishes a receive-only EphID in DNS;
	// alice resolves it and connects; carol serves from a different
	// EphID; shutoff against the published EphID is impossible.
	w := newWorld(t)
	recvOnly, err := w.carol.NewEphID(ephid.KindReceiveOnly, 3600)
	if err != nil {
		t.Fatal(err)
	}
	serving := w.ephID(t, w.carol) // carol's serving EphID
	_ = serving
	if err := w.carol.Publish("shop.example", &recvOnly.Cert); err != nil {
		t.Fatal(err)
	}

	// The shop lives in the root zone: alice's local resolver answers
	// it, and the answer verifies under the root key.
	resolved, err := w.alice.Lookup("shop.example")
	if err != nil {
		t.Fatal(err)
	}
	if resolved.EphID != recvOnly.Cert.EphID {
		t.Error("resolved wrong certificate")
	}
	if resolved.Kind != ephid.KindReceiveOnly {
		t.Error("kind not preserved through DNS")
	}

	// Lookup queried from EphIDs of its own; the connection takes a
	// fresh one (per-flow granularity).
	idA := w.ephID(t, w.alice)
	conn, err := w.alice.Connect(idA, resolved, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The connection migrated to a serving EphID.
	if conn.Peer().EphID == recvOnly.Cert.EphID {
		t.Error("server answered from the receive-only EphID")
	}
	if err := w.alice.Send(conn, []byte("order #1")); err != nil {
		t.Fatal(err)
	}
	msgs := w.carol.Stack.Inbox()
	if len(msgs) != 1 || string(msgs[0].Payload) != "order #1" {
		t.Fatalf("carol inbox: %+v", msgs)
	}
}

func TestResolveUnknownName(t *testing.T) {
	w := newWorld(t)
	if _, err := w.alice.Lookup("nope.example"); !errors.Is(err, dns.ErrNXDomain) {
		t.Errorf("unknown name: %v, want the verified denial %v", err, dns.ErrNXDomain)
	}
}

func TestDNSPoisoningDetected(t *testing.T) {
	w := newWorld(t)
	recvOnly, _ := w.carol.NewEphID(ephid.KindReceiveOnly, 3600)
	if err := w.carol.Publish("bank.example", &recvOnly.Cert); err != nil {
		t.Fatal(err)
	}
	// Mallory poisons the zone: the stored record now carries her
	// certificate, which the zone's signature does not cover.
	mallory := addHost(t, w.in, 300, "mallory")
	idM, err := mallory.NewEphID(ephid.KindData, 900)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := w.in.Zone.Lookup("bank.example")
	if err != nil {
		t.Fatal(err)
	}
	rec.Cert = idM.Cert

	if _, err := w.alice.Lookup("bank.example"); !errors.Is(err, dns.ErrBadRecord) {
		t.Errorf("poisoned record: %v, want %v — DNSSEC check missing", err, dns.ErrBadRecord)
	}
}

func TestShutoffEndToEnd(t *testing.T) {
	w := newWorld(t)
	idA := w.ephID(t, w.alice) // alice is the flooder
	idC := w.ephID(t, w.carol)

	conn, err := w.alice.Connect(idA, &idC.Cert, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.alice.Send(conn, []byte("FLOOD")); err != nil {
		t.Fatal(err)
	}
	msgs := w.carol.Stack.Inbox()
	if len(msgs) != 1 {
		t.Fatalf("carol inbox: %d", len(msgs))
	}

	ok, err := w.carol.Shutoff(msgs[0])
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("shutoff rejected")
	}
	// Alice's EphID is now revoked at her own AS: further sends drop
	// at egress.
	if err := w.alice.Send(conn, []byte("more flood")); err != nil {
		t.Fatal(err)
	}
	if got := w.carol.Stack.Inbox(); len(got) != 0 {
		t.Fatalf("flood still delivered after shutoff: %d", len(got))
	}
	if !w.in.AS(100).Router.Revoked().Contains(idA.Cert.EphID) {
		t.Error("EphID not on source AS revocation list")
	}
	// Other EphIDs of alice still work (per-flow fate sharing only).
	idA2 := w.ephID(t, w.alice)
	conn2, err := w.alice.Connect(idA2, &idC.Cert, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.alice.Send(conn2, []byte("legit")); err != nil {
		t.Fatal(err)
	}
	if got := w.carol.Stack.Inbox(); len(got) != 1 || string(got[0].Payload) != "legit" {
		t.Errorf("fresh EphID blocked: %+v", got)
	}
}

func TestStrikeEscalation(t *testing.T) {
	opts := DefaultOptions()
	opts.StrikeLimit = 2
	in, err := New(1, WithOptions(opts),
		WithAS(1, "attacker"), WithAS(2, "victim"), WithLink(1, 2, time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	attacker, victim := in.Host("attacker"), in.Host("victim")
	idV, err := victim.NewEphID(ephid.KindData, 900)
	if err != nil {
		t.Fatal(err)
	}

	for strike := 1; strike <= 2; strike++ {
		idX, err := attacker.NewEphID(ephid.KindData, 900)
		if err != nil {
			t.Fatalf("strike %d: %v", strike, err)
		}
		conn, err := attacker.Connect(idX, &idV.Cert, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := attacker.Send(conn, []byte("flood")); err != nil {
			t.Fatal(err)
		}
		msgs := victim.Stack.Inbox()
		if len(msgs) != 1 {
			t.Fatalf("strike %d: victim inbox %d", strike, len(msgs))
		}
		if ok, err := victim.Shutoff(msgs[0]); err != nil || !ok {
			t.Fatalf("strike %d: shutoff %v %v", strike, ok, err)
		}
	}
	// After the second strike the host's HID is revoked: even a new
	// EphID request fails (the MS refuses revoked HIDs).
	if _, err := attacker.NewEphID(ephid.KindData, 900); err == nil {
		t.Error("revoked host still got EphIDs")
	}
}

func TestICMPEchoAcrossASes(t *testing.T) {
	w := newWorld(t)
	w.ephID(t, w.alice) // alice needs a source EphID for ICMP
	idC := w.ephID(t, w.carol)
	ok, err := w.alice.Ping(Endpoint{AID: 300, EphID: idC.Cert.EphID}, 42)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("no echo reply")
	}
}

func TestSpoofedPacketsDropAtEgress(t *testing.T) {
	// Section VI-A EphID spoofing: mallory (same AS as alice) uses
	// alice's EphID but cannot MAC with alice's kHA.
	w := newWorld(t)
	idA := w.ephID(t, w.alice)
	mallory := addHost(t, w.in, 100, "mallory")
	w.ephID(t, mallory)
	idC := w.ephID(t, w.carol)

	// Mallory crafts a packet with alice's EphID as source. Her stack
	// MACs with her own key, which cannot match alice's.
	err := mallory.Stack.SendRaw(wire.ProtoSession, 0, idA.Cert.EphID,
		Endpoint{AID: 300, EphID: idC.Cert.EphID}, []byte("spoofed"))
	if err != nil {
		t.Fatal(err)
	}
	dropsBefore := w.in.AS(100).Router.Stats().Get(border.VerdictDropBadMAC)
	w.in.RunUntilIdle()
	if got := w.carol.Stack.Inbox(); len(got) != 0 {
		t.Error("spoofed packet delivered")
	}
	if w.in.AS(100).Router.Stats().Get(border.VerdictDropBadMAC) != dropsBefore+1 {
		t.Error("spoofed packet not dropped as bad MAC")
	}
}

func TestReplayedPacketsRejected(t *testing.T) {
	w := newWorld(t)
	idA := w.ephID(t, w.alice)
	idC := w.ephID(t, w.carol)
	conn, err := w.alice.Connect(idA, &idC.Cert, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.alice.Send(conn, []byte("pay $100")); err != nil {
		t.Fatal(err)
	}
	msgs := w.carol.Stack.Inbox()
	if len(msgs) != 1 {
		t.Fatal("no delivery")
	}
	// An on-path adversary replays the captured frame into AS 300.
	replays := w.carol.Stack.Stats().DropReplay
	w.in.AS(300).Router.HandleExternalFrame(append([]byte(nil), msgs[0].Raw...))
	w.in.RunUntilIdle()
	if got := w.carol.Stack.Inbox(); len(got) != 0 {
		t.Error("replayed packet delivered to application")
	}
	if w.carol.Stack.Stats().DropReplay != replays+1 {
		t.Error("replay not counted")
	}
}

func TestGranularityPolicies(t *testing.T) {
	w := newWorld(t)
	for i := 0; i < 3; i++ {
		w.ephID(t, w.alice)
	}
	s := w.alice.Stack

	// Per-host: always the same EphID.
	a, err := s.Acquire(host.PerHost, "")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := s.Acquire(host.PerHost, "")
	if a != b {
		t.Error("per-host policy returned different EphIDs")
	}

	// Per-flow: distinct EphIDs until exhaustion.
	f1, err := s.Acquire(host.PerFlow, "")
	if err != nil {
		t.Fatal(err)
	}
	f2, err := s.Acquire(host.PerFlow, "")
	if err != nil {
		t.Fatal(err)
	}
	if f1 == f2 {
		t.Error("per-flow policy reused an EphID")
	}

	// Per-application: stable per label, distinct across labels.
	w.ephID(t, w.alice)
	w.ephID(t, w.alice)
	p1, err := s.Acquire(host.PerApplication, "browser")
	if err != nil {
		t.Fatal(err)
	}
	p1again, _ := s.Acquire(host.PerApplication, "browser")
	if p1 != p1again {
		t.Error("per-app policy unstable")
	}
	p2, err := s.Acquire(host.PerApplication, "mail")
	if err != nil {
		t.Fatal(err)
	}
	if p1 == p2 {
		t.Error("per-app policy shared EphID across apps")
	}
}

func TestConnectToExpiredCertRejected(t *testing.T) {
	w := newWorld(t)
	idA := w.ephID(t, w.alice)
	idC := w.ephID(t, w.carol)
	c := idC.Cert
	c.ExpTime = uint32(w.in.Now() - 10)
	if _, err := w.alice.Connect(idA, &c, nil); err == nil {
		t.Error("expired certificate accepted for dialing")
	}
}

// TestUnknownASRejected covers the one way onto a running internet:
// AddHosts. Links, attackers and duplicate ASes are description errors,
// rejected by New (TestTopologyValidationRejects).
func TestUnknownASRejected(t *testing.T) {
	in, err := New(1, WithAS(7, "resident"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := in.AddHosts(42, "ghost"); !errors.Is(err, ErrUnknownAS) {
		t.Errorf("err = %v", err)
	}
	if _, err := in.AddHosts(7, "resident"); !errors.Is(err, ErrDuplicateHost) {
		t.Errorf("duplicate AddHosts err = %v", err)
	}
}

func TestRevocationGC(t *testing.T) {
	w := newWorld(t)
	idA := w.ephID(t, w.alice)
	idC := w.ephID(t, w.carol)
	conn, _ := w.alice.Connect(idA, &idC.Cert, nil)
	_ = w.alice.Send(conn, []byte("x"))
	msgs := w.carol.Stack.Inbox()
	if ok, _ := w.carol.Shutoff(msgs[0]); !ok {
		t.Fatal("shutoff failed")
	}
	if w.in.AS(100).Router.Revoked().Len() != 1 {
		t.Fatal("no revocation entry")
	}
	// Long after the EphID expires, GC clears the entry.
	w.in.RunFor(2 * time.Hour)
	if n := w.in.AS(100).Router.Revoked().GC(w.in.Sim.NowUnix()); n != 1 {
		t.Errorf("GC removed %d entries", n)
	}
}
