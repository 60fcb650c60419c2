package border

import (
	"bytes"
	"errors"
	"testing"

	"apna/internal/crypto"
	"apna/internal/ephid"
	"apna/internal/hostdb"
	"apna/internal/netsim"
	"apna/internal/wire"
)

// fixture builds a two-AS world: AS 100 (the router under test, with one
// attached host) and AS 200 reachable through an external link.
type fixture struct {
	sim    *netsim.Simulator
	router *Router
	sealer *ephid.Sealer
	secret *crypto.ASSecret
	db     *hostdb.DB
	now    int64

	hid    ephid.HID
	keys   crypto.HostASKeys
	srcID  ephid.EphID
	hostRx [][]byte // frames delivered to the local host
	extRx  [][]byte // frames sent toward AS 200
	// The far ends of the host link and of the link to AS 200.
	hostEnd, extEnd *netsim.Port
}

const (
	localAID  ephid.AID = 100
	remoteAID ephid.AID = 200
)

func newFixture(t *testing.T) *fixture {
	t.Helper()
	secret, err := crypto.ASSecretFromBytes(bytes.Repeat([]byte{3}, crypto.SymKeySize))
	if err != nil {
		t.Fatal(err)
	}
	sealer, err := ephid.NewSealer(secret)
	if err != nil {
		t.Fatal(err)
	}
	f := &fixture{
		sim: netsim.New(1), sealer: sealer, secret: secret,
		db: hostdb.New(), now: 1_000_000, hid: 7,
	}
	f.keys = crypto.DeriveHostASKeys([]byte("host7"))
	f.db.Put(hostdb.Entry{HID: f.hid, Keys: f.keys, RegisteredAt: f.now})
	f.srcID = sealer.Mint(ephid.Payload{HID: f.hid, ExpTime: uint32(f.now) + 600})

	f.router, err = New(localAID, sealer, f.db, secret, func() int64 { return f.now })
	if err != nil {
		t.Fatal(err)
	}

	// Internal link to the host.
	hostLink := f.sim.NewLink("host7", 0, 0)
	f.router.AttachHost(f.hid, hostLink.A())
	f.hostEnd = hostLink.B()
	hostLink.B().Attach(netsim.HandlerFunc(func(frame []byte, _ *netsim.Port) {
		f.hostRx = append(f.hostRx, frame)
	}))

	// External link to AS 200.
	extLink := f.sim.NewLink("as200", 0, 0)
	f.router.AttachNeighbor(remoteAID, extLink.A())
	f.extEnd = extLink.B()
	extLink.B().Attach(netsim.HandlerFunc(func(frame []byte, _ *netsim.Port) {
		f.extRx = append(f.extRx, frame)
	}))

	f.router.SetRoutes(netsim.Routes{remoteAID: remoteAID})
	return f
}

// hostFrame builds a MACed frame from the fixture host.
func (f *fixture) hostFrame(t *testing.T, dstAID ephid.AID, dstEphID ephid.EphID, flags uint8) []byte {
	t.Helper()
	p := wire.Packet{
		Header: wire.Header{
			NextProto: wire.ProtoSession, Flags: flags, HopLimit: wire.DefaultHopLimit,
			Nonce: 1, SrcAID: localAID, DstAID: dstAID,
			SrcEphID: f.srcID, DstEphID: dstEphID,
		},
		Payload: []byte("test payload"),
	}
	frame, err := p.Encode()
	if err != nil {
		t.Fatal(err)
	}
	pm, err := wire.NewPacketMAC(f.keys.MAC[:])
	if err != nil {
		t.Fatal(err)
	}
	pm.Apply(frame)
	return frame
}

// inject delivers a frame to the router as if sent by the local host.
func (f *fixture) inject(frame []byte) {
	f.router.internal.HandleFrame(frame, nil)
	f.sim.Run(100)
}

// injectExternal delivers a frame as if arriving from AS 200.
func (f *fixture) injectExternal(frame []byte) {
	f.router.external.HandleFrame(frame, nil)
	f.sim.Run(100)
}

func TestEgressHappyPath(t *testing.T) {
	f := newFixture(t)
	var remoteDst ephid.EphID
	remoteDst[0] = 0xEE
	f.inject(f.hostFrame(t, remoteAID, remoteDst, 0))
	if len(f.extRx) != 1 {
		t.Fatalf("external frames = %d", len(f.extRx))
	}
	if got := f.router.Stats().Egressed.Load(); got != 1 {
		t.Errorf("Egressed = %d", got)
	}
}

func TestEgressDropsForgedEphID(t *testing.T) {
	f := newFixture(t)
	frame := f.hostFrame(t, remoteAID, ephid.EphID{}, 0)
	frame[24] ^= 0xFF // corrupt source EphID in place
	f.inject(frame)
	if len(f.extRx) != 0 {
		t.Fatal("forged EphID escaped")
	}
	if f.router.Stats().Get(VerdictDropBadEphID) != 1 {
		t.Error("drop not counted")
	}
}

func TestEgressDropsExpiredEphID(t *testing.T) {
	f := newFixture(t)
	f.srcID = f.sealer.Mint(ephid.Payload{HID: f.hid, ExpTime: uint32(f.now) - 1})
	f.inject(f.hostFrame(t, remoteAID, ephid.EphID{}, 0))
	if len(f.extRx) != 0 || f.router.Stats().Get(VerdictDropExpired) != 1 {
		t.Error("expired EphID escaped")
	}
}

func TestEgressDropsRevokedEphID(t *testing.T) {
	f := newFixture(t)
	order, err := SignOrder(f.secret, f.srcID, uint32(f.now)+600)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.router.ApplyOrder(order); err != nil {
		t.Fatal(err)
	}
	f.inject(f.hostFrame(t, remoteAID, ephid.EphID{}, 0))
	if len(f.extRx) != 0 || f.router.Stats().Get(VerdictDropRevoked) != 1 {
		t.Error("revoked EphID escaped")
	}
}

func TestEgressDropsRevokedHost(t *testing.T) {
	f := newFixture(t)
	f.db.Revoke(f.hid)
	f.inject(f.hostFrame(t, remoteAID, ephid.EphID{}, 0))
	if len(f.extRx) != 0 || f.router.Stats().Get(VerdictDropUnknownHost) != 1 {
		t.Error("revoked host's packet escaped")
	}
}

func TestEgressDropsBadMAC(t *testing.T) {
	// The EphID-spoofing attack of Section VI-A: an adversary who
	// sniffed a valid EphID but lacks kHA cannot produce valid MACs.
	f := newFixture(t)
	frame := f.hostFrame(t, remoteAID, ephid.EphID{}, 0)
	frame[len(frame)-1] ^= 1 // corrupt payload -> MAC mismatch
	f.inject(frame)
	if len(f.extRx) != 0 || f.router.Stats().Get(VerdictDropBadMAC) != 1 {
		t.Error("spoofed packet escaped")
	}
}

func TestEgressDropsControlLeak(t *testing.T) {
	f := newFixture(t)
	f.inject(f.hostFrame(t, remoteAID, ephid.EphID{}, wire.FlagControl))
	if len(f.extRx) != 0 || f.router.Stats().Get(VerdictDropControlLeak) != 1 {
		t.Error("control packet left the AS")
	}
}

func TestEgressDropsNoRoute(t *testing.T) {
	f := newFixture(t)
	f.inject(f.hostFrame(t, 999, ephid.EphID{}, 0))
	if len(f.extRx) != 0 || f.router.Stats().Get(VerdictDropNoRoute) != 1 {
		t.Error("unroutable packet not dropped")
	}
}

func TestEgressDropsMalformed(t *testing.T) {
	f := newFixture(t)
	f.inject([]byte("way too short"))
	if f.router.Stats().Get(VerdictDropMalformed) != 1 {
		t.Error("malformed frame not counted")
	}
}

func TestIntraASDelivery(t *testing.T) {
	f := newFixture(t)
	dst := f.sealer.Mint(ephid.Payload{HID: f.hid, ExpTime: uint32(f.now) + 600})
	f.inject(f.hostFrame(t, localAID, dst, 0))
	if len(f.hostRx) != 1 {
		t.Fatalf("host frames = %d", len(f.hostRx))
	}
	if f.router.Stats().Delivered.Load() != 1 {
		t.Error("Delivered counter")
	}
}

func TestIngressDelivery(t *testing.T) {
	f := newFixture(t)
	dst := f.sealer.Mint(ephid.Payload{HID: f.hid, ExpTime: uint32(f.now) + 600})
	frame := f.hostFrame(t, localAID, dst, 0)
	f.injectExternal(frame)
	if len(f.hostRx) != 1 {
		t.Fatalf("host frames = %d", len(f.hostRx))
	}
}

func TestIngressDropsExpiredRevokedUnknown(t *testing.T) {
	f := newFixture(t)

	expired := f.sealer.Mint(ephid.Payload{HID: f.hid, ExpTime: uint32(f.now) - 1})
	f.injectExternal(f.hostFrame(t, localAID, expired, 0))
	if f.router.Stats().Get(VerdictDropExpired) != 1 {
		t.Error("expired dst not dropped")
	}

	revoked := f.sealer.Mint(ephid.Payload{HID: f.hid, ExpTime: uint32(f.now) + 600})
	order, _ := SignOrder(f.secret, revoked, uint32(f.now)+600)
	_ = f.router.ApplyOrder(order)
	f.injectExternal(f.hostFrame(t, localAID, revoked, 0))
	if f.router.Stats().Get(VerdictDropRevoked) != 1 {
		t.Error("revoked dst not dropped")
	}

	ghost := f.sealer.Mint(ephid.Payload{HID: 404, ExpTime: uint32(f.now) + 600})
	f.injectExternal(f.hostFrame(t, localAID, ghost, 0))
	if f.router.Stats().Get(VerdictDropUnknownHost) != 1 {
		t.Error("unknown host dst not dropped")
	}

	var garbage ephid.EphID
	garbage[5] = 9
	f.injectExternal(f.hostFrame(t, localAID, garbage, 0))
	if f.router.Stats().Get(VerdictDropBadEphID) != 1 {
		t.Error("garbage dst EphID not dropped")
	}
}

func TestTransitForwarding(t *testing.T) {
	f := newFixture(t)
	frame := f.hostFrame(t, remoteAID, ephid.EphID{}, 0)
	// Rewrite the source AS so it looks like transit traffic.
	frame[16] = 0
	frame[17] = 0
	frame[18] = 1
	frame[19] = 44 // SrcAID 300
	f.injectExternal(frame)
	if len(f.extRx) != 1 {
		t.Fatalf("transit frames = %d", len(f.extRx))
	}
	if f.router.Stats().Transited.Load() != 1 {
		t.Error("Transited counter")
	}
	var h wire.Header
	if err := h.DecodeFromBytes(f.extRx[0]); err != nil || h.HopLimit != wire.DefaultHopLimit-1 {
		t.Error("hop limit not decremented")
	}
}

func TestTransitHopLimitExhaustion(t *testing.T) {
	f := newFixture(t)
	frame := f.hostFrame(t, remoteAID, ephid.EphID{}, 0)
	frame[3] = 1 // hop limit 1: decrement -> 0 -> drop
	f.injectExternal(frame)
	if len(f.extRx) != 0 || f.router.Stats().Get(VerdictDropHopLimit) != 1 {
		t.Error("hop-limit exhaustion not handled")
	}
}

func TestICMPHookFires(t *testing.T) {
	f := newFixture(t)
	var reasons []Verdict
	f.router.SetICMPSender(func(v Verdict, frame []byte) { reasons = append(reasons, v) })
	f.inject(f.hostFrame(t, 999, ephid.EphID{}, 0))
	if len(reasons) != 1 || reasons[0] != VerdictDropNoRoute {
		t.Errorf("reasons = %v", reasons)
	}
}

func TestRevocationOrderTamperRejected(t *testing.T) {
	f := newFixture(t)
	order, _ := SignOrder(f.secret, f.srcID, 123)
	order.ExpTime++
	if err := f.router.ApplyOrder(order); !errors.Is(err, ErrBadOrder) {
		t.Errorf("tampered order: %v", err)
	}
	// Forged with a different AS secret.
	otherSecret, _ := crypto.ASSecretFromBytes(bytes.Repeat([]byte{9}, 16))
	forged, _ := SignOrder(otherSecret, f.srcID, 123)
	if err := f.router.ApplyOrder(forged); !errors.Is(err, ErrBadOrder) {
		t.Errorf("forged order: %v", err)
	}
	if f.router.Revoked().Len() != 0 {
		t.Error("bad order inserted into revocation list")
	}
}

func TestRevocationListGC(t *testing.T) {
	var l RevocationList
	var ids []ephid.EphID
	for i := 0; i < 10; i++ {
		var e ephid.EphID
		e[0] = byte(i)
		ids = append(ids, e)
		l.Insert(e, uint32(100+i))
	}
	if l.Len() != 10 {
		t.Fatalf("Len = %d", l.Len())
	}
	// GC at time 105: entries with exp < 105 (100..104) are removed.
	if n := l.GC(105); n != 5 {
		t.Errorf("GC removed %d", n)
	}
	if l.Contains(ids[0]) {
		t.Error("expired entry still present")
	}
	if !l.Contains(ids[9]) {
		t.Error("live entry removed")
	}
}

// egressOne and ingressOne take one frame through a pipeline the way a
// router's port handler takes a frame that is alone at its instant: as
// a ProcessBatch of one.
func egressOne(p *EgressPipeline, frame []byte) Verdict {
	var v [1]Verdict
	return p.ProcessBatch([][]byte{frame}, v[:0])[0]
}

func ingressOne(p *IngressPipeline, frame []byte) (Verdict, ephid.HID) {
	var res [1]IngressResult
	r := p.ProcessBatch([][]byte{frame}, res[:0])[0]
	return r.Verdict, r.HID
}

func TestEgressPipelineMatchesRouter(t *testing.T) {
	f := newFixture(t)
	pipe := f.router.NewEgressPipeline()
	good := f.hostFrame(t, remoteAID, ephid.EphID{}, 0)
	if v := egressOne(pipe, good); v != VerdictForward {
		t.Errorf("good frame: %v", v)
	}
	// Cached path: process again.
	if v := egressOne(pipe, good); v != VerdictForward {
		t.Errorf("cached good frame: %v", v)
	}
	bad := append([]byte(nil), good...)
	bad[len(bad)-1] ^= 1
	if v := egressOne(pipe, bad); v != VerdictDropBadMAC {
		t.Errorf("bad frame: %v", v)
	}
	// Revocation respected by the pipeline.
	order, _ := SignOrder(f.secret, f.srcID, uint32(f.now)+600)
	_ = f.router.ApplyOrder(order)
	if v := egressOne(pipe, good); v != VerdictDropRevoked {
		t.Errorf("revoked frame: %v", v)
	}
}

func TestIngressPipeline(t *testing.T) {
	f := newFixture(t)
	pipe := f.router.NewIngressPipeline()
	dst := f.sealer.Mint(ephid.Payload{HID: f.hid, ExpTime: uint32(f.now) + 600})
	v, hid := ingressOne(pipe, f.hostFrame(t, localAID, dst, 0))
	if v != VerdictForward || hid != f.hid {
		t.Errorf("ingress: %v, %v", v, hid)
	}
}

func TestVerdictStrings(t *testing.T) {
	for v := Verdict(0); v < verdictCount; v++ {
		if v.String() == "drop-unknown" {
			t.Errorf("verdict %d has no name", v)
		}
	}
	if Verdict(99).String() != "drop-unknown" {
		t.Error("unknown verdict name")
	}
}
