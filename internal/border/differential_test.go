package border_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"apna/internal/border"
	"apna/internal/crypto"
	"apna/internal/ephid"
	"apna/internal/hostdb"
	"apna/internal/netsim"
	"apna/internal/pktgen"
	"apna/internal/wire"
)

// The whole-border differential test: one frame stream goes through a
// slow reference that shares no table, cache or batch with the routers,
// and through every way the routers can be driven — the single-packet
// slow path and the pipelines' ProcessBatch at several batch sizes, one
// frame the smallest, all with caches that stay warm across the stream, and the
// routers' own port handlers — while revocations, remote digests, host
// revocations, deletions, re-keys, garbage collections and clock steps
// land between its parts. Every frame must get the reference's verdict,
// and a forwarded frame the reference's destination host, from every
// path. The port handlers also get frames only they can tell apart
// (intra-AS, control, transit), checked against the reference's account
// of the dispatch around Figure 4 — frame by frame, and then in runs of
// the batch sizes through HandleFrames, the way netsim delivers the
// frames of one instant: all that can be seen of a run from outside (the
// counters, the drop hook's calls in order, what each port sent in
// order) must be what the reference and the single frames give.

// diffSizes are the frame sizes mixed into the stream. The MAC input is
// the frame less the 8-byte MAC field: 64 is the header alone (a partial
// last block), 72 and 88 end exactly on a block boundary (K1), 73 is one
// byte past one (K2), 65, 79 and 80 have a payload that fits, nearly
// fills and exactly fills the staged head, and 1518 is the bulk case.
var diffSizes = []int{64, 65, 72, 73, 79, 80, 88, 128, 256, 1000, 1518}

// diffBatchSizes straddle the pipelines' 64-frame chunk.
var diffBatchSizes = []int{1, 7, 63, 64, 65, 200}

type remoteEntry struct {
	e      ephid.EphID
	origin ephid.AID
}

// refAS is one AS of the reference: plain maps beside the router under
// test. Every mutation goes to both.
type refAS struct {
	f       *pktgen.Fixture
	revoked map[ephid.EphID]uint32
	remote  map[remoteEntry]uint32
	hosts   map[ephid.HID]hostdb.Entry
}

func newRefAS(f *pktgen.Fixture) *refAS {
	a := &refAS{f: f, revoked: map[ephid.EphID]uint32{}, remote: map[remoteEntry]uint32{}, hosts: map[ephid.HID]hostdb.Entry{}}
	for hid := ephid.HID(1); int(hid) <= f.DB.Len(); hid++ { // pktgen numbers hosts from 1
		e, err := f.DB.Get(hid)
		if err != nil {
			panic(err)
		}
		a.hosts[hid] = e
	}
	return a
}

func (a *refAS) revoke(e ephid.EphID, exp uint32) {
	a.revoked[e] = exp
	a.f.Router.Revoked().Insert(e, exp)
}

func (a *refAS) applyRemote(e ephid.EphID, origin ephid.AID, exp uint32) {
	a.remote[remoteEntry{e, origin}] = exp
	a.f.Router.ApplyRemote(e, origin, exp)
}

func (a *refAS) revokeHost(hid ephid.HID) {
	if h, ok := a.hosts[hid]; ok {
		h.Status = hostdb.StatusRevoked
		if h.RevokedAt == 0 {
			h.RevokedAt = a.f.Now
		}
		a.hosts[hid] = h
	}
	a.f.DB.RevokeAt(hid, a.f.Now)
}

// deleteHost models a host leaving. hostdb drops an entry only in GC,
// so the entry is replaced by one revoked at Unix time 1 and collected
// at once; no other entry is revoked that early.
func (a *refAS) deleteHost(hid ephid.HID) {
	delete(a.hosts, hid)
	a.f.DB.Put(hostdb.Entry{HID: hid, Status: hostdb.StatusRevoked, RevokedAt: 1})
	if n := a.f.DB.GC(a.f.Now, a.f.Now-1); n != 1 {
		panic(fmt.Sprintf("hostdb GC reaped %d entries for one leaving host", n))
	}
}

func (a *refAS) putHost(e hostdb.Entry) {
	a.hosts[e.HID] = e
	a.f.DB.Put(e)
}

// gc runs every collector the AS has and checks each reaps what the
// reference reaps.
func (a *refAS) gc(t *testing.T, retention int64) {
	t.Helper()
	now := a.f.Now
	var nRev, nRem, nHost int
	for e, exp := range a.revoked {
		if int64(exp) < now {
			delete(a.revoked, e)
			nRev++
		}
	}
	for k, exp := range a.remote {
		if int64(exp) < now {
			delete(a.remote, k)
			nRem++
		}
	}
	for hid, h := range a.hosts {
		if h.Status == hostdb.StatusRevoked && h.RevokedAt > 0 && h.RevokedAt+retention <= now {
			delete(a.hosts, hid)
			nHost++
		}
	}
	if got := a.f.Router.Revoked().GC(now); got != nRev {
		t.Fatalf("%v: revocation GC reaped %d, reference %d", a.f.AID, got, nRev)
	}
	if got := a.f.Router.RemoteRevoked().GC(now); got != nRem {
		t.Fatalf("%v: remote revocation GC reaped %d, reference %d", a.f.AID, got, nRem)
	}
	if got := a.f.DB.GC(now, retention); got != nHost {
		t.Fatalf("%v: hostdb GC reaped %d, reference %d", a.f.AID, got, nHost)
	}
	if got := a.f.Router.Revoked().Len(); got != len(a.revoked) {
		t.Fatalf("%v: revocation list holds %d, reference %d", a.f.AID, got, len(a.revoked))
	}
	if got := a.f.Router.RemoteRevoked().Len(); got != len(a.remote) {
		t.Fatalf("%v: remote revocation list holds %d, reference %d", a.f.AID, got, len(a.remote))
	}
	if got := a.f.DB.Len(); got != len(a.hosts) {
		t.Fatalf("%v: hostdb holds %d, reference %d", a.f.AID, got, len(a.hosts))
	}
}

// egress is the outgoing-packet check of Figure 4 in the order of paper
// Section V-B: one decryption, the revocation and host_info lookups, one
// MAC verification under a key schedule built for this packet alone.
func (a *refAS) egress(frame []byte) border.Verdict {
	e := wire.FrameSrcEphID(frame)
	p, err := a.f.Sealer.Open(e)
	if err != nil {
		return border.VerdictDropBadEphID
	}
	if p.Expired(a.f.Now) {
		return border.VerdictDropExpired
	}
	if _, ok := a.revoked[e]; ok {
		return border.VerdictDropRevoked
	}
	h, ok := a.hosts[p.HID]
	if !ok || h.Status == hostdb.StatusRevoked {
		return border.VerdictDropUnknownHost
	}
	pm, err := wire.NewPacketMAC(h.Keys.MAC[:])
	if err != nil || !pm.Verify(frame) {
		return border.VerdictDropBadMAC
	}
	return border.VerdictForward
}

// ingress is the incoming-packet check of Figure 4.
func (a *refAS) ingress(frame []byte) (border.Verdict, ephid.HID) {
	e := wire.FrameDstEphID(frame)
	p, err := a.f.Sealer.Open(e)
	if err != nil {
		return border.VerdictDropBadEphID, 0
	}
	if p.Expired(a.f.Now) {
		return border.VerdictDropExpired, 0
	}
	if _, ok := a.revoked[e]; ok {
		return border.VerdictDropRevoked, 0
	}
	if _, ok := a.remote[remoteEntry{wire.FrameSrcEphID(frame), wire.FrameSrcAID(frame)}]; ok {
		return border.VerdictDropRevokedRemote, 0
	}
	if h, ok := a.hosts[p.HID]; !ok || h.Status == hostdb.StatusRevoked {
		return border.VerdictDropUnknownHost, 0
	}
	return border.VerdictForward, p.HID
}

// outcome is what the border as a whole does with one frame.
type outcome struct {
	v   border.Verdict
	hid ephid.HID // the destination host, when v is VerdictForward
}

func (o outcome) String() string { return fmt.Sprintf("%v (host %v)", o.v, o.hid) }

// refVerdict is the reference for the whole border: egress at the source
// AS, the route lookup, ingress at the destination AS.
func refVerdict(src, dst *refAS, frame []byte) outcome {
	if !wire.ValidFrame(frame) {
		return outcome{v: border.VerdictDropMalformed}
	}
	if v := src.egress(frame); v != border.VerdictForward {
		return outcome{v: v}
	}
	if _, ok := src.f.Router.LookupRoute(wire.FrameDstAID(frame)); !ok {
		return outcome{v: border.VerdictDropNoRoute}
	}
	v, hid := dst.ingress(frame)
	return outcome{v, hid}
}

// borderPath is one way of driving the two routers under test. Its
// pipelines last as long as it does, so their caches are warm.
type borderPath struct {
	name string
	run  func(frames [][]byte) []outcome
}

func routed(src *pktgen.Fixture, frame []byte) bool {
	_, ok := src.Router.LookupRoute(wire.FrameDstAID(frame))
	return ok
}

// slowPath is the routers' uncached single-packet checks: the egress
// check, the route lookup and the ingress check, frame by frame, behind
// the frame check the routers' port handlers do first.
func slowPath(src, dst *pktgen.Fixture) borderPath {
	one := func(frame []byte) outcome {
		if !wire.ValidFrame(frame) {
			return outcome{v: border.VerdictDropMalformed}
		}
		if v, _ := src.Router.EgressVerify(frame); v != border.VerdictForward {
			return outcome{v: v}
		}
		if !routed(src, frame) {
			return outcome{v: border.VerdictDropNoRoute}
		}
		v, hid := dst.Router.IngressVerify(frame)
		return outcome{v, hid}
	}
	return borderPath{"EgressVerify/IngressVerify", func(frames [][]byte) []outcome {
		out := make([]outcome, len(frames))
		for i, frame := range frames {
			out[i] = one(frame)
		}
		return out
	}}
}

// batchPath drives the pipelines the way internal/engine does: a batch
// through egress, the survivors through the route lookup, theirs through
// ingress.
func batchPath(src, dst *pktgen.Fixture, size int) borderPath {
	eg, in := src.Router.NewEgressPipeline(), dst.Router.NewIngressPipeline()
	var verdicts []border.Verdict
	var results []border.IngressResult
	return borderPath{fmt.Sprintf("ProcessBatch(%d)", size), func(frames [][]byte) []outcome {
		out := make([]outcome, len(frames))
		for at := 0; at < len(frames); at += size {
			batch := frames[at:min(at+size, len(frames))]
			verdicts = eg.ProcessBatch(batch, verdicts[:0])
			var passed [][]byte
			var index []int
			for i, v := range verdicts {
				out[at+i].v = v
				if v != border.VerdictForward {
					continue
				}
				if !routed(src, batch[i]) {
					out[at+i].v = border.VerdictDropNoRoute
					continue
				}
				passed, index = append(passed, batch[i]), append(index, at+i)
			}
			results = in.ProcessBatch(passed, results[:0])
			for j, res := range results {
				out[index[j]] = outcome{v: res.Verdict}
				if res.Verdict == border.VerdictForward {
					out[index[j]].hid = res.HID
				}
			}
		}
		return out
	}}
}

// farAID lies beyond the destination AS, which has a link toward it;
// strandedAID the source AS routes the same way, and the destination AS
// not at all. No stream frame is addressed to either.
const (
	farAID      ephid.AID = 300
	strandedAID ephid.AID = 301
)

// handled is what the port handlers do with one frame: the verdict of
// the router that settled it and, for a forwarded frame, where it left
// the two routers — at host hid of AS as, or with hid 0 on the link
// toward AS as.
type handled struct {
	v   border.Verdict
	as  ephid.AID
	hid ephid.HID
}

func (h handled) String() string { return fmt.Sprintf("%v (%v, host %v)", h.v, h.as, h.hid) }

// deliver is deliverLocal: the ingress check, then the host's port.
// Every host the streams name has one.
func (a *refAS) deliver(frame []byte) handled {
	v, hid := a.ingress(frame)
	if v != border.VerdictForward {
		return handled{v: v}
	}
	return handled{v, a.f.AID, hid}
}

// hopLimit reads a valid frame's hop limit through the header decoder.
func hopLimit(frame []byte) uint8 {
	var h wire.Header
	if err := h.DecodeFromBytes(frame); err != nil {
		panic(err)
	}
	return h.HopLimit
}

// refHandled is the reference for the port handlers: the internal side
// of the source AS and, for what leaves it, the external side of the
// destination AS, under the routes newPortSide installs. at is the
// router that settled the frame: 0 the source AS's, 1 the destination
// AS's, which the frame reached by leaving the source AS.
func refHandled(src, dst *refAS, frame []byte) (h handled, at int) {
	if !wire.ValidFrame(frame) {
		return handled{v: border.VerdictDropMalformed}, 0
	}
	if v := src.egress(frame); v != border.VerdictForward {
		return handled{v: v}, 0
	}
	to := wire.FrameDstAID(frame)
	switch {
	case to == src.f.AID:
		return src.deliver(frame), 0
	case wire.FrameFlags(frame)&wire.FlagControl != 0:
		return handled{v: border.VerdictDropControlLeak}, 0
	case to == dst.f.AID:
		return dst.deliver(frame), 1
	case to != farAID && to != strandedAID:
		return handled{v: border.VerdictDropNoRoute}, 0
	case hopLimit(frame) <= 1: // transit through dst uses the last hop up
		return handled{v: border.VerdictDropHopLimit}, 1
	case to == strandedAID:
		return handled{v: border.VerdictDropNoRoute}, 1
	}
	return handled{v: border.VerdictForward, as: farAID}, 1
}

// Counters past the verdicts' own, in the order counters reads them.
const (
	statDelivered = border.VerdictCount + iota
	statEgressed
	statTransited
	statCount
)

// arrival is one frame reaching a sink: where, the counter that goes
// with forwarding a frame there, and the frame.
type arrival struct {
	handled
	stat  int
	frame []byte
}

// tally is all that shows, outside the port handlers, of what they did
// with a stretch of frames: how far each router's counters moved, the
// verdicts each router's drop hook was called with, in order, and the
// frames that came out of each port, in order.
type tally struct {
	stats [2][statCount]uint64
	drops [2][]border.Verdict
	sinks map[handled][][]byte
}

// note adds what the reference says of one frame: h, settled at router
// at (see refHandled).
func (ta *tally) note(h handled, at int, frame []byte) {
	if at == 1 {
		ta.stats[0][statEgressed]++
	}
	switch {
	case h.v != border.VerdictForward:
		ta.stats[at][h.v]++
		if h.v != border.VerdictDropMalformed { // no ICMP error about what is not a frame
			ta.drops[at] = append(ta.drops[at], h.v)
		}
		return
	case h.as == farAID:
		ta.stats[at][statTransited]++
		frame = append([]byte(nil), frame...)
		wire.FrameDecrementHopLimit(frame)
	default:
		ta.stats[at][statDelivered]++
	}
	ta.sinks[h] = append(ta.sinks[h], frame)
}

// differs describes the first difference between two tallies, or
// returns "".
func (ta *tally) differs(want *tally) string {
	for at := range ta.stats {
		if ta.stats[at] != want.stats[at] {
			return fmt.Sprintf("router %d moved its counters by %v, want %v", at, ta.stats[at], want.stats[at])
		}
		if !slices.Equal(ta.drops[at], want.drops[at]) {
			return fmt.Sprintf("router %d called the drop hook with %v, want %v", at, ta.drops[at], want.drops[at])
		}
	}
	for h, frames := range want.sinks {
		got := ta.sinks[h]
		if len(got) != len(frames) {
			return fmt.Sprintf("%d frames came out at %v, want %d", len(got), h, len(frames))
		}
		for i := range frames {
			if !bytes.Equal(got[i], frames[i]) {
				return fmt.Sprintf("frame %d out at %v is not the %dth frame bound there", i, h, i)
			}
		}
	}
	if len(ta.sinks) > len(want.sinks) {
		return fmt.Sprintf("frames came out of %d ports, want %d", len(ta.sinks), len(want.sinks))
	}
	return ""
}

// portSide drives the two routers through their port handlers. Every
// port ends in a sink that notes what came out of it; a frame's verdict
// is read off the router's counters.
type portSide struct {
	sim      *netsim.Simulator
	src, dst *pktgen.Fixture
	out      []arrival // since the last injection
	seen     *tally    // what measure is watching
	// The source AS's internal side and the destination AS's external
	// side, as netsim sees them.
	internal, external netsim.BatchHandler
}

func newPortSide(seed int64, src, dst *pktgen.Fixture, hosts int) *portSide {
	s := &portSide{sim: netsim.New(seed), src: src, dst: dst, seen: &tally{sinks: map[handled][][]byte{}}}
	sink := func(as ephid.AID, hid ephid.HID, stat int) *netsim.Port {
		link := s.sim.NewLink(fmt.Sprintf("sink %v/%v", as, hid), 0, 0)
		link.B().Attach(netsim.HandlerFunc(func(frame []byte, _ *netsim.Port) {
			h := handled{border.VerdictForward, as, hid}
			s.out = append(s.out, arrival{h, stat, frame})
			if stat != statEgressed { // the frame leaves the two routers here
				s.seen.sinks[h] = append(s.seen.sinks[h], frame)
			}
		}))
		return link.A()
	}
	src.Router.AttachNeighbor(dst.AID, sink(dst.AID, 0, statEgressed))
	far := sink(farAID, 0, statTransited)
	dst.Router.AttachNeighbor(farAID, far)
	var host *netsim.Port
	for hid := ephid.HID(1); int(hid) <= hosts; hid++ {
		host = sink(src.AID, hid, statDelivered)
		src.Router.AttachHost(hid, host)
		dst.Router.AttachHost(hid, sink(dst.AID, hid, statDelivered))
	}
	src.Router.SetRoutes(netsim.Routes{dst.AID: dst.AID, farAID: dst.AID, strandedAID: dst.AID})
	dst.Router.SetRoutes(netsim.Routes{src.AID: src.AID, farAID: farAID})
	for at, f := range []*pktgen.Fixture{src, dst} {
		f.Router.SetICMPSender(func(v border.Verdict, _ []byte) { s.seen.drops[at] = append(s.seen.drops[at], v) })
	}
	s.internal, s.external = host.Owner().(netsim.BatchHandler), far.Owner().(netsim.BatchHandler)
	return s
}

// measure returns the tally of what the port handlers do while fn runs.
func (s *portSide) measure(fn func()) *tally {
	before := [2][statCount]uint64{counters(s.src.Router), counters(s.dst.Router)}
	s.seen = &tally{sinks: map[handled][][]byte{}}
	fn()
	for at, after := range [2][statCount]uint64{counters(s.src.Router), counters(s.dst.Router)} {
		for i, n := range after {
			s.seen.stats[at][i] = n - before[at][i]
		}
	}
	return s.seen
}

func counters(r *border.Router) (c [statCount]uint64) {
	st := r.Stats()
	for v := range border.VerdictCount {
		c[v] = st.Get(border.Verdict(v))
	}
	c[statDelivered], c[statEgressed], c[statTransited] = st.Delivered.Load(), st.Egressed.Load(), st.Transited.Load()
	return c
}

// step injects one frame at one router and returns what the router did
// with it. Exactly one counter may move, by one: a drop verdict's, and
// then no sink sees the frame, or the counter that goes with the one
// sink that does.
func (s *portSide) step(t *testing.T, f *pktgen.Fixture, side netsim.BatchHandler, frame []byte) arrival {
	t.Helper()
	r := f.Router
	before := counters(r)
	s.out = s.out[:0]
	side.HandleFrame(append([]byte(nil), frame...), nil) // the handler owns what it gets
	s.sim.Run(4)
	moved := -1
	for i, n := range counters(r) {
		if n == before[i] {
			continue
		}
		if moved >= 0 || n != before[i]+1 {
			t.Fatalf("%v: one frame moved the counters from %v to %v", f.AID, before, counters(r))
		}
		moved = i
	}
	if len(s.out) == 0 && moved > 0 && moved < border.VerdictCount {
		return arrival{handled: handled{v: border.Verdict(moved)}}
	}
	if len(s.out) != 1 || moved != s.out[0].stat {
		t.Fatalf("%v: counter %d moved and %d sinks saw the frame", f.AID, moved, len(s.out))
	}
	return s.out[0]
}

// runs takes the frames through the same two sides size at a time, as
// netsim hands over the frames of one instant: a run into the source
// AS's internal side, and what leaves toward the destination AS as a run
// into that AS's external side.
func (s *portSide) runs(frames [][]byte, size int) {
	for at := 0; at < len(frames); at += size {
		run := make([][]byte, 0, size)
		for _, frame := range frames[at:min(at+size, len(frames))] {
			run = append(run, append([]byte(nil), frame...)) // the handler owns what it gets
		}
		s.out = s.out[:0]
		s.internal.HandleFrames(run, nil)
		s.sim.Run(1 << 20)
		run = run[:0]
		for _, a := range s.out {
			if a.stat == statEgressed {
				run = append(run, a.frame)
			}
		}
		s.external.HandleFrames(run, nil)
		s.sim.Run(1 << 20)
	}
}

// run takes each frame through the source AS's internal ports and, if
// it leaves toward the destination AS, through that AS's external ones.
// A frame comes out as it went in, transit's hop apart.
func (s *portSide) run(t *testing.T, frames [][]byte) []handled {
	t.Helper()
	out := make([]handled, len(frames))
	for i, frame := range frames {
		want := append([]byte(nil), frame...)
		a := s.step(t, s.src, s.internal, frame)
		if a.stat == statEgressed {
			a = s.step(t, s.dst, s.external, a.frame)
			if a.stat == statTransited {
				wire.FrameDecrementHopLimit(want)
			}
		}
		if a.v == border.VerdictForward && !bytes.Equal(a.frame, want) {
			t.Fatalf("frame %d: changed on the way to %v", i, a.handled)
		}
		out[i] = a.handled
	}
	return out
}

// futureKeys is the key pair host hid gets if the stream re-keys it.
func futureKeys(hid ephid.HID) crypto.HostASKeys {
	return crypto.DeriveHostASKeys([]byte{byte(hid), byte(hid >> 8), 'r', 'e', 'k', 'e', 'y'})
}

// diffWorld is one run's routers, reference and stream.
type diffWorld struct {
	t        *testing.T
	rng      *rand.Rand
	hosts    int
	src, dst *refAS
	stream   [][]byte
	// dispatch holds the frames only the port handlers tell apart from
	// the stream's: intra-AS, control and transit traffic.
	dispatch [][]byte
	ports    *portSide
	// srcIDs and dstIDs are EphIDs of well-formed stream and dispatch
	// frames that the source and the destination AS minted, the pool
	// mid-stream revocations draw from.
	srcIDs, dstIDs []ephid.EphID
	nonce          uint64
}

// mint builds a frame of the given size from src host hid to dst host
// dstHID, MACed under key, both EphIDs living for life seconds.
func (w *diffWorld) mint(hid, dstHID ephid.HID, key [crypto.SymKeySize]byte, size int, life uint32, dstAID ephid.AID) []byte {
	w.t.Helper()
	src, dst := w.src.f, w.dst.f
	return w.frame(wire.Header{
		NextProto: wire.ProtoSession, HopLimit: wire.DefaultHopLimit,
		SrcAID: src.AID, DstAID: dstAID,
		SrcEphID: src.Sealer.Mint(ephid.Payload{HID: hid, ExpTime: uint32(src.Now) + life}),
		DstEphID: dst.Sealer.Mint(ephid.Payload{HID: dstHID, ExpTime: uint32(dst.Now) + life}),
	}, key, size)
}

// frame builds a frame of the given size under header h, with the next
// nonce and a payload of its own, MACed under key.
func (w *diffWorld) frame(h wire.Header, key [crypto.SymKeySize]byte, size int) []byte {
	w.t.Helper()
	w.nonce++
	h.Nonce = w.nonce
	p := wire.Packet{Header: h, Payload: make([]byte, size-wire.HeaderSize)}
	for i := range p.Payload {
		p.Payload[i] = byte(w.nonce) + byte(i)
	}
	frame, err := p.Encode()
	if err != nil {
		w.t.Fatal(err)
	}
	pm, err := wire.NewPacketMAC(key[:])
	if err != nil {
		w.t.Fatal(err)
	}
	pm.Apply(frame)
	return frame
}

func (w *diffWorld) host() ephid.HID { return ephid.HID(1 + w.rng.Intn(w.hosts)) }

// newDiffWorld builds the world for seed. The stream and the dispatch
// frames come shuffled or, with sorted, stably sorted by length: then a
// batch holds long runs of one frame size, whose packet MACs go through
// crypto.MACBatch in lock-step groups, and a flipped bit, a re-keyed
// sender or an expired EphID sits in one lane of such a group.
func newDiffWorld(t *testing.T, seed int64, hosts, rounds int, sorted bool) *diffWorld {
	t.Helper()
	pw, err := pktgen.NewWorld(pktgen.WorldConfig{
		ASes: 2, HostsPerAS: hosts, FrameSize: 128, FramesPerLane: 20 * hosts, BadFrac: 0.5, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	lane := pw.Lanes[0]
	w := &diffWorld{
		t: t, rng: rand.New(rand.NewSource(seed)), hosts: hosts,
		src: newRefAS(lane.Src), dst: newRefAS(lane.Dst), nonce: 1 << 20,
	}
	// The reference learns what pktgen revoked while minting the lanes
	// by asking about the lanes' own EphIDs, the only ones it can
	// concern; the counts must be pktgen's. (The stream is lane 0; the
	// opposite lane's entries are in the same lists.)
	exp := uint32(pw.Now) + 3600
	for i, l := range pw.Lanes {
		from, to := []*refAS{w.src, w.dst}[i], []*refAS{w.dst, w.src}[i]
		for _, frame := range l.Frames {
			e := wire.FrameSrcEphID(frame)
			if l.Src.Router.Revoked().Contains(e) {
				from.revoked[e] = exp
			}
			if l.Dst.Router.RemoteRevoked().Matches(e, l.Src.AID) {
				to.remote[remoteEntry{e, l.Src.AID}] = exp
			}
		}
		if got, want := len(from.revoked), l.Bad[pktgen.BadRevokedSrc]; got != want {
			t.Fatalf("%v revoked %d lane EphIDs, pktgen installed %d", l.Src.AID, got, want)
		}
		if got, want := len(to.remote), l.Bad[pktgen.BadRemoteRevokedSrc]; got != want {
			t.Fatalf("%v holds %d remote revocations, pktgen installed %d", l.Dst.AID, got, want)
		}
	}

	w.stream = append(w.stream, lane.Frames...)
	srcAID, dstAID := lane.Src.AID, lane.Dst.AID
	for round := 0; round < rounds; round++ {
		for _, size := range diffSizes {
			hid := w.host()
			frame := w.mint(hid, w.host(), w.src.hosts[hid].Keys.MAC, size, 3600, dstAID)
			switch w.rng.Intn(5) {
			case 0: // one bit flipped anywhere: header, EphIDs, MAC field or payload
				frame[w.rng.Intn(len(frame))] ^= 1 << w.rng.Intn(8)
			case 1: // a transit hop decrement must not matter
				wire.FrameDecrementHopLimit(frame)
			}
			w.stream = append(w.stream, frame)
		}
		// A frame under the key its sender holds only after a re-key, one
		// whose EphIDs die at the clock step, one toward an AS no route
		// leads to, one each with an all-zero source and destination EphID
		// (what a never-filled cache entry holds), and two that are not
		// frames at all.
		hid := w.host()
		fk := futureKeys(hid)
		h2 := w.host()
		zeroSrc := w.mint(h2, w.host(), w.src.hosts[h2].Keys.MAC, 128, 3600, dstAID)
		clear(zeroSrc[24:40])
		zeroDst := w.mint(h2, w.host(), w.src.hosts[h2].Keys.MAC, 128, 3600, dstAID)
		clear(zeroDst[40:56])
		key := w.src.hosts[h2].Keys.MAC
		if pm, err := wire.NewPacketMAC(key[:]); err == nil {
			pm.Apply(zeroDst)
		}
		w.stream = append(w.stream, zeroSrc, zeroDst,
			w.mint(hid, w.host(), fk.MAC, diffSizes[round%len(diffSizes)], 3600, dstAID),
			w.mint(h2, w.host(), w.src.hosts[h2].Keys.MAC, 128, 30, dstAID),
			w.mint(h2, w.host(), w.src.hosts[h2].Keys.MAC, 100, 3600, dstAID+srcAID),
			make([]byte, w.rng.Intn(wire.HeaderSize)),
			append([]byte(nil), lane.Frames[w.rng.Intn(len(lane.Frames))][:wire.HeaderSize-1+w.rng.Intn(2)]...))
	}
	w.rng.Shuffle(len(w.stream), func(i, j int) { w.stream[i], w.stream[j] = w.stream[j], w.stream[i] })
	for _, frame := range w.stream {
		if wire.ValidFrame(frame) {
			w.srcIDs = append(w.srcIDs, wire.FrameSrcEphID(frame))
			w.dstIDs = append(w.dstIDs, wire.FrameDstEphID(frame))
		}
	}

	w.ports = newPortSide(seed, lane.Src, lane.Dst, hosts)
	for round := 0; round < rounds; round++ {
		w.dispatchRound()
	}
	w.rng.Shuffle(len(w.dispatch), func(i, j int) { w.dispatch[i], w.dispatch[j] = w.dispatch[j], w.dispatch[i] })
	if sorted {
		byLen := func(a, b []byte) int { return len(a) - len(b) }
		slices.SortStableFunc(w.stream, byLen)
		slices.SortStableFunc(w.dispatch, byLen)
	}
	return w
}

// dispatchRound adds a round of frames that take each branch of the
// port handlers the stream's frames pass by: to a host of the source AS
// itself (under the sender's key and under the one it holds only after a
// re-key, so that skipping the egress check on the way shows), control
// traffic staying inside the AS and trying to leave it, and transit
// through the destination AS with hops to spare, on its last hop and
// toward an AS it has no route to.
func (w *diffWorld) dispatchRound() {
	src, dst := w.src.f, w.dst.f
	hid := w.host()
	key := w.src.hosts[hid].Keys.MAC
	add := func(to ephid.AID, at *pktgen.Fixture, flags, hops uint8, key [crypto.SymKeySize]byte) {
		h := wire.Header{
			NextProto: wire.ProtoSession, Flags: flags, HopLimit: hops,
			SrcAID: src.AID, DstAID: to,
			SrcEphID: src.Sealer.Mint(ephid.Payload{HID: hid, ExpTime: uint32(src.Now) + 3600}),
			DstEphID: at.Sealer.Mint(ephid.Payload{HID: w.host(), ExpTime: uint32(at.Now) + 3600}),
		}
		w.dispatch = append(w.dispatch, w.frame(h, key, diffSizes[w.rng.Intn(len(diffSizes))]))
		w.srcIDs = append(w.srcIDs, h.SrcEphID)
		if at == src {
			w.srcIDs = append(w.srcIDs, h.DstEphID)
		} else {
			w.dstIDs = append(w.dstIDs, h.DstEphID)
		}
	}
	add(src.AID, src, 0, wire.DefaultHopLimit, key)
	add(src.AID, src, 0, wire.DefaultHopLimit, futureKeys(hid).MAC)
	add(src.AID, src, wire.FlagControl, wire.DefaultHopLimit, key)
	add(dst.AID, dst, wire.FlagControl, wire.DefaultHopLimit, key)
	add(farAID, dst, 0, wire.DefaultHopLimit, key)
	add(farAID, dst, 0, 1, key)
	add(strandedAID, dst, 0, wire.DefaultHopLimit, key)
}

// diffOps is how many kinds of mid-stream event apply knows.
const diffOps = 10

// apply lands one mid-stream event on the routers and the reference.
func (w *diffWorld) apply(op byte) {
	src, dst := w.src, w.dst
	now := uint32(src.f.Now)
	pick := func(ids []ephid.EphID) ephid.EphID { return ids[w.rng.Intn(len(ids))] }
	switch op % diffOps {
	case 0: // a sender's EphID is shut off at its own AS
		src.revoke(pick(w.srcIDs), now+3600)
	case 1: // ... by an entry that expires long before the EphID does
		src.revoke(pick(w.srcIDs), now+45)
	case 2: // a receiver's EphID is revoked at the destination AS
		dst.revoke(pick(w.dstIDs), now+3600)
	case 3: // the source AS's digest reaches the destination AS
		dst.applyRemote(pick(w.srcIDs), src.f.AID, now+uint32(45+w.rng.Intn(2)*3600))
	case 4: // another AS announces the same bytes: not its number space
		dst.applyRemote(pick(w.srcIDs), src.f.AID+77, now+3600)
	case 5: // a host is revoked, at either AS
		[]*refAS{src, dst}[w.rng.Intn(2)].revokeHost(w.host())
	case 6: // a host leaves
		[]*refAS{src, dst}[w.rng.Intn(2)].deleteHost(w.host())
	case 7: // a sender is re-keyed (or a revoked or deleted one comes back)
		hid := w.host()
		src.putHost(hostdb.Entry{HID: hid, Keys: futureKeys(hid), RegisteredAt: src.f.Now})
	case 8: // a deleted receiver is registered again
		hid := w.host()
		dst.putHost(hostdb.Entry{HID: hid, Keys: futureKeys(hid), RegisteredAt: dst.f.Now})
	case 9: // the clock passes the short lifetimes, then every GC runs
		src.f.Now += 60
		dst.f.Now += 60
		src.gc(w.t, 30)
		dst.gc(w.t, 30)
	}
}

// runDifferential drives the stream through the reference and every
// path in len(script)+1 parts with one scripted event between parts,
// then once more whole: by then every cache holds an entry for
// everything that changed. It returns how often each verdict came up.
func runDifferential(t *testing.T, seed int64, hosts, rounds int, script []byte, sorted bool) map[border.Verdict]int {
	t.Helper()
	w := newDiffWorld(t, seed, hosts, rounds, sorted)
	paths := []borderPath{slowPath(w.src.f, w.dst.f)}
	for _, size := range diffBatchSizes {
		paths = append(paths, batchPath(w.src.f, w.dst.f, size))
	}
	seen := make(map[border.Verdict]int)
	// checkPorts holds the port handlers to the reference's account of
	// them, which on a stream frame is its verdict on the frame: frame by
	// frame first, then by what shows of the whole stretch, taken frame by
	// frame and in runs of every batch size.
	checkPorts := func(label string, frames [][]byte, want []outcome) {
		t.Helper()
		ref := &tally{sinks: map[handled][][]byte{}}
		var got []handled
		single := w.ports.measure(func() { got = w.ports.run(t, frames) })
		for i, got := range got {
			h, at := refHandled(w.src, w.dst, frames[i])
			ref.note(h, at, frames[i])
			if want == nil {
				seen[h.v]++
			} else if h.v != want[i].v || h.hid != want[i].hid {
				t.Fatalf("%s, frame %d: the reference says %v of the border and %v of its ports", label, i, want[i], h)
			}
			if got != h {
				t.Fatalf("%s, frame %d (%d B): port handlers = %v, reference %v", label, i, len(frames[i]), got, h)
			}
		}
		if d := single.differs(ref); d != "" {
			t.Fatalf("%s, frame by frame: %s", label, d)
		}
		for _, size := range diffBatchSizes {
			if d := w.ports.measure(func() { w.ports.runs(frames, size) }).differs(ref); d != "" {
				t.Fatalf("%s, in runs of %d: %s", label, size, d)
			}
		}
	}
	check := func(label string, part, dispatch [][]byte) {
		t.Helper()
		want := make([]outcome, len(part))
		for i, frame := range part {
			want[i] = refVerdict(w.src, w.dst, frame)
			seen[want[i].v]++
		}
		for _, p := range paths {
			got := p.run(part)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s, frame %d (%d B): %s = %v, reference %v", label, i, len(part[i]), p.name, got[i], want[i])
				}
			}
		}
		checkPorts(label, part, want)
		checkPorts(label+", dispatch", dispatch, nil)
	}
	parts := len(script) + 1
	for k := 0; k < parts; k++ {
		part := func(frames [][]byte) [][]byte { return frames[k*len(frames)/parts : (k+1)*len(frames)/parts] }
		check(fmt.Sprintf("part %d/%d", k+1, parts), part(w.stream), part(w.dispatch))
		if k < len(script) {
			w.apply(script[k])
		}
	}
	check("replay", w.stream, w.dispatch)
	return seen
}

// diffScript takes the stream through every event kind, the GC twice,
// and a re-registration after the second.
var diffScript = []byte{0, 1, 2, 3, 4, 5, 6, 9, 7, 8, 5, 6, 1, 3, 9, 7, 8, 0}

// TestBorderDifferential is the property test: a few seeds, a stream of
// some eleven hundred frames each, shuffled and sorted by length.
func TestBorderDifferential(t *testing.T) {
	seen := make(map[border.Verdict]int)
	for seed := int64(1); seed <= 3; seed++ {
		for _, sorted := range []bool{false, true} {
			for v, n := range runDifferential(t, seed, 24, 40, diffScript, sorted) {
				seen[v] += n
			}
		}
	}
	for _, v := range []border.Verdict{
		border.VerdictForward, border.VerdictDropMalformed, border.VerdictDropBadEphID,
		border.VerdictDropExpired, border.VerdictDropRevoked, border.VerdictDropRevokedRemote,
		border.VerdictDropUnknownHost, border.VerdictDropBadMAC, border.VerdictDropNoRoute,
		border.VerdictDropHopLimit, border.VerdictDropControlLeak,
	} {
		if seen[v] == 0 {
			t.Errorf("the streams never produced %v", v)
		}
	}
}

// FuzzBorderDifferential lets the fuzzer pick the world's seed and the
// script of mid-stream events over a smaller world, whose stream it
// drives shuffled and sorted by length.
func FuzzBorderDifferential(f *testing.F) {
	f.Add(int64(1), diffScript)
	f.Add(int64(2), []byte{9, 9, 7, 7, 6, 8})
	f.Add(int64(3), []byte{})
	f.Fuzz(func(t *testing.T, seed int64, script []byte) {
		if len(script) > 24 {
			script = script[:24]
		}
		runDifferential(t, seed, 6, 2, script, false)
		runDifferential(t, seed, 6, 2, script, true)
	})
}
