// Package border implements the APNA border router (paper Section IV-D3,
// Figure 4, evaluated in Section V-B).
//
// The router runs three pipelines:
//
//   - Egress (outgoing packets from the AS's own hosts): decrypt and
//     validate the source EphID, check the revocation list, look up the
//     host in host_info, verify the per-packet MAC — then forward toward
//     the destination AS. These checks guarantee that only authenticated
//     packets from authorized EphIDs leave the source AS.
//   - Ingress (packets arriving for the AS's own hosts): decrypt and
//     validate the destination EphID, check revocation and host
//     validity, then deliver to the host identified by the decrypted
//     HID.
//   - Transit (packets for other ASes): forward on the destination AID
//     with no cryptographic work, preserving line-rate transit.
//
// Only symmetric cryptography appears on these paths (design choice 3,
// Section IV), which is why the paper's prototype forwards at the NIC
// line rate.
//
// The checks are implemented once, in EgressPipeline and IngressPipeline
// (pipeline.go). The forwarding engine gives each worker its own pair;
// a Router's port handlers forward through a pair the Router owns, and
// take every frame netsim delivers at one instant through ProcessBatch
// together (handlers.go). Router.EgressVerify and Router.IngressVerify
// are the stateless, uncached statement of the same checks that the
// differential test and bench/ hold the pipelines to; nothing forwards
// through them.
package border

import (
	"maps"
	"sync"
	"sync/atomic"

	"apna/internal/crypto"
	"apna/internal/ephid"
	"apna/internal/hostdb"
	"apna/internal/netsim"
	"apna/internal/wire"
)

// Verdict classifies the outcome of pipeline processing.
type Verdict uint8

const (
	// VerdictForward means the packet passed all checks.
	VerdictForward Verdict = iota
	// VerdictDropMalformed: not a valid APNA frame.
	VerdictDropMalformed
	// VerdictDropBadEphID: EphID failed authentication (forged or
	// foreign).
	VerdictDropBadEphID
	// VerdictDropExpired: EphID expired.
	VerdictDropExpired
	// VerdictDropRevoked: EphID is on the revocation list.
	VerdictDropRevoked
	// VerdictDropRevokedRemote: the frame's source EphID was revoked by
	// a *remote* AS and learned through the inter-domain accountability
	// plane (receipt or revocation digest). Checked at ingress so a
	// remotely-shutoff sender cannot reach local hosts by injecting past
	// its own AS's egress checks.
	VerdictDropRevokedRemote
	// VerdictDropUnknownHost: HID not registered or revoked.
	VerdictDropUnknownHost
	// VerdictDropBadMAC: per-packet MAC verification failed (spoofed
	// source).
	VerdictDropBadMAC
	// VerdictDropNoRoute: no route toward the destination AID.
	VerdictDropNoRoute
	// VerdictDropHopLimit: hop limit exhausted in transit.
	VerdictDropHopLimit
	// VerdictDropControlLeak: a control-flagged packet tried to leave
	// the AS.
	VerdictDropControlLeak
)

// String names the verdict.
func (v Verdict) String() string {
	switch v {
	case VerdictForward:
		return "forward"
	case VerdictDropMalformed:
		return "drop-malformed"
	case VerdictDropBadEphID:
		return "drop-bad-ephid"
	case VerdictDropExpired:
		return "drop-expired"
	case VerdictDropRevoked:
		return "drop-revoked"
	case VerdictDropRevokedRemote:
		return "drop-revoked-remote"
	case VerdictDropUnknownHost:
		return "drop-unknown-host"
	case VerdictDropBadMAC:
		return "drop-bad-mac"
	case VerdictDropNoRoute:
		return "drop-no-route"
	case VerdictDropHopLimit:
		return "drop-hop-limit"
	case VerdictDropControlLeak:
		return "drop-control-leak"
	default:
		return "drop-unknown"
	}
}

const verdictCount = 11

// VerdictCount is the number of distinct verdicts, exported so drivers
// (e.g. the forwarding engine) can size per-verdict counter arrays.
const VerdictCount = verdictCount

// DropVerdicts lists every drop verdict — all verdicts after
// VerdictForward. It tracks verdictCount, so reports iterating it pick
// up newly added verdicts automatically instead of coupling to the
// enum's first and last member.
func DropVerdicts() []Verdict {
	out := make([]Verdict, 0, verdictCount-1)
	for v := Verdict(1); v < Verdict(verdictCount); v++ {
		out = append(out, v)
	}
	return out
}

// Stats counts router outcomes, indexed by Verdict.
type Stats struct {
	counters [verdictCount]atomic.Uint64
	// Delivered counts packets handed to local hosts.
	Delivered atomic.Uint64
	// Transited counts packets forwarded between neighbor ASes.
	Transited atomic.Uint64
	// Egressed counts local packets sent toward other ASes.
	Egressed atomic.Uint64
}

func (s *Stats) count(v Verdict) { s.counters[v].Add(1) }

// Get returns the counter for a verdict.
func (s *Stats) Get(v Verdict) uint64 { return s.counters[v].Load() }

// forwardTables is the immutable route/port snapshot the data plane
// reads. Mutations (route installs, neighbor/host attachment) build a
// fresh snapshot and publish it atomically, so per-packet handlers
// never take a lock — the software analogue of the paper's DPDK cores
// reading RCU-style FIB copies.
type forwardTables struct {
	routes    netsim.Routes
	asPorts   map[ephid.AID]*netsim.Port // neighbor AID -> external port
	hostPorts map[ephid.HID]*netsim.Port // local HID -> internal port
}

// Router is one AS's border router. Its tables (routes, ports, hostdb,
// revocation lists) may be read and written from any goroutine. Its port
// handlers and HandleExternalFrame share one pipeline
// pair and one set of scratch slices: they must all run on one
// goroutine, as they do under netsim, and the ICMP hook must not call
// back into them.
type Router struct {
	aid    ephid.AID
	sealer *ephid.Sealer
	db     *hostdb.DB
	now    func() int64

	revoked RevocationList
	// remoteRevoked holds EphIDs revoked by other ASes, installed by the
	// local accountability engine from verified receipts and revocation
	// digests, scoped per announcing AS.
	remoteRevoked RemoteRevocationList
	ctlCMAC       ctlVerifier
	stats         Stats

	mu     sync.Mutex // serializes table mutations only
	tables atomic.Pointer[forwardTables]

	// icmpSender, when set, is invited to emit ICMP errors for dropped
	// packets (Section VIII-B). It must not retain frame, and it may send
	// frames but change nothing a verdict depends on (see handlers.go).
	// Published atomically: port handlers may be mid-packet when it is
	// installed.
	icmpSender atomic.Pointer[func(reason Verdict, frame []byte)]

	// The pipelines the port handlers forward through, each created by
	// the first frame that needs it: a router that only serves tables to
	// other pipelines (pktgen worlds, the population world) has neither.
	egress  *EgressPipeline
	ingress *IngressPipeline

	// The port handlers (handlers.go) and the scratch of the run they
	// are on, which grows to the longest run seen and is kept.
	internal internalSide
	external externalSide
	one      [1][]byte       // a single frame's run
	valid    [][]byte        // the run's well-formed frames, in order
	verdicts []Verdict       // egress's, one per frame of valid
	local    [][]byte        // the frames of valid bound for this AS's hosts
	results  []IngressResult // ingress's, one per frame of local
}

// New creates a border router. now supplies Unix seconds.
//
//apna:only apna/internal/asnode apna/bench
func New(aid ephid.AID, sealer *ephid.Sealer, db *hostdb.DB, secret *crypto.ASSecret, now func() int64) (*Router, error) {
	r := &Router{aid: aid, sealer: sealer, db: db, now: now}
	r.internal, r.external = internalSide{r}, externalSide{r}
	r.tables.Store(&forwardTables{
		asPorts:   make(map[ephid.AID]*netsim.Port),
		hostPorts: make(map[ephid.HID]*netsim.Port),
	})
	if err := r.ctlCMAC.init(secret.InfraControlKey()); err != nil {
		return nil, err
	}
	return r, nil
}

// Stats exposes the router's counters.
func (r *Router) Stats() *Stats { return &r.stats }

// SetICMPSender installs the ICMP error hook. The hook is published
// atomically so it can be (re)installed while port handlers are
// processing packets. It runs in the middle of a run's dispatch, after
// the whole run was verified: it may send frames, and must neither
// change what a verdict depends on (host_info, the revocation lists)
// nor call back into the router's handlers.
func (r *Router) SetICMPSender(fn func(reason Verdict, frame []byte)) {
	if fn == nil {
		r.icmpSender.Store(nil)
		return
	}
	r.icmpSender.Store(&fn)
}

// SetRoutes installs the inter-domain next-hop table.
func (r *Router) SetRoutes(routes netsim.Routes) {
	r.mu.Lock()
	defer r.mu.Unlock()
	t := *r.tables.Load()
	t.routes = routes
	r.tables.Store(&t)
}

// AttachNeighbor binds an external port toward a neighbor AS.
func (r *Router) AttachNeighbor(aid ephid.AID, p *netsim.Port) {
	p.Attach(&r.external)
	r.mu.Lock()
	defer r.mu.Unlock()
	t := *r.tables.Load()
	t.asPorts = maps.Clone(t.asPorts)
	t.asPorts[aid] = p
	r.tables.Store(&t)
}

// AttachHost binds an internal port toward a local host or service.
func (r *Router) AttachHost(hid ephid.HID, p *netsim.Port) {
	p.Attach(&r.internal)
	r.mu.Lock()
	defer r.mu.Unlock()
	t := *r.tables.Load()
	t.hostPorts = maps.Clone(t.hostPorts)
	t.hostPorts[hid] = p
	r.tables.Store(&t)
}

// EgressVerify runs the outgoing-packet checks of Figure 4 (bottom) and
// returns the verdict plus, on success, the host's MAC key. It is the
// reference for EgressPipeline — no cache, no batch, no state beyond
// the router's tables — that differential_test.go and bench/'s verdict
// checks compare the pipelines with; the router forwards through the
// pipelines.
//
//apna:only apna/bench
func (r *Router) EgressVerify(frame []byte) (Verdict, [crypto.SymKeySize]byte) {
	var zero [crypto.SymKeySize]byte

	// (HID_S, expTime) = Dec(kA, EphID_s).
	p, err := r.sealer.Open(wire.FrameSrcEphID(frame))
	if err != nil {
		return VerdictDropBadEphID, zero
	}
	if p.Expired(r.now()) {
		return VerdictDropExpired, zero
	}
	// EphID_s not revoked.
	if r.revoked.Contains(wire.FrameSrcEphID(frame)) {
		return VerdictDropRevoked, zero
	}
	// HID_S valid; fetch kHA.
	macKey, err := r.db.MACKey(p.HID)
	if err != nil {
		return VerdictDropUnknownHost, zero
	}
	// Verify the packet MAC. The key schedule lives on the stack: this
	// path keeps no per-host state and allocates nothing per packet.
	var pm wire.PacketMAC
	if err := pm.Init(macKey[:]); err != nil || !pm.Verify(frame) {
		return VerdictDropBadMAC, zero
	}
	return VerdictForward, macKey
}

// IngressVerify runs the incoming-packet checks of Figure 4 (top),
// returning the verdict and, on success, the destination HID. Like
// EgressVerify it is the reference for its pipeline, not a forwarding
// path.
//
//apna:only apna/bench
func (r *Router) IngressVerify(frame []byte) (Verdict, ephid.HID) {
	p, err := r.sealer.Open(wire.FrameDstEphID(frame))
	if err != nil {
		return VerdictDropBadEphID, 0
	}
	if p.Expired(r.now()) {
		return VerdictDropExpired, 0
	}
	if r.revoked.Contains(wire.FrameDstEphID(frame)) {
		return VerdictDropRevoked, 0
	}
	// The paper's shutoff guarantee is inter-domain: a source EphID
	// revoked by its own (remote) AS must stop being accepted here too,
	// even if the frame was injected past that AS's egress checks. The
	// lookup is origin-scoped: the drop applies only when the AS the
	// frame claims as source is the AS that announced the revocation.
	if r.remoteRevoked.Matches(wire.FrameSrcEphID(frame), wire.FrameSrcAID(frame)) {
		return VerdictDropRevokedRemote, 0
	}
	if !r.db.Valid(p.HID) {
		return VerdictDropUnknownHost, 0
	}
	return VerdictForward, p.HID
}

// DeliverToHost hands a frame directly to a local host's port,
// bypassing the ingress pipeline. It exists for AS-internal feedback to
// the AS's own authenticated customers — e.g. ICMP errors about a
// just-revoked EphID, which could never pass the revocation check that
// caused them (Section VIII-B).
func (r *Router) DeliverToHost(hid ephid.HID, frame []byte) bool {
	port, ok := r.tables.Load().hostPorts[hid]
	if !ok {
		return false
	}
	port.Send(frame)
	return true
}

// LookupRoute resolves the external port toward a destination AID using
// the current table snapshot, without sending anything. It is the
// transit-stage primitive the parallel forwarding engine drives
// directly (one table lookup per packet, lock-free).
//
//apna:hotpath
func (r *Router) LookupRoute(dst ephid.AID) (*netsim.Port, bool) {
	t := r.tables.Load()
	nh, ok := t.routes[dst]
	if !ok {
		// Directly connected neighbor without an explicit route.
		if _, direct := t.asPorts[dst]; direct {
			nh, ok = dst, true
		}
	}
	port := t.asPorts[nh]
	if !ok || port == nil {
		return nil, false
	}
	return port, true
}
