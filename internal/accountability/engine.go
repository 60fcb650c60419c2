// Package accountability implements the inter-domain accountability
// plane: the AA-to-AA protocols that carry the paper's shutoff
// guarantee across AS borders (Section IV-E applied between domains).
//
// The intra-AS accountability agent (internal/aa) can only revoke
// EphIDs its own AS minted. But the victim of unwanted traffic usually
// sits in a *different* AS, so the paper's guarantee — any recipient
// can have any sender's traffic stopped — needs a control plane between
// agents:
//
//  1. The victim host files a Complaint with its own AS's agent: the
//     offending packet, the victim's signature over it, the victim's
//     certificate, and the offender's certificate (which names the
//     offending AS and its agent's EphID).
//  2. The victim-side engine verifies everything verifiable locally —
//     the victim's certificate chains to this AS, the signature is
//     valid, the packet was addressed to the victim, the offender's
//     certificate chains to its claimed AS via RPKI — then wraps the
//     complaint in a ShutoffRequest signed with the AS's key and
//     forwards it to the offending AS's agent.
//  3. The source-side engine verifies the requesting AS's signature
//     (RPKI), then runs the full intra-AS shutoff validation of
//     Figure 5 — including the per-packet MAC check only the source AS
//     can perform, which keeps the protocol from becoming a
//     denial-of-service tool — revokes the EphID on its border
//     routers, and answers with a signed Receipt. Requests are
//     idempotent: a replayed request is answered from a receipt cache,
//     and a second complaint about an already-revoked EphID is a
//     no-op receipt with no additional strike.
//  4. Each engine periodically disseminates signed Digests of its
//     revocation state. Steady-state flushes are *deltas* — only the
//     entries added or removed since the previous flush, seq-chained to
//     it — with a periodic full-*snapshot* anti-entropy round (every
//     SnapshotEvery-th flush, and always the first) that repairs any
//     loss or reordering; a receiver that detects a seq gap may
//     unicast a MsgSnapshotRequest to the origin. Receivers
//     install entries into their border routers' remote revocation
//     lists (sharded, copy-on-write, lock-free — the same structure as
//     the local list), so border ingress drops frames bearing
//     remotely-revoked source EphIDs without any per-packet cross-AS
//     query. Dissemination runs in one of two modes: ModeMesh floods
//     every digest directly to every registered peer (the paper-literal
//     O(N²) conformance reference), while ModeRelay forwards
//     origin-signed digests along the provider/customer overlay only,
//     batching everything learned since the last tick into a single
//     MsgDigestBatch per neighbor — O(N·degree) messages per interval
//     with dissemination latency bounded by overlay depth × interval.
//     Relays forward but cannot forge: origin signature verification is
//     unchanged, and duplicates are suppressed by (origin, seq) before
//     the signature check ever runs.
//
// The privacy half of the paper's trade-off is preserved end to end:
// complaints, requests, receipts and digests name only EphIDs — the
// offending host's HID never crosses the AS border (Pope & Goodell's
// accountability-vs-privacy tension resolved the paper's way: the
// source AS alone can map the identifier to its customer).
//
// The engine is transport-agnostic: the facade wires SetSend to the
// agent service host's stack and calls HandleMessage for every
// ProtoAcct frame the agent receives.
package accountability

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"

	"apna/internal/aa"
	"apna/internal/border"
	"apna/internal/ephid"
	"apna/internal/hostdb"
	"apna/internal/wire"
)

// Engine errors (beyond the codec errors in msg.go).
var (
	// ErrNotVictimAS: the complaint's victim certificate was not issued
	// by this AS — complaints go to the victim's own agent first.
	ErrNotVictimAS = errors.New("accountability: complainant is not a customer of this AS")
	// ErrComplaintProof: the complaint's local proof failed (signature,
	// addressing, or certificate validation).
	ErrComplaintProof = errors.New("accountability: complaint proof invalid")
	// ErrNoTransport: the engine has no send hook installed.
	ErrNoTransport = errors.New("accountability: no transport wired (SetSend)")
	// ErrNotSourceAS: a shutoff request named a source EphID this AS
	// did not mint.
	ErrNotSourceAS = errors.New("accountability: packet source is not in this AS")
)

// Config parameterizes an engine. All fields are required.
type Config struct {
	// AID is this AS.
	AID ephid.AID
	// Signer holds the AS's Ed25519 key (the one certified in RPKI),
	// signing outgoing requests, receipts and digests.
	Signer Signer
	// Trust resolves peer AS keys.
	Trust TrustStore
	// Agent is the local intra-AS accountability agent that executes
	// revocations.
	Agent *aa.Agent
	// Now supplies Unix seconds.
	Now func() int64
}

// Signer is the signing half of crypto.Signer.
type Signer interface {
	Sign(label string, data []byte) []byte
}

// TrustStore is the key-resolution surface of rpki.TrustStore.
type TrustStore interface {
	SigKey(aid ephid.AID, nowUnix int64) ([]byte, error)
}

// RemoteSink receives remotely-revoked EphIDs as digests install them.
// border.Router satisfies it; large-scale harnesses install lightweight
// sinks instead of full border routers.
type RemoteSink interface {
	ApplyRemote(id ephid.EphID, origin ephid.AID, expTime uint32)
}

// Mode selects the dissemination strategy.
type Mode uint8

const (
	// ModeMesh floods every digest directly to every registered peer —
	// O(N²) messages per interval internet-wide. It is the default and
	// the deterministic conformance reference.
	ModeMesh Mode = iota
	// ModeRelay forwards origin-signed digests along the registered
	// overlay neighbors only, batching everything learned since the
	// last flush into one MsgDigestBatch per neighbor — O(N·degree)
	// messages per interval, dissemination latency bounded by overlay
	// depth × interval.
	ModeRelay
)

// String names the mode.
func (m Mode) String() string {
	if m == ModeRelay {
		return "relay"
	}
	return "mesh"
}

// DefaultSnapshotEvery is the anti-entropy cadence when
// SetDissemination is given a non-positive one: every k-th flush tick
// carries the full announced set instead of a delta.
const DefaultSnapshotEvery = 8

// Rate limits for the unicast snapshot-repair path, in Unix seconds:
// how often an engine asks any one origin for a snapshot, and how often
// it serves any one requester.
const (
	snapshotRequestSpacing = 5
	snapshotServeSpacing   = 2
)

// Stats counts engine activity, in the spirit of border.Stats. Refusals
// are not counted: a rejected complaint shows as its
// "complaint-rejected" event, a refused shutoff request or receipt as
// the error its handler returns.
type Stats struct {
	// Victim side.
	ComplaintsLocal, RequestsForwarded uint64
	// Source side.
	RequestsDuplicate, Revocations, NoOpReceipts uint64
	// Dissemination. DigestsSent counts own-digest flushes (snapshots +
	// deltas); MessagesSent and DigestBytesSent count every successful
	// digest-plane transmission (floods, relay batches, snapshot
	// repair), which is what the fan-out bound gates on.
	DigestsSent, DigestsReceived, DigestsInvalid, DigestsStale uint64
	SnapshotsSent, DeltasSent, FlushesSkippedNoChange          uint64
	DigestsRelayed, RelayBatchesSent                           uint64
	SeqGaps, SnapshotRequestsSent, SnapshotRequestsServed      uint64
	SendFailures, MessagesSent, DigestBytesSent                uint64
	EntriesInstalled, EntriesSkippedExpired, RemovalsAnnounced uint64
}

// Event is one engine action, surfaced to observers (scenario referees
// time dissemination with it; harnesses log it).
type Event struct {
	// Kind is "complaint", "complaint-rejected", "forward", "shutoff",
	// "receipt", "digest-flush" or "digest-install".
	Kind string
	// AID is the engine's AS.
	AID ephid.AID
	// Peer is the other AS of the exchange (zero for digest-flush).
	Peer ephid.AID
	// EphID is the offending identifier, where one is known.
	EphID ephid.EphID
	// Status carries the receipt status of "shutoff" and "receipt"
	// events.
	Status Status
	// Entries counts digest entries for "digest-flush" and
	// "digest-install" events (adds + removals for a delta flush).
	Entries int
	// SendFailures counts transport errors while flooding a
	// "digest-flush" — previously discarded silently, now surfaced so
	// referees can tell a quiet interval from a broken transport.
	SendFailures int
}

// pendingReq is one in-flight cross-AS shutoff request on the victim
// side.
type pendingReq struct {
	peer ephid.AID
	at   int64 // Unix seconds the request was forwarded, for pruning
	done func(*Receipt, error)
}

// Retention horizons for the two bookkeeping maps, in Unix seconds of
// virtual time. A pending request past the horizon will never be
// answered usefully (the caller retried or gave up long ago); a cached
// receipt past it can be dropped because re-executing the request is
// itself idempotent — the EphID is already revoked or expired by then,
// so a very late replay earns a fresh no-op receipt.
const (
	pendingHorizon = 300
	receiptHorizon = 3600
)

// maxReceipts caps the receipt cache by count too: one hostile origin
// AS can sign any number of distinct requests about one complaint. The
// oldest entry goes first; as past the horizon, a re-executed request
// about a revoked EphID only earns a no-op receipt.
const maxReceipts = 1 << 16

// Engine is one AS's inter-domain accountability plane. It shares the
// simulator's single-goroutine discipline with the rest of the control
// plane; the mutex only guards direct concurrent use from tests.
type Engine struct {
	cfg Config

	mu      sync.Mutex
	routers []*border.Router
	// sinks are the install targets for remote revocations: the border
	// routers (AddRouter), or the lightweight sinks of E12's harness.
	sinks []RemoteSink
	send  func(dst wire.Endpoint, payload []byte) error
	// peers holds one record per other AS the engine knows: registered
	// ones, and digest origins it learned of only from a verified digest.
	peers         map[ephid.AID]*peer
	mode          Mode
	snapshotEvery int
	// announced is the cumulative set of this AS's live revocations —
	// the digest contents. NoteRevoked feeds it (wired to the local
	// agent's revocation hook); FlushDigest prunes expired entries.
	announced map[ephid.EphID]uint32
	// lastFlushed is the announced set exactly as of seq flushSeq: the
	// delta base for the next flush, and what a unicast snapshot serves
	// (reusing seq flushSeq, so repair never burns a seq and desyncs
	// every other receiver's delta chain).
	lastFlushed map[ephid.EphID]uint32
	// pending maps request hashes to in-flight cross-AS requests.
	pending map[[32]byte]pendingReq
	// receipts is the source-side idempotency cache: request hash to
	// the signed receipt already issued. A replayed request is answered
	// from here without touching the agent (no double strike).
	receipts map[[32]byte]*Receipt
	// receiptOrder lists the cached request hashes oldest first, for
	// eviction at maxReceipts.
	receiptOrder [][32]byte
	// prunedAt is the clock second of the last prune walk.
	prunedAt int64
	// outbox holds verified foreign digests accepted since the last
	// flush, awaiting relay to overlay neighbors.
	outbox   []relayItem
	reqSeq   uint64
	flushSeq uint64
	// tick counts FlushDigest calls (including skipped ones), driving
	// the anti-entropy cadence even across idle stretches.
	tick     uint64
	stats    Stats
	observer func(Event)
}

// peer is what an engine keeps about another AS.
type peer struct {
	// ep is the AS's agent EphID, zero for an origin known only from
	// its digests: registered peers get floods and snapshot repair.
	ep ephid.EphID
	// neighbor marks an overlay neighbor, which ModeRelay forwards to.
	neighbor bool
	// seq is the highest digest seq applied from the AS as an origin;
	// relayHW the highest queued for relay forwarding, which can run
	// ahead of seq across a gap.
	seq, relayHW uint64
	// snapReqAt and servedAt rate-limit snapshot repair: when the
	// engine last asked the AS for a snapshot, and last served it one.
	snapReqAt, servedAt int64
}

// registered reports whether the AS was registered as a peer.
func (p *peer) registered() bool { return p != nil && p.ep != ephid.EphID{} }

// peer returns aid's record, making an unregistered one if there is
// none. The caller holds e.mu.
func (e *Engine) peer(aid ephid.AID) *peer {
	p := e.peers[aid]
	if p == nil {
		p = new(peer)
		e.peers[aid] = p
	}
	return p
}

// relayItem is one foreign origin-signed digest awaiting relay: the raw
// encoding (forwarded verbatim — relays cannot re-sign) and the peer it
// was learned from, which is excluded from the forward fan-out.
type relayItem struct {
	origin ephid.AID
	from   ephid.AID
	raw    []byte
}

// New creates an engine.
//
//apna:only apna/internal/asnode apna/bench
func New(cfg Config) *Engine {
	return &Engine{
		cfg:         cfg,
		peers:       make(map[ephid.AID]*peer),
		announced:   make(map[ephid.EphID]uint32),
		lastFlushed: make(map[ephid.EphID]uint32),
		pending:     make(map[[32]byte]pendingReq),
		receipts:    make(map[[32]byte]*Receipt),
	}
}

// AddRouter registers a border router as an install target for remote
// revocations (and as the already-revoked oracle for no-op receipts).
func (e *Engine) AddRouter(r *border.Router) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.routers = append(e.routers, r)
	e.sinks = append(e.sinks, r)
}

// SetDissemination selects the dissemination mode and the anti-entropy
// cadence (every snapshotEvery-th flush tick is a full snapshot; non-
// positive selects DefaultSnapshotEvery). Call before the digest timer
// starts.
func (e *Engine) SetDissemination(mode Mode, snapshotEvery int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.mode = mode
	e.snapshotEvery = snapshotEvery
}

// SetSend installs the transport: fn must deliver payload to the
// accountability agent at dst as a ProtoAcct frame.
func (e *Engine) SetSend(fn func(dst wire.Endpoint, payload []byte) error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.send = fn
}

// RegisterPeer records a peer AS's agent endpoint for digest flooding
// (and for unicast snapshot repair).
func (e *Engine) RegisterPeer(aid ephid.AID, agentEphID ephid.EphID) {
	if aid == e.cfg.AID {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.peer(aid).ep = agentEphID
}

// RegisterNeighbor records an overlay neighbor for ModeRelay
// forwarding. Neighbors are peers too, so snapshot repair and mesh
// flooding keep working whatever the mode.
func (e *Engine) RegisterNeighbor(aid ephid.AID, agentEphID ephid.EphID) {
	if aid == e.cfg.AID {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	p := e.peer(aid)
	p.ep, p.neighbor = agentEphID, true
}

// SetObserver installs a callback fired on every engine action.
func (e *Engine) SetObserver(fn func(Event)) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.observer = fn
}

// Stats returns a copy of the engine's counters.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stats
}

func (e *Engine) emit(ev Event) {
	e.mu.Lock()
	fn := e.observer
	e.mu.Unlock()
	if fn != nil {
		ev.AID = e.cfg.AID
		fn(ev)
	}
}

// NoteRevoked records a local revocation for dissemination. It is the
// single feed into the digest set, wired to the local agent's
// revocation hook so shutoff-driven, cross-AS-driven and voluntary
// revocations all disseminate.
func (e *Engine) NoteRevoked(id ephid.EphID, expTime uint32) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.announced[id] = expTime
}

// sendTo snapshots the transport and sends, outside the lock.
func (e *Engine) sendTo(dst wire.Endpoint, payload []byte) error {
	e.mu.Lock()
	fn := e.send
	e.mu.Unlock()
	if fn == nil {
		return ErrNoTransport
	}
	return fn(dst, payload)
}

// HandleComplaint runs the victim-side validation of a complaint and
// either executes it locally (offender in this AS) or forwards it to
// the offending AS's agent. done fires exactly once with the signed
// receipt — synchronously for local offenders, on receipt arrival for
// remote ones. A returned error means the complaint was rejected before
// any request left this AS (done never fires).
func (e *Engine) HandleComplaint(c *Complaint, done func(*Receipt, error)) error {
	now := e.cfg.Now()
	reject := func(format string, args ...any) error {
		e.emit(Event{Kind: "complaint-rejected"})
		return fmt.Errorf("%w: %s", ErrComplaintProof, fmt.Sprintf(format, args...))
	}

	// The complainant must be our customer, with a certificate we
	// issued.
	if c.Req.Cert.AID != e.cfg.AID {
		e.emit(Event{Kind: "complaint-rejected"})
		return fmt.Errorf("%w: cert from %v", ErrNotVictimAS, c.Req.Cert.AID)
	}
	key, err := e.cfg.Trust.SigKey(c.Req.Cert.AID, now)
	if err != nil {
		return reject("resolving own AS key: %v", err)
	}
	if err := c.Req.Cert.Verify(key, now); err != nil {
		return reject("victim certificate: %v", err)
	}
	// The victim owns the certificate's signing key.
	if !c.Req.VerifySignature() {
		return reject("victim signature invalid")
	}
	// The evidence is a well-formed frame addressed to the victim —
	// only recipients may complain (Section VI-C).
	if !wire.ValidFrame(c.Req.Packet) {
		return reject("evidence is not an APNA frame")
	}
	if wire.FrameDstEphID(c.Req.Packet) != c.Req.Cert.EphID ||
		wire.FrameDstAID(c.Req.Packet) != c.Req.Cert.AID {
		return reject("evidence not addressed to complainant")
	}
	// The offender certificate must match the evidence's source and
	// chain to its claimed AS — a forged certificate cannot redirect the
	// shutoff request to a bogus agent.
	if c.OffenderCert.EphID != wire.FrameSrcEphID(c.Req.Packet) ||
		c.OffenderCert.AID != wire.FrameSrcAID(c.Req.Packet) {
		return reject("offender certificate does not match evidence source")
	}

	if c.OffenderCert.AID == e.cfg.AID {
		// Intra-AS complaint: execute directly, no border crossing.
		e.mu.Lock()
		e.stats.ComplaintsLocal++
		e.mu.Unlock()
		r := e.execute(&c.Req, [32]byte{})
		e.emit(Event{Kind: "shutoff", Peer: e.cfg.AID, EphID: r.SrcEphID, Status: r.Status})
		done(r, nil)
		return nil
	}

	// Signature only: an expired offender certificate is still a valid
	// route to its issuing AS, which answers with a no-op receipt — the
	// offender's expiry is the source AS's judgment, not ours.
	okey, err := e.cfg.Trust.SigKey(c.OffenderCert.AID, now)
	if err != nil {
		return reject("resolving offender AS %v: %v", c.OffenderCert.AID, err)
	}
	if err := c.OffenderCert.VerifySignature(okey); err != nil {
		return reject("offender certificate: %v", err)
	}

	enc, err := c.Encode()
	if err != nil {
		return reject("encoding complaint: %v", err)
	}
	e.mu.Lock()
	// Housekeeping rides every complaint too, so the no-dissemination
	// mode (no digest timer calling FlushDigest) cannot leak pending
	// entries or receipt-cache growth without bound.
	e.prune(now)
	e.reqSeq++
	req := &ShutoffRequest{Origin: e.cfg.AID, Seq: e.reqSeq, IssuedAt: now, Complaint: enc}
	e.mu.Unlock()
	req.Sign(e.cfg.Signer)
	raw := req.Encode()
	hash := RequestHash(raw)

	e.mu.Lock()
	e.pending[hash] = pendingReq{peer: c.OffenderCert.AID, at: now, done: done}
	e.mu.Unlock()

	dst := wire.Endpoint{AID: c.OffenderCert.AID, EphID: c.OffenderCert.AAEphID}
	if err := e.sendTo(dst, append([]byte{MsgShutoffRequest}, raw...)); err != nil {
		e.mu.Lock()
		delete(e.pending, hash)
		e.mu.Unlock()
		return err
	}
	e.mu.Lock()
	e.stats.RequestsForwarded++
	e.mu.Unlock()
	e.emit(Event{Kind: "forward", Peer: c.OffenderCert.AID, EphID: c.OffenderCert.EphID})
	return nil
}

// prune drops pending requests and cached receipts past their
// horizons. Called with e.mu held, on every complaint, shutoff request
// and flush; horizons and now are whole seconds, so a second walk
// within one clock second could delete nothing and is skipped — under a
// request flood the cost is one walk per second, not one per request.
// Receipts lost to the network leave their pending entries behind; the
// complaining host's future is abandoned independently at timeline
// quiescence (and acks correlate by sequence number, so a very late
// receipt firing a pruned-then-replaced callback cannot mis-resolve
// anything).
func (e *Engine) prune(now int64) {
	if now == e.prunedAt {
		return
	}
	e.prunedAt = now
	for h, p := range e.pending {
		if p.at+pendingHorizon < now {
			delete(e.pending, h)
		}
	}
	for h, r := range e.receipts {
		if r.IssuedAt+receiptHorizon < now {
			delete(e.receipts, h)
		}
	}
	e.receiptOrder = slices.DeleteFunc(e.receiptOrder, func(h [32]byte) bool {
		_, ok := e.receipts[h]
		return !ok
	})
}

// cacheReceipt files a receipt under its request hash, evicting the
// oldest cached receipts while the cache is full. Called with e.mu held.
func (e *Engine) cacheReceipt(hash [32]byte, r *Receipt) {
	for len(e.receipts) >= maxReceipts && len(e.receiptOrder) > 0 {
		delete(e.receipts, e.receiptOrder[0])
		e.receiptOrder = e.receiptOrder[1:]
	}
	e.receipts[hash] = r
	e.receiptOrder = append(e.receiptOrder, hash)
}

// alreadyRevoked reports whether any of this AS's border routers has
// the EphID on its local revocation list.
func (e *Engine) alreadyRevoked(id ephid.EphID) bool {
	e.mu.Lock()
	routers := e.routers
	e.mu.Unlock()
	for _, r := range routers {
		if r.Revoked().Contains(id) {
			return true
		}
	}
	return false
}

// execute runs one validated-enough shutoff request against the local
// agent and builds the signed receipt. Idempotency on substance: an
// EphID already revoked (or already expired) yields a no-op receipt
// and never reaches the agent, so repeated complaints about one
// offender do not stack strikes.
func (e *Engine) execute(req *aa.Request, reqHash [32]byte) *Receipt {
	now := e.cfg.Now()
	r := &Receipt{Issuer: e.cfg.AID, ReqHash: reqHash, IssuedAt: now}
	count := func(st Status) {
		e.mu.Lock()
		defer e.mu.Unlock()
		switch st {
		case StatusRevoked:
			e.stats.Revocations++
		case StatusAlreadyRevoked, StatusExpiredNoOp:
			e.stats.NoOpReceipts++
		}
	}
	defer func() { count(r.Status); r.Sign(e.cfg.Signer) }()

	if !wire.ValidFrame(req.Packet) {
		r.Status = StatusRejected
		return r
	}
	// The named EphID is requester-provided, so echoing it back leaks
	// nothing; everything derived from decrypting it does. The full
	// Figure 5 proof — including the per-packet MAC only this AS can
	// check — runs BEFORE any classification, so no signed receipt
	// discloses an EphID's expiry or revocation status to a peer that
	// cannot prove the host actually sent the packet (receipts must not
	// become a metadata oracle for RPKI peers).
	r.SrcEphID = wire.FrameSrcEphID(req.Packet)
	pl, err := e.cfg.Agent.VerifyEvidence(req)
	if err != nil {
		r.Status = StatusRejected
		return r
	}
	r.ExpTime = pl.ExpTime
	switch {
	case pl.Expired(now):
		r.Status = StatusExpiredNoOp
	case e.alreadyRevoked(r.SrcEphID):
		r.Status = StatusAlreadyRevoked
	default:
		if _, err := e.cfg.Agent.ShutoffVerified(req, pl); err != nil {
			if errors.Is(err, hostdb.ErrRevoked) {
				// The whole host was already revoked: its EphIDs are
				// implicitly dead — a no-op, not a failure.
				r.Status = StatusAlreadyRevoked
			} else {
				r.Status = StatusRejected
			}
		} else {
			r.Status = StatusRevoked
		}
	}
	return r
}

// HandleShutoffRequest is the source-side entry point: verify the
// requesting AS's signature, answer replays from the receipt cache,
// otherwise validate and execute the complaint. The returned receipt is
// always signed; an error means the request was not even authentic and
// is dropped without an answer (the Figure 5 abort).
func (e *Engine) HandleShutoffRequest(raw []byte) (*Receipt, error) {
	now := e.cfg.Now()
	hash := RequestHash(raw)
	e.mu.Lock()
	cached, dup := e.receipts[hash]
	e.mu.Unlock()
	if dup {
		e.mu.Lock()
		e.stats.RequestsDuplicate++
		e.mu.Unlock()
		return cached, nil
	}

	sr, err := DecodeShutoffRequest(raw)
	if err != nil {
		return nil, err
	}
	if err := sr.Verify(e.cfg.Trust, now); err != nil {
		return nil, err
	}
	c, err := DecodeComplaint(sr.Complaint)
	if err != nil {
		return nil, err
	}
	// The forwarding AS must be the victim's own AS: agents only relay
	// their customers' complaints.
	if c.Req.Cert.AID != sr.Origin {
		return nil, fmt.Errorf("%w: origin %v relayed a cert from %v",
			ErrBadRequest, sr.Origin, c.Req.Cert.AID)
	}
	// The named source must be ours; everything further (victim cert,
	// signature, MAC) is the agent's Figure 5 validation inside execute.
	if wire.ValidFrame(c.Req.Packet) && wire.FrameSrcAID(c.Req.Packet) != e.cfg.AID {
		return nil, fmt.Errorf("%w: source AS %v", ErrNotSourceAS, wire.FrameSrcAID(c.Req.Packet))
	}

	r := e.execute(&c.Req, hash)
	e.mu.Lock()
	e.prune(now) // bounds the cache even without a digest timer
	e.cacheReceipt(hash, r)
	e.mu.Unlock()
	e.emit(Event{Kind: "shutoff", Peer: sr.Origin, EphID: r.SrcEphID, Status: r.Status})
	return r, nil
}

// HandleReceipt is the victim-side receipt path: verify the issuer's
// signature, resolve the matching pending request, and install the
// revocation into this AS's remote lists immediately (the victim AS
// should not have to wait for the next digest to protect its own
// borders).
func (e *Engine) HandleReceipt(raw []byte) error {
	now := e.cfg.Now()
	r, err := DecodeReceipt(raw)
	if err != nil {
		return err
	}
	if err := r.Verify(e.cfg.Trust, now); err != nil {
		return err
	}
	e.mu.Lock()
	p, ok := e.pending[r.ReqHash]
	// Only honor receipts from the AS the request was actually sent to:
	// a third AS cannot answer (and so revoke, or deny) on another's
	// behalf. The pending entry stays — a wrong-issuer receipt (its
	// hash is observable on-path) must not displace the genuine one
	// still in flight.
	if ok && p.peer != r.Issuer {
		e.mu.Unlock()
		return fmt.Errorf("%w: receipt from %v for a request to %v",
			ErrBadReceipt, r.Issuer, p.peer)
	}
	if ok {
		delete(e.pending, r.ReqHash)
	}
	sinks := e.sinks
	e.mu.Unlock()

	if ok && r.Status.Stopped() && r.Status != StatusExpiredNoOp {
		for _, s := range sinks {
			s.ApplyRemote(r.SrcEphID, r.Issuer, r.ExpTime)
		}
	}
	e.emit(Event{Kind: "receipt", Peer: r.Issuer, EphID: r.SrcEphID, Status: r.Status})
	if ok {
		p.done(r, nil)
	}
	return nil
}

// sortDigest puts entries and removals in deterministic wire order
// (maps iterate randomly).
func sortDigest(d *Digest) {
	sort.Slice(d.Entries, func(i, j int) bool {
		return bytes.Compare(d.Entries[i].EphID[:], d.Entries[j].EphID[:]) < 0
	})
	sort.Slice(d.Removed, func(i, j int) bool {
		return bytes.Compare(d.Removed[i][:], d.Removed[j][:]) < 0
	})
}

// FlushDigest runs one dissemination tick: build this AS's digest —
// a delta of the changes since the last flush, or a full snapshot on
// the anti-entropy cadence — sign it, and send it out (flooded to every
// peer in ModeMesh; bundled with the relay outbox into one
// MsgDigestBatch per overlay neighbor in ModeRelay). When nothing
// changed and no snapshot is due, the flush is skipped entirely: no
// sort, no signature, no messages (FlushesSkippedNoChange counts it) —
// though a relay still drains its outbox. It returns the number of
// entries announced in this AS's own digest (adds + removals for a
// delta; 0 when skipped). The facade drives it from a recurring
// virtual-time timer (netsim.Simulator.Every).
func (e *Engine) FlushDigest() int {
	now := e.cfg.Now()
	e.mu.Lock()
	e.tick++
	// Ride the dissemination cadence for housekeeping: stale pending
	// requests and over-retained receipt-cache entries go first, then
	// expired revocations — the expiry check drops their frames
	// everywhere, so announcing them buys nothing (the digest-side
	// mirror of RevocationList.GC). Expiry pruning is what feeds the
	// delta's Removed list.
	e.prune(now)
	for id, exp := range e.announced {
		if int64(exp) < now {
			delete(e.announced, id)
		}
	}
	snapEvery := e.snapshotEvery
	if snapEvery <= 0 {
		snapEvery = DefaultSnapshotEvery
	}
	var added []DigestEntry
	var removed []ephid.EphID
	for id, exp := range e.announced {
		if old, ok := e.lastFlushed[id]; !ok || old != exp {
			added = append(added, DigestEntry{EphID: id, ExpTime: exp})
		}
	}
	for id := range e.lastFlushed {
		if _, ok := e.announced[id]; !ok {
			removed = append(removed, id)
		}
	}
	changed := len(added)+len(removed) > 0
	// The first flush is always a snapshot (receivers need a base for
	// the delta chain); after that the cadence runs on the tick counter
	// rather than the seq, so skipped idle flushes still advance toward
	// the next anti-entropy round.
	snapshotDue := e.flushSeq == 0 || e.tick%uint64(snapEvery) == 0
	haveState := e.flushSeq > 0 || len(e.announced) > 0
	flushOwn := haveState && (changed || snapshotDue)
	var d *Digest
	entries := 0
	if flushOwn {
		e.flushSeq++
		d = &Digest{Origin: e.cfg.AID, Seq: e.flushSeq, IssuedAt: now}
		if snapshotDue {
			d.Kind = DigestSnapshot
			d.Entries = make([]DigestEntry, 0, len(e.announced))
			for id, exp := range e.announced {
				d.Entries = append(d.Entries, DigestEntry{EphID: id, ExpTime: exp})
			}
			e.stats.SnapshotsSent++
		} else {
			d.Kind = DigestDelta
			d.Entries = added
			d.Removed = removed
			e.stats.DeltasSent++
		}
		entries = len(d.Entries) + len(d.Removed)
		e.lastFlushed = make(map[ephid.EphID]uint32, len(e.announced))
		for id, exp := range e.announced {
			e.lastFlushed[id] = exp
		}
		e.stats.DigestsSent++
		e.stats.RemovalsAnnounced += uint64(len(d.Removed))
	} else if haveState {
		e.stats.FlushesSkippedNoChange++
	}
	mode := e.mode
	outbox := e.outbox
	e.outbox = nil
	type peerDst struct {
		aid ephid.AID
		ep  ephid.EphID
	}
	dsts := make([]peerDst, 0, len(e.peers))
	for aid, p := range e.peers {
		if p.registered() && (mode != ModeRelay || p.neighbor) {
			dsts = append(dsts, peerDst{aid, p.ep})
		}
	}
	e.mu.Unlock()

	if d == nil && len(outbox) == 0 {
		return 0
	}
	sort.Slice(dsts, func(i, j int) bool { return dsts[i].aid < dsts[j].aid })
	var ownRaw []byte
	if d != nil {
		sortDigest(d)
		d.Sign(e.cfg.Signer)
		ownRaw = d.Encode()
	}
	var msgs, batches, bytesSent, failures uint64
	if mode == ModeRelay {
		for _, p := range dsts {
			raws := make([][]byte, 0, len(outbox)+1)
			if ownRaw != nil {
				raws = append(raws, ownRaw)
			}
			for _, it := range outbox {
				// Never hand an origin its own digest back, and never
				// echo a digest to the peer it was learned from — the
				// two rules that keep a cycle-free steady state on any
				// overlay shape.
				if it.origin == p.aid || it.from == p.aid {
					continue
				}
				raws = append(raws, it.raw)
			}
			if len(raws) == 0 {
				continue
			}
			payload := append([]byte{MsgDigestBatch}, EncodeDigestBatch(raws)...)
			if err := e.sendTo(wire.Endpoint{AID: p.aid, EphID: p.ep}, payload); err != nil {
				failures++
				continue
			}
			msgs++
			batches++
			bytesSent += uint64(len(payload))
		}
	} else if ownRaw != nil {
		payload := append([]byte{MsgDigest}, ownRaw...)
		for _, p := range dsts {
			if err := e.sendTo(wire.Endpoint{AID: p.aid, EphID: p.ep}, payload); err != nil {
				failures++
				continue
			}
			msgs++
			bytesSent += uint64(len(payload))
		}
	}
	e.mu.Lock()
	e.stats.MessagesSent += msgs
	e.stats.RelayBatchesSent += batches
	e.stats.DigestBytesSent += bytesSent
	e.stats.SendFailures += failures
	e.mu.Unlock()
	if d != nil {
		e.emit(Event{Kind: "digest-flush", Entries: entries, SendFailures: int(failures)})
	}
	return entries
}

// HandleDigest verifies a digest received from peer `from` and applies
// it: a snapshot installs on top of any older state; a delta installs
// only when it extends the applied chain by exactly one (seq =
// applied+1). A delta past a gap is not installed — the receiver counts
// the gap and asks the origin for a snapshot (rate-limited, and only
// of a registered origin; the periodic anti-entropy snapshot repairs it
// regardless). Replays and already-known seqs are dropped before the
// signature check: suppression by (origin, seq) high-water marks is
// safe because those marks only ever advanced on verified digests, and
// it is what makes relay fan-in affordable. In ModeRelay every *new*
// verified (origin, seq) is queued for forwarding at the next flush
// tick, whether or not it was installable locally. Entries already
// expired are skipped — expiry already stops those frames, and
// installing them would only grow the list until the next GC.
func (e *Engine) HandleDigest(from ephid.AID, raw []byte) error {
	now := e.cfg.Now()
	d, err := DecodeDigest(raw)
	if err != nil {
		e.mu.Lock()
		e.stats.DigestsInvalid++
		e.mu.Unlock()
		return err
	}
	e.mu.Lock()
	if d.Origin == e.cfg.AID {
		e.stats.DigestsStale++
		e.mu.Unlock()
		return nil
	}
	var applied, queued uint64
	if p := e.peers[d.Origin]; p != nil {
		applied, queued = p.seq, p.relayHW
	}
	if d.Seq <= applied && (e.mode != ModeRelay || d.Seq <= queued) {
		e.stats.DigestsStale++
		e.mu.Unlock()
		return nil
	}
	e.mu.Unlock()

	if err := d.Verify(e.cfg.Trust, now); err != nil {
		e.mu.Lock()
		e.stats.DigestsInvalid++
		e.mu.Unlock()
		return err
	}

	e.mu.Lock()
	p := e.peer(d.Origin)
	if e.mode == ModeRelay && d.Seq > p.relayHW {
		p.relayHW = d.Seq
		e.outbox = append(e.outbox, relayItem{
			origin: d.Origin, from: from, raw: append([]byte(nil), raw...)})
		e.stats.DigestsRelayed++
	}
	switch {
	case d.Seq <= p.seq:
		e.stats.DigestsStale++
		e.mu.Unlock()
		return nil
	case d.Kind == DigestDelta && d.Seq != p.seq+1:
		// Chain broken: seqs p.seq+1 .. d.Seq-1 are missing. Deltas
		// are not buffered — the snapshot path repairs wholesale.
		e.stats.SeqGaps++
		e.mu.Unlock()
		e.maybeRequestSnapshot(d.Origin, now)
		return nil
	}
	p.seq = d.Seq
	e.stats.DigestsReceived++
	sinks := e.sinks
	e.mu.Unlock()

	installed := 0
	for _, en := range d.Entries {
		if int64(en.ExpTime) < now {
			e.mu.Lock()
			e.stats.EntriesSkippedExpired++
			e.mu.Unlock()
			continue
		}
		for _, s := range sinks {
			s.ApplyRemote(en.EphID, d.Origin, en.ExpTime)
		}
		installed++
	}
	// d.Removed needs no action: remote revocation lists reap expired
	// entries with their own GC, which is the only way entries leave
	// the origin's announced set in the first place.
	e.mu.Lock()
	e.stats.EntriesInstalled += uint64(installed)
	e.mu.Unlock()
	e.emit(Event{Kind: "digest-install", Peer: d.Origin, Entries: installed})
	return nil
}

// handleDigestBatch unpacks a relay batch and runs every element
// through the ordinary digest path — verification included, so a relay
// can drop, delay or duplicate digests but never alter or forge one.
func (e *Engine) handleDigestBatch(from ephid.AID, body []byte) error {
	raws, err := DecodeDigestBatch(body)
	if err != nil {
		e.mu.Lock()
		e.stats.DigestsInvalid++
		e.mu.Unlock()
		return err
	}
	for _, raw := range raws {
		_ = e.HandleDigest(from, raw) // per-element errors are counted inside
	}
	return nil
}

// maybeRequestSnapshot unicasts a MsgSnapshotRequest to origin if its
// agent endpoint is known and the per-origin rate limit allows.
func (e *Engine) maybeRequestSnapshot(origin ephid.AID, now int64) {
	e.mu.Lock()
	p := e.peers[origin]
	if !p.registered() || now < p.snapReqAt+snapshotRequestSpacing {
		e.mu.Unlock()
		return
	}
	p.snapReqAt = now
	ep := p.ep
	e.stats.SnapshotRequestsSent++
	e.mu.Unlock()
	payload := append([]byte{MsgSnapshotRequest}, EncodeSnapshotRequest(origin)...)
	if err := e.sendTo(wire.Endpoint{AID: origin, EphID: ep}, payload); err != nil {
		e.mu.Lock()
		e.stats.SendFailures++
		e.mu.Unlock()
	}
}

// handleSnapshotRequest serves a unicast snapshot to a peer whose delta
// chain from us broke. The snapshot reuses seq flushSeq over the
// lastFlushed set — the state every receiver at flushSeq already has —
// so serving one never advances the seq and cannot open gaps at other
// receivers. Only registered peers are served, at most once per
// snapshotServeSpacing each, and only at their registered agent
// endpoint: the requester's endpoint is the frame's claim, so one that
// is not a registered peer's must cost neither state nor a signature.
func (e *Engine) handleSnapshotRequest(src wire.Endpoint, body []byte) {
	origin, err := DecodeSnapshotRequest(body)
	if err != nil || origin != e.cfg.AID {
		return
	}
	now := e.cfg.Now()
	e.mu.Lock()
	p := e.peers[src.AID]
	if e.flushSeq == 0 || !p.registered() || src.EphID != p.ep || now < p.servedAt+snapshotServeSpacing {
		e.mu.Unlock()
		return
	}
	p.servedAt = now
	dst := wire.Endpoint{AID: src.AID, EphID: p.ep}
	d := &Digest{Origin: e.cfg.AID, Seq: e.flushSeq, IssuedAt: now, Kind: DigestSnapshot,
		Entries: make([]DigestEntry, 0, len(e.lastFlushed))}
	for id, exp := range e.lastFlushed {
		d.Entries = append(d.Entries, DigestEntry{EphID: id, ExpTime: exp})
	}
	e.stats.SnapshotRequestsServed++
	e.mu.Unlock()
	sortDigest(d)
	d.Sign(e.cfg.Signer)
	payload := append([]byte{MsgDigest}, d.Encode()...)
	if err := e.sendTo(dst, payload); err != nil {
		e.mu.Lock()
		e.stats.SendFailures++
		e.mu.Unlock()
		return
	}
	e.mu.Lock()
	e.stats.MessagesSent++
	e.stats.DigestBytesSent += uint64(len(payload))
	e.mu.Unlock()
}

// HandleMessage is the ProtoAcct demux the facade mounts on the agent's
// host stack: src is the frame's source endpoint (used to answer), and
// payload is the full ProtoAcct payload including the kind byte.
// Unanswerable or inauthentic messages are dropped silently, matching
// the Figure 5 aborts.
func (e *Engine) HandleMessage(src wire.Endpoint, payload []byte) {
	if len(payload) < 1 {
		return
	}
	kind, body := payload[0], payload[1:]
	switch kind {
	case MsgComplaint:
		// The first 8 bytes are the host's complaint sequence number,
		// echoed in the acknowledgment so the host can correlate acks
		// with complaints (receipts from different offender ASes arrive
		// in arbitrary order).
		if len(body) < 8 {
			return
		}
		// Copied: the ack closure outlives this frame's buffer when the
		// receipt arrives asynchronously.
		seq := append([]byte(nil), body[:8]...)
		c, err := DecodeComplaint(body[8:])
		if err != nil {
			return
		}
		e.emit(Event{Kind: "complaint", Peer: src.AID})
		ack := func(r *Receipt) {
			out := make([]byte, 0, 10+ReceiptSize)
			out = append(out, MsgComplaintAck)
			out = append(out, seq...)
			if r == nil {
				out = append(out, 0)
			} else {
				out = append(out, 1)
				out = append(out, r.Encode()...)
			}
			_ = e.sendTo(src, out)
		}
		err = e.HandleComplaint(c, func(r *Receipt, err error) {
			if err != nil {
				ack(nil)
				return
			}
			ack(r)
		})
		if err != nil {
			// Rejected before any request left: close the complaint now.
			ack(nil)
		}
	case MsgShutoffRequest:
		r, err := e.HandleShutoffRequest(body)
		if err != nil || r == nil {
			return
		}
		_ = e.sendTo(src, append([]byte{MsgReceipt}, r.Encode()...))
	case MsgReceipt:
		_ = e.HandleReceipt(body)
	case MsgDigest:
		_ = e.HandleDigest(src.AID, body)
	case MsgDigestBatch:
		_ = e.handleDigestBatch(src.AID, body)
	case MsgSnapshotRequest:
		e.handleSnapshotRequest(src, body)
	}
}
