package border

import (
	"apna/internal/crypto"
	"apna/internal/ephid"
	"apna/internal/wire"
)

// openCache memoizes successful Sealer.Open results for one worker.
// EphID decryption is deterministic, so a hit replaces an AES decrypt
// plus a CBC-MAC verification with one map lookup — the amortization
// that makes the steady state per packet "one decryption, two table
// lookups, and one MAC verification" (Section V-B) or better when flows
// reuse EphIDs. Expiry and revocation are deliberately NOT cached: both
// are re-checked per packet against the router's live state, so a
// cached EphID can still be rejected the moment it expires or lands on
// the revocation list. Failed opens are never cached (a forger pays the
// full cryptographic cost every time and cannot poison the cache).
type openCache struct {
	m   map[ephid.EphID]ephid.Payload
	max int
}

const defaultOpenCacheSize = 4096

func newOpenCache() openCache {
	return openCache{m: make(map[ephid.EphID]ephid.Payload, defaultOpenCacheSize), max: defaultOpenCacheSize}
}

// open returns the payload for e, consulting the cache first.
func (c *openCache) open(s *ephid.Sealer, e ephid.EphID) (ephid.Payload, bool) {
	if p, ok := c.m[e]; ok {
		return p, true
	}
	p, err := s.Open(e)
	if err != nil {
		return ephid.Payload{}, false
	}
	if len(c.m) >= c.max {
		// Wholesale reset: cheaper and allocation-free compared to LRU
		// bookkeeping, and a full cache means EphID churn anyway.
		clear(c.m)
	}
	c.m[e] = p
	return p, true
}

// EgressPipeline is a per-worker egress fast path. The paper's DPDK
// prototype dedicates cores to forwarding (Section V-B2); the benchmark
// equivalent here is one EgressPipeline per core (internal/engine wires
// one per worker). Each pipeline caches the AES-CMAC key schedules of
// the hosts it has seen and the decrypted payloads of the EphIDs it has
// seen, so the steady state per packet is: one cached EphID lookup (or
// one decrypt on miss), one revocation-list lookup, one host_info
// lookup — both lock-free — and one CMAC verification.
//
// A pipeline is not safe for concurrent use; create one per worker.
type EgressPipeline struct {
	r     *Router
	macs  map[ephid.HID]*cachedMAC
	opens openCache

	// Scratch of ProcessBatch's second phase: the frames that passed
	// every check before the packet MAC, and where their verdicts go.
	batch   wire.MACBatch
	pending []int
}

// cachedMAC is one host's packet-MAC key schedule. Entries are never
// rekeyed in place: a frame parked for ProcessBatch's second phase keeps
// pointing at the schedule of the key it was admitted under.
type cachedMAC struct {
	key [crypto.SymKeySize]byte
	pm  wire.PacketMAC
}

// maxCachedMACs bounds EgressPipeline.macs the way openCache is
// bounded: hosts that left the AS would otherwise keep a key schedule
// for ever.
const maxCachedMACs = 1 << 16

// NewEgressPipeline creates a worker pipeline for the router.
func (r *Router) NewEgressPipeline() *EgressPipeline {
	return &EgressPipeline{
		r:     r,
		macs:  make(map[ephid.HID]*cachedMAC),
		opens: newOpenCache(),
	}
}

// Process runs the outgoing-packet checks of Figure 4 (bottom) on one
// frame.
//
//apna:hotpath
func (p *EgressPipeline) Process(frame []byte) Verdict {
	pm, v := p.admit(frame, p.r.now())
	if pm != nil && !pm.Verify(frame) {
		return VerdictDropBadMAC
	}
	return v
}

// admit runs every egress check that precedes the packet MAC, in the
// order of Figure 4. It returns the verdict and, when that is
// VerdictForward, the sender's key schedule: the frame is forwarded if
// its packet MAC verifies under it. The clock is a parameter so that
// batches read it once.
func (p *EgressPipeline) admit(frame []byte, now int64) (*wire.PacketMAC, Verdict) {
	r := p.r
	pl, ok := p.opens.open(r.sealer, wire.FrameSrcEphID(frame))
	if !ok {
		return nil, VerdictDropBadEphID
	}
	if pl.Expired(now) {
		return nil, VerdictDropExpired
	}
	if r.revoked.Contains(wire.FrameSrcEphID(frame)) {
		return nil, VerdictDropRevoked
	}
	macKey, err := r.db.MACKey(pl.HID)
	if err != nil {
		return nil, VerdictDropUnknownHost
	}
	entry, ok := p.macs[pl.HID]
	if !ok || entry.key != macKey { //apna:coldpath
		entry = &cachedMAC{key: macKey}
		if err := entry.pm.Init(macKey[:]); err != nil {
			return nil, VerdictDropBadMAC
		}
		if len(p.macs) >= maxCachedMACs {
			// Wholesale reset, as in openCache: refilling an entry is
			// one key expansion.
			clear(p.macs)
		}
		p.macs[pl.HID] = entry
	}
	return &entry.pm, VerdictForward
}

// ProcessBatch runs the egress checks over a batch of frames, appending
// one verdict per frame to dst and returning the extended slice. The
// batch amortizes the clock read, and the pipeline's EphID-open and
// CMAC key-schedule caches turn repeated senders within the batch into
// pure lookups. With cap(dst) >= len(dst)+len(frames) the call does not
// allocate.
//
// It works in two phases. The first runs, frame by frame, every check
// that precedes the packet MAC and settles the verdict of each frame
// that fails one. The second verifies the packet MACs of the frames
// still standing all together (wire.MACBatch) and turns the verdicts of
// those that fail into VerdictDropBadMAC. A frame therefore reaches the
// MAC only after every earlier check has passed, exactly as in Process,
// and gets the verdict Process would give it.
//
//apna:hotpath
func (p *EgressPipeline) ProcessBatch(frames [][]byte, dst []Verdict) []Verdict {
	now := p.r.now()
	p.batch.Reset(len(frames))
	p.pending = p.pending[:0]
	for _, frame := range frames {
		if !wire.ValidFrame(frame) {
			dst = append(dst, VerdictDropMalformed) //apna:alloc-ok
			continue
		}
		pm, v := p.admit(frame, now)
		if pm != nil {
			p.batch.Add(pm, frame)
			p.pending = append(p.pending, len(dst)) //apna:alloc-ok
		}
		dst = append(dst, v) //apna:alloc-ok
	}
	p.batch.Verify()
	for j, i := range p.pending {
		if !p.batch.OK(j) {
			dst[i] = VerdictDropBadMAC
		}
	}
	return dst
}

// IngressResult pairs an ingress verdict with the destination HID the
// frame decrypted to (valid only when the verdict is VerdictForward).
type IngressResult struct {
	Verdict Verdict
	HID     ephid.HID
}

// IngressPipeline is the per-worker ingress fast path: destination
// EphID decrypt+validate plus the host table lookup (Figure 4, top).
// Like EgressPipeline it caches EphID opens, so the steady state per
// packet is one cached lookup, two revocation checks (local destination
// list plus the remote list fed by revocation digests) and one
// host_info check, all lock-free.
//
// A pipeline is not safe for concurrent use; create one per worker.
type IngressPipeline struct {
	r     *Router
	opens openCache
}

// NewIngressPipeline creates a worker pipeline for the router.
func (r *Router) NewIngressPipeline() *IngressPipeline {
	return &IngressPipeline{r: r, opens: newOpenCache()}
}

// Process runs the incoming-packet checks on one frame, returning the
// verdict and the destination HID on success.
//
//apna:hotpath
func (p *IngressPipeline) Process(frame []byte) (Verdict, ephid.HID) {
	res := p.process(frame, p.r.now())
	return res.Verdict, res.HID
}

func (p *IngressPipeline) process(frame []byte, now int64) IngressResult {
	r := p.r
	pl, ok := p.opens.open(r.sealer, wire.FrameDstEphID(frame))
	if !ok {
		return IngressResult{Verdict: VerdictDropBadEphID}
	}
	if pl.Expired(now) {
		return IngressResult{Verdict: VerdictDropExpired}
	}
	if r.revoked.Contains(wire.FrameDstEphID(frame)) {
		return IngressResult{Verdict: VerdictDropRevoked}
	}
	if r.remoteRevoked.Matches(wire.FrameSrcEphID(frame), wire.FrameSrcAID(frame)) {
		return IngressResult{Verdict: VerdictDropRevokedRemote}
	}
	if !r.db.Valid(pl.HID) {
		return IngressResult{Verdict: VerdictDropUnknownHost}
	}
	return IngressResult{Verdict: VerdictForward, HID: pl.HID}
}

// ProcessBatch runs the ingress checks over a batch of frames, appending
// one result per frame to dst and returning the extended slice. With
// cap(dst) >= len(dst)+len(frames) the call does not allocate.
//
//apna:hotpath
func (p *IngressPipeline) ProcessBatch(frames [][]byte, dst []IngressResult) []IngressResult {
	now := p.r.now()
	for _, frame := range frames {
		if !wire.ValidFrame(frame) {
			dst = append(dst, IngressResult{Verdict: VerdictDropMalformed}) //apna:alloc-ok
			continue
		}
		dst = append(dst, p.process(frame, now)) //apna:alloc-ok
	}
	return dst
}
