package border

import (
	"encoding/binary"

	"apna/internal/crypto"
	"apna/internal/ephid"
	"apna/internal/hostdb"
	"apna/internal/wire"
)

// chunkSize is how many frames a pipeline takes through one check before
// it starts the next. One frame's lookups depend on each other, so a frame
// walked alone through the checks waits out one cache miss after the
// other; the next frame's lookups depend on none of them. Each table
// therefore answers in two steps — locate hashes and loads the home slot,
// a second call compares and probes on — and each stage resolves what the
// stage before located and, for the frames that pass, locates in the next
// table: a chunk's misses overlap as wire.MACBatch's AES chains do.
const chunkSize = 64

// openCache memoizes successful EphID opens for one worker. EphID
// decryption is deterministic, so a hit replaces two AES operations by
// one compare — the amortization that makes the steady state per packet
// "one decryption, two table lookups, and one MAC verification"
// (Section V-B) or better when flows reuse EphIDs. It is direct-mapped
// on ciphertext bits: a miss overwrites whatever shared the entry.
// Expiry and revocation are deliberately NOT cached: both are re-checked
// per packet against the router's live state. Failed opens are never
// cached (a forger pays the full cryptographic cost every time and
// cannot poison or evict anything).
type openCache [openCacheSize]struct {
	e  ephid.EphID
	p  ephid.Payload
	ok bool // false: never filled (the all-zero EphID must not hit)
}

const openCacheSize = 4096

// admission is the front of both pipelines: a chunk's state and the
// checks egress runs on the source EphID and ingress on the destination
// EphID — open, expiry, the local revocation list. live lists, in frame
// order, the frames no check has dropped yet; every stage compacts it, so
// a frame reaches a check only after passing every earlier one and gets
// the verdict the reference (Router.EgressVerify, IngressVerify) gives it
// alone.
type admission struct {
	r     *Router
	opens openCache

	v      [chunkSize]Verdict
	ids    [chunkSize]ephid.EphID   // the EphID under check
	pl     [chunkSize]ephid.Payload // and what it opened to
	live   []uint8                  // a prefix of buf
	buf    [chunkSize]uint8
	probes [chunkSize]revProbe // by position in live, as hosts
	hosts  [chunkSize]hostdb.Probe
	// The open-cache misses, as Sealer.OpenBatch takes and answers them.
	miss    [chunkSize]uint8
	missIDs [chunkSize]ephid.EphID
	missPl  [chunkSize]ephid.Payload
	missOK  [chunkSize]bool
}

// admit starts a chunk. Malformed frames get their verdict; the others
// go on the live list with the EphID egress or ingress checks, opened —
// (HID, expTime) = Dec(kA, EphID) — from the cache or, all the misses
// together, through the cipher. Those that opened and have not expired
// stay, located in the local revocation list.
func (a *admission) admit(frames [][]byte, ingress bool) {
	a.live = a.buf[:0]
	m := 0
	for i, frame := range frames {
		if !wire.ValidFrame(frame) {
			a.v[i] = VerdictDropMalformed
			continue
		}
		a.v[i] = VerdictForward
		id := &a.ids[i]
		if *id = wire.FrameSrcEphID(frame); ingress {
			*id = wire.FrameDstEphID(frame)
		}
		a.live = append(a.live, uint8(i)) //apna:alloc-ok
		if c := &a.opens[binary.LittleEndian.Uint16(id[:])%openCacheSize]; c.ok && c.e == *id {
			a.pl[i] = c.p
			continue
		}
		a.miss[m], a.missIDs[m] = uint8(i), *id
		m++
	}
	a.r.sealer.OpenBatch(a.missIDs[:m], a.missPl[:m], a.missOK[:m])
	for j, i := range a.miss[:m] {
		if !a.missOK[j] {
			a.v[i] = VerdictDropBadEphID
			continue
		}
		a.pl[i] = a.missPl[j]
		c := &a.opens[binary.LittleEndian.Uint16(a.missIDs[j][:])%openCacheSize]
		c.e, c.p, c.ok = a.missIDs[j], a.missPl[j], true
	}
	now, n := a.r.now(), 0
	for _, i := range a.live {
		switch {
		case a.v[i] != VerdictForward:
		case a.pl[i].Expired(now):
			a.v[i] = VerdictDropExpired
		default:
			a.probes[n] = a.r.revoked.m.locate(a.ids[i])
			a.live[n] = i
			n++
		}
	}
	a.live = a.live[:n]
}

// cachedMAC is one host's packet-MAC key schedule. Entries are never
// rekeyed in place: a frame parked for the chunk's MAC stage keeps
// pointing at the schedule of the key it was admitted under.
type cachedMAC struct {
	key [crypto.SymKeySize]byte
	pm  wire.PacketMAC
}

// maxCachedMACs bounds an EgressPipeline's key-schedule cache the way
// openCache is bounded: hosts that left the AS would otherwise keep a
// key schedule for ever.
const maxCachedMACs = 1 << 16

// macCache maps HID to key schedule for one worker: a flat open-addressed
// table, never more than half full, that doubles until it holds
// maxCachedMACs schedules and is then emptied wholesale — cheaper than LRU
// bookkeeping, and refilling an entry is one key expansion.
type macCache struct {
	slots []macSlot // a power of two; m == nil marks an empty slot
	n     int
}

type macSlot struct {
	hid ephid.HID
	m   *cachedMAC
}

// slot walks hid's probe chain to its slot, or to the empty slot that
// ends the chain.
func (c *macCache) slot(hid ephid.HID) *macSlot {
	for i := hid.Hash(); ; i++ {
		if s := &c.slots[i&uint32(len(c.slots)-1)]; s.m == nil || s.hid == hid {
			return s
		}
	}
}

// put caches m as hid's schedule, replacing the one it has.
func (c *macCache) put(hid ephid.HID, m *cachedMAC) {
	s := c.slot(hid)
	if s.m == nil && (c.n+1)*2 > len(c.slots) {
		old := c.slots
		if c.n >= maxCachedMACs {
			clear(old)
			old = nil
		} else {
			c.slots = make([]macSlot, 2*len(old))
		}
		c.n = 0
		for _, o := range old {
			if o.m != nil {
				c.put(o.hid, o.m)
			}
		}
		s = c.slot(hid)
	}
	if s.m == nil {
		c.n++
	}
	*s = macSlot{hid, m}
}

// EgressPipeline is a per-worker egress fast path. The paper's DPDK
// prototype dedicates cores to forwarding (Section V-B2); the benchmark
// equivalent here is one EgressPipeline per core (internal/engine wires
// one per worker). Each pipeline caches the AES-CMAC key schedules of
// the hosts it has seen and the decrypted payloads of the EphIDs it has
// seen, so the steady state per packet is: one cached EphID compare (or
// one decrypt on miss), one revocation-list lookup, one host_info
// lookup — both lock-free — and one CMAC verification.
//
// A pipeline is not safe for concurrent use; create one per worker.
type EgressPipeline struct {
	admission
	macs  macCache
	batch wire.MACBatch
	one   [1][]byte // Process's chunk
	out   [1]Verdict
}

// NewEgressPipeline creates a worker pipeline for the router.
func (r *Router) NewEgressPipeline() *EgressPipeline {
	return &EgressPipeline{admission: admission{r: r}, macs: macCache{slots: make([]macSlot, 2*chunkSize)}}
}

// Process runs the outgoing-packet checks of Figure 4 (bottom) on one
// frame: a chunk of one.
//
//apna:hotpath
func (p *EgressPipeline) Process(frame []byte) Verdict {
	p.one[0] = frame
	return p.chunk(p.one[:], p.out[:0])[0]
}

// ProcessBatch runs the egress checks over a batch of frames of any
// length, appending one verdict per frame to dst and returning the
// extended slice. With cap(dst) >= len(dst)+len(frames) the call does
// not allocate. The batch is walked in chunks, each chunk stage by stage
// (see chunkSize) in the order of Router.EgressVerify, the packet MACs of
// the frames still standing verified all together at the end.
//
//apna:hotpath
func (p *EgressPipeline) ProcessBatch(frames [][]byte, dst []Verdict) []Verdict {
	for ; len(frames) > chunkSize; frames = frames[chunkSize:] {
		dst = p.chunk(frames[:chunkSize], dst)
	}
	return p.chunk(frames, dst)
}

func (p *EgressPipeline) chunk(frames [][]byte, dst []Verdict) []Verdict {
	p.admit(frames, false)

	// EphID not revoked; locate the HID in host_info.
	n := 0
	for j, i := range p.live {
		if p.probes[j].find(p.ids[i], 0, false) != nil {
			p.v[i] = VerdictDropRevoked
			continue
		}
		p.hosts[n] = p.r.db.Locate(p.pl[i].HID)
		p.live[n] = i
		n++
	}
	p.live = p.live[:n]

	// HID valid; fetch kHA and the schedule cached for it.
	p.batch.Reset(n)
	n = 0
	for j, i := range p.live {
		macKey, err := p.hosts[j].MACKey()
		if err != nil {
			p.v[i] = VerdictDropUnknownHost
			continue
		}
		hid := p.pl[i].HID
		m := p.macs.slot(hid).m
		if m == nil || m.key != macKey { //apna:coldpath
			m = &cachedMAC{key: macKey}
			if err := m.pm.Init(macKey[:]); err != nil {
				p.v[i] = VerdictDropBadMAC
				continue
			}
			p.macs.put(hid, m)
		}
		p.batch.Add(&m.pm, frames[i])
		p.live[n] = i
		n++
	}

	p.batch.Verify()
	for j, i := range p.live[:n] {
		if !p.batch.OK(j) {
			p.v[i] = VerdictDropBadMAC
		}
	}
	return append(dst, p.v[:len(frames)]...) //apna:alloc-ok
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
// packet is one cached compare, two revocation checks (local destination
// list plus the remote list fed by revocation digests) and one
// host_info check, all lock-free.
//
// A pipeline is not safe for concurrent use; create one per worker.
type IngressPipeline struct {
	admission
	one [1][]byte // Process's chunk
	out [1]IngressResult
}

// NewIngressPipeline creates a worker pipeline for the router.
func (r *Router) NewIngressPipeline() *IngressPipeline {
	return &IngressPipeline{admission: admission{r: r}}
}

// Process runs the incoming-packet checks on one frame — a chunk of
// one — returning the verdict and the destination HID on success.
//
//apna:hotpath
func (p *IngressPipeline) Process(frame []byte) (Verdict, ephid.HID) {
	p.one[0] = frame
	res := p.chunk(p.one[:], p.out[:0])[0]
	return res.Verdict, res.HID
}

// ProcessBatch runs the ingress checks over a batch of frames of any
// length, appending one result per frame to dst and returning the
// extended slice. With cap(dst) >= len(dst)+len(frames) the call does
// not allocate. Like the egress pipeline it walks the batch in chunks
// and each chunk stage by stage, in the order of Router.IngressVerify.
//
//apna:hotpath
func (p *IngressPipeline) ProcessBatch(frames [][]byte, dst []IngressResult) []IngressResult {
	for ; len(frames) > chunkSize; frames = frames[chunkSize:] {
		dst = p.chunk(frames[:chunkSize], dst)
	}
	return p.chunk(frames, dst)
}

func (p *IngressPipeline) chunk(frames [][]byte, dst []IngressResult) []IngressResult {
	p.admit(frames, true)

	// EphID not revoked; locate the source EphID in the remote list.
	n := 0
	for j, i := range p.live {
		if p.probes[j].find(p.ids[i], 0, false) != nil {
			p.v[i] = VerdictDropRevoked
			continue
		}
		p.probes[n] = p.r.remoteRevoked.m.locate(wire.FrameSrcEphID(frames[i]))
		p.live[n] = i
		n++
	}
	p.live = p.live[:n]

	// Source EphID not revoked by the AS the frame claims to come from;
	// locate the HID in host_info.
	n = 0
	for j, i := range p.live {
		if p.probes[j].find(wire.FrameSrcEphID(frames[i]), wire.FrameSrcAID(frames[i]), false) != nil {
			p.v[i] = VerdictDropRevokedRemote
			continue
		}
		p.hosts[n] = p.r.db.Locate(p.pl[i].HID)
		p.live[n] = i
		n++
	}

	// HID valid.
	for j, i := range p.live[:n] {
		if !p.hosts[j].Valid() {
			p.v[i] = VerdictDropUnknownHost
		}
	}
	for i := range frames {
		res := IngressResult{Verdict: p.v[i]}
		if res.Verdict == VerdictForward {
			res.HID = p.pl[i].HID
		}
		dst = append(dst, res) //apna:alloc-ok
	}
	return dst
}
