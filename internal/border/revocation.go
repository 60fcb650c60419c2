package border

import (
	"encoding/binary"
	"errors"
	"hash/maphash"
	"sync"
	"sync/atomic"

	"apna/internal/crypto"
	"apna/internal/ephid"
)

// revEntry is what slot i of a revTable holds beside its tag: the EphID as
// two words, the AS that announced it revoked (0 in the local list), the
// expiry. Writers fill entries of the table readers are probing, so every
// field is atomic.
type revEntry struct {
	lo, hi atomic.Uint64
	origin atomic.Uint32
	exp    atomic.Uint32
}

// revTable is a flat open-addressed table, linear probing, never more
// than half full, kept as two parallel arrays. A probe walks tags alone
// and reads an entry only where the tag matches: most packets are on no
// list, and their lookup touches 4 bytes of a dense array instead of a
// 32-byte slot of one eight times its size. A tag is stored after its
// entry and publishes it. Slots only go from empty to full, so a chain a
// reader is on cannot break under it; removal is GC's rebuild. seed keys
// the hash: EphIDs are ciphertext and spread by their own bytes, but a
// peer AS picks the bytes of the digests it signs and could fill one
// chain.
type revTable struct {
	seed    maphash.Seed
	tags    []atomic.Uint32 // a power of two; 0: empty, ends a probe chain; else the hash's high bits with bit 0 set
	entries []revEntry      // as long as tags
}

func ephidWords(e *ephid.EphID) (lo, hi uint64) {
	return binary.LittleEndian.Uint64(e[:8]), binary.LittleEndian.Uint64(e[8:])
}

// rebuilt returns an unpublished table with room for entries at a
// quarter load that holds t's entries not expired by nowUnix.
func (t *revTable) rebuilt(entries int, nowUnix int64) *revTable {
	n := 16
	for n < 4*entries {
		n *= 2
	}
	nt := &revTable{seed: maphash.MakeSeed(), tags: make([]atomic.Uint32, n), entries: make([]revEntry, n)}
	for i := 0; t != nil && i < len(t.tags); i++ {
		s := &t.entries[i]
		if exp := s.exp.Load(); t.tags[i].Load() != 0 && int64(exp) >= nowUnix {
			nt.put(s.ephID(), s.origin.Load(), exp)
		}
	}
	return nt
}

func (s *revEntry) ephID() (e ephid.EphID) {
	binary.LittleEndian.PutUint64(e[:8], s.lo.Load())
	binary.LittleEndian.PutUint64(e[8:], s.hi.Load())
	return e
}

// put fills the first empty slot of e's chain, entry first, tag last. The
// table has one; the caller knows (e, origin) is not in it, and is the
// only writer.
func (t *revTable) put(e ephid.EphID, origin, exp uint32) {
	h := maphash.Bytes(t.seed, e[:])
	mask := uint32(len(t.tags) - 1)
	i := uint32(h) & mask
	for t.tags[i].Load() != 0 {
		i = (i + 1) & mask
	}
	s := &t.entries[i]
	lo, hi := ephidWords(&e)
	s.lo.Store(lo)
	s.hi.Store(hi)
	s.origin.Store(origin)
	s.exp.Store(exp)
	t.tags[i].Store(uint32(h>>32) | 1)
}

// revList is the core of both revocation lists: one revTable behind an
// atomic pointer, probed lock-free per packet and written in place under
// mu by the control plane (revocation orders, digest installs). Only
// growth past half load and a GC with something to reap build a new one.
type revList struct {
	mu sync.Mutex // serializes writers
	t  atomic.Pointer[revTable]
	n  atomic.Int64
}

// revProbe is a lookup split in two, so that a pipeline with a chunk of
// EphIDs can overlap their cache misses: locate hashes and loads the home
// slot's tag without branching on it, find compares and walks the chain.
type revProbe struct {
	t   *revTable
	i   uint32 // the home slot
	tag uint32 // what an entry for the EphID carries
	cur uint32 // the home slot's tag, as locate loaded it
}

//apna:hotpath
func (l *revList) locate(e ephid.EphID) revProbe {
	t := l.t.Load()
	if t == nil {
		return revProbe{}
	}
	h := maphash.Bytes(t.seed, e[:])
	i := uint32(h) & uint32(len(t.tags)-1)
	return revProbe{t: t, i: i, tag: uint32(h>>32) | 1, cur: t.tags[i].Load()}
}

// find resolves the probe to the entry holding (e, origin) — or, with
// anyOrigin, e under whichever origin comes first — or nil. All origins
// of one EphID are on one chain: the hash does not cover the origin. A
// tag is 31 bits of the hash, so a match only says the entry beside it
// is worth reading: two EphIDs can share a tag, and every origin of one
// EphID carries the same tag, so the EphID and the origin are compared.
//
//apna:hotpath
func (p revProbe) find(e ephid.EphID, origin ephid.AID, anyOrigin bool) *revEntry {
	lo, hi := ephidWords(&e)
	for i, cur := p.i, p.cur; cur != 0; cur = p.t.tags[i].Load() {
		if cur == p.tag {
			s := &p.t.entries[i]
			if s.lo.Load() == lo && s.hi.Load() == hi && (anyOrigin || s.origin.Load() == uint32(origin)) {
				return s
			}
		}
		i = (i + 1) & uint32(len(p.t.tags)-1)
	}
	return nil
}

// insert adds (e, origin) or updates its expiry. Re-inserting an
// identical entry is a lock-free no-op — cumulative revocation digests
// re-install their whole contents every interval.
func (l *revList) insert(e ephid.EphID, origin ephid.AID, exp uint32) {
	if s := l.locate(e).find(e, origin, false); s != nil && s.exp.Load() == exp {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if s := l.locate(e).find(e, origin, false); s != nil {
		s.exp.Store(exp)
		return
	}
	t, n := l.t.Load(), int(l.n.Add(1))
	if t != nil && n*2 <= len(t.tags) {
		t.put(e, uint32(origin), exp)
		return
	}
	t = t.rebuilt(n, 0)
	t.put(e, uint32(origin), exp)
	l.t.Store(t)
}

// gc removes entries whose expiry precedes nowUnix, returning how many
// were removed. A list that loses nothing is left as it is.
func (l *revList) gc(nowUnix int64) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	t, removed := l.t.Load(), 0
	for i := 0; t != nil && i < len(t.tags); i++ {
		if t.tags[i].Load() != 0 && int64(t.entries[i].exp.Load()) < nowUnix {
			removed++
		}
	}
	if removed > 0 {
		l.t.Store(t.rebuilt(int(l.n.Add(int64(-removed))), nowUnix))
	}
	return removed
}

// RevocationList is the revoked_ids set border routers consult per
// packet (Figure 4). Entries carry the EphID's expiration time so that
// expired entries can be garbage collected: packets with expired EphIDs
// are dropped by the expiry check anyway, so keeping them on the list
// buys nothing (Section VIII-G2).
//
// The per-packet read path (Contains) is lock-free; see revList.
type RevocationList struct {
	m revList
}

// Insert adds an EphID with its expiration time.
func (l *RevocationList) Insert(e ephid.EphID, expTime uint32) { l.m.insert(e, 0, expTime) }

// Contains reports whether e is revoked. Lock-free.
//
//apna:hotpath
func (l *RevocationList) Contains(e ephid.EphID) bool {
	return l.m.locate(e).find(e, 0, false) != nil
}

// GC removes entries whose EphIDs have expired by nowUnix, returning
// how many were removed.
func (l *RevocationList) GC(nowUnix int64) int { return l.m.gc(nowUnix) }

// Len reports the number of revoked EphIDs currently tracked.
func (l *RevocationList) Len() int { return int(l.m.n.Load()) }

// RevocationOrder is the authenticated "revoke EphID_s" instruction the
// accountability agent sends to border routers (the MAC_kAS(revoke
// EphID_s) message of Figure 5).
type RevocationOrder struct {
	EphID   ephid.EphID
	ExpTime uint32
	MAC     [8]byte
}

// OrderSize is the wire size of a revocation order.
const OrderSize = ephid.Size + 4 + 8

const orderContext = "apna/v1/revoke"

// ErrBadOrder means a revocation order failed authentication.
var ErrBadOrder = errors.New("border: revocation order authentication failed")

// SignOrder builds an authenticated revocation order under the AS's
// infrastructure control key.
func SignOrder(secret *crypto.ASSecret, e ephid.EphID, expTime uint32) (*RevocationOrder, error) {
	c, err := crypto.NewCMAC(secret.InfraControlKey())
	if err != nil {
		return nil, err
	}
	o := &RevocationOrder{EphID: e, ExpTime: expTime}
	var exp [4]byte
	binary.BigEndian.PutUint32(exp[:], expTime)
	if err := c.SumTruncated(o.MAC[:], len(o.MAC), []byte(orderContext), e[:], exp[:]); err != nil {
		return nil, err
	}
	return o, nil
}

// Encode serializes the order.
func (o *RevocationOrder) Encode() []byte {
	buf := make([]byte, 0, OrderSize)
	buf = append(buf, o.EphID[:]...)
	buf = binary.BigEndian.AppendUint32(buf, o.ExpTime)
	return append(buf, o.MAC[:]...)
}

// DecodeOrder parses a serialized order (without verifying it).
func DecodeOrder(data []byte) (*RevocationOrder, error) {
	if len(data) != OrderSize {
		return nil, ErrBadOrder
	}
	var o RevocationOrder
	copy(o.EphID[:], data)
	o.ExpTime = binary.BigEndian.Uint32(data[ephid.Size:])
	copy(o.MAC[:], data[ephid.Size+4:])
	return &o, nil
}

// ctlVerifier verifies revocation orders; one per router, guarded by a
// mutex since orders are rare control-plane events.
type ctlVerifier struct {
	mu   sync.Mutex
	cmac *crypto.CMAC
}

func (v *ctlVerifier) init(key []byte) error {
	c, err := crypto.NewCMAC(key)
	if err != nil {
		return err
	}
	v.cmac = c
	return nil
}

func (v *ctlVerifier) verify(o *RevocationOrder) bool {
	var exp [4]byte
	binary.BigEndian.PutUint32(exp[:], o.ExpTime)
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.cmac.Verify(o.MAC[:], []byte(orderContext), o.EphID[:], exp[:])
}

// ApplyOrder verifies and applies a revocation order. Routers only
// accept orders authenticated with the AS's infrastructure key —
// "if !verifyMAC(kAS, ...) abort" in Figure 5.
func (r *Router) ApplyOrder(o *RevocationOrder) error {
	if !r.ctlCMAC.verify(o) {
		return ErrBadOrder
	}
	r.revoked.Insert(o.EphID, o.ExpTime)
	return nil
}

// Revoked exposes the revocation list (for GC scheduling and tests).
func (r *Router) Revoked() *RevocationList { return &r.revoked }

// RemoteRevocationList holds EphIDs revoked by *other* ASes, learned
// through the inter-domain accountability plane (verified receipts and
// revocation digests). An entry is scoped to the AS that announced it:
// only the issuing AS is authoritative for its EphIDs, so an entry
// announced by origin O applies solely to frames claiming O as their
// source AS. A rogue peer can blackhole identifiers only within its own
// number space, and cannot overwrite (or pre-empt) another AS's
// announcement of the same EphID bytes. Structure and concurrency
// discipline are RevocationList's (one shared revList core): Matches is
// lock-free and allocation-free, and re-installing an unchanged entry
// from a cumulative digest is a lock-free no-op.
type RemoteRevocationList struct {
	m revList
}

// Insert adds an EphID announced as revoked by origin, with its
// expiration time.
func (l *RemoteRevocationList) Insert(e ephid.EphID, origin ephid.AID, expTime uint32) {
	l.m.insert(e, origin, expTime)
}

// Matches reports whether e was announced revoked by srcAID — the
// per-packet ingress check: a frame is dropped only when the AS it
// claims as source has itself revoked the identifier. Lock-free.
//
//apna:hotpath
func (l *RemoteRevocationList) Matches(e ephid.EphID, srcAID ephid.AID) bool {
	return l.m.locate(e).find(e, srcAID, false) != nil
}

// Contains reports whether e was announced revoked by *any* origin —
// a diagnostics/test helper (the data plane uses Matches). Lock-free.
//
//apna:hotpath
func (l *RemoteRevocationList) Contains(e ephid.EphID) bool {
	return l.m.locate(e).find(e, 0, true) != nil
}

// GC removes entries whose EphIDs have expired by nowUnix, returning
// how many were removed.
func (l *RemoteRevocationList) GC(nowUnix int64) int { return l.m.gc(nowUnix) }

// Len reports the number of remote revocation entries tracked.
func (l *RemoteRevocationList) Len() int { return int(l.m.n.Load()) }

// ApplyRemote installs a remote revocation: an EphID that origin
// revoked, learned through the inter-domain accountability plane.
// Authentication happens one layer up — the accountability engine only
// installs entries from Ed25519-verified receipts and digests (keys
// resolved through the RPKI trust store), and origin must be the
// verified signer — so, unlike ApplyOrder, no per-entry MAC is needed
// here.
func (r *Router) ApplyRemote(e ephid.EphID, origin ephid.AID, expTime uint32) {
	r.remoteRevoked.Insert(e, origin, expTime)
}

// RemoteRevoked exposes the remote revocation list (for GC scheduling
// and tests).
func (r *Router) RemoteRevoked() *RemoteRevocationList { return &r.remoteRevoked }
