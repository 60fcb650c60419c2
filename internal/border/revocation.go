package border

import (
	"encoding/binary"
	"errors"
	"sync"
	"sync/atomic"

	"apna/internal/crypto"
	"apna/internal/ephid"
)

const revShards = 64

// cowShards is the shared core of both revocation lists: a fixed array
// of immutable expiry maps published through atomic pointers, read
// lock-free per packet and copy-on-written under one writer mutex by
// the rare control-plane mutations (revocation orders, digest
// installs, GC). Copying is per shard, so the cost of one insert is
// proportional to one shard's population.
type cowShards[K comparable] struct {
	mu     sync.Mutex // serializes writers
	shards [revShards]atomic.Pointer[map[K]uint32]
}

// snapshot returns shard i's current map (possibly nil). Lock-free.
func (c *cowShards[K]) snapshot(i int) map[K]uint32 {
	if m := c.shards[i].Load(); m != nil {
		return *m
	}
	return nil
}

// insert adds (k, v) to shard i. Re-inserting an identical entry is a
// lock-free no-op — cumulative revocation digests re-install their
// whole contents every interval, and the steady state must not pay a
// shard copy per already-present entry.
func (c *cowShards[K]) insert(i int, k K, v uint32) {
	if cur, ok := c.snapshot(i)[k]; ok && cur == v {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	old := c.snapshot(i)
	next := make(map[K]uint32, len(old)+1)
	for kk, vv := range old {
		next[kk] = vv
	}
	next[k] = v
	c.shards[i].Store(&next)
}

// gc removes entries whose values (expiry times) precede nowUnix,
// returning how many were removed.
func (c *cowShards[K]) gc(nowUnix int64) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for i := range c.shards {
		old := c.snapshot(i)
		removed := 0
		for _, exp := range old {
			if int64(exp) < nowUnix {
				removed++
			}
		}
		if removed == 0 {
			continue
		}
		next := make(map[K]uint32, len(old)-removed)
		for k, exp := range old {
			if int64(exp) >= nowUnix {
				next[k] = exp
			}
		}
		c.shards[i].Store(&next)
		n += removed
	}
	return n
}

// size reports the total entry count.
func (c *cowShards[K]) size() int {
	n := 0
	for i := range c.shards {
		n += len(c.snapshot(i))
	}
	return n
}

// RevocationList is the revoked_ids set border routers consult per
// packet (Figure 4). Entries carry the EphID's expiration time so that
// expired entries can be garbage collected: packets with expired EphIDs
// are dropped by the expiry check anyway, so keeping them on the list
// buys nothing (Section VIII-G2).
//
// The per-packet read path (Contains) is lock-free; see cowShards.
// Sharding by the EphID's first byte is uniform because EphIDs are
// ciphertext.
type RevocationList struct {
	m cowShards[ephid.EphID]
}

func revShardFor(e ephid.EphID) int { return int(e[0] % revShards) }

// Insert adds an EphID with its expiration time.
func (l *RevocationList) Insert(e ephid.EphID, expTime uint32) {
	l.m.insert(revShardFor(e), e, expTime)
}

// Contains reports whether e is revoked. Lock-free.
//
//apna:hotpath
func (l *RevocationList) Contains(e ephid.EphID) bool {
	_, ok := l.m.snapshot(revShardFor(e))[e]
	return ok
}

// GC removes entries whose EphIDs have expired by nowUnix, returning
// how many were removed.
func (l *RevocationList) GC(nowUnix int64) int { return l.m.gc(nowUnix) }

// Len reports the number of revoked EphIDs currently tracked.
func (l *RevocationList) Len() int { return l.m.size() }

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

// remoteKey scopes a remote revocation to the AS that announced it.
// Only the issuing AS is authoritative for its EphIDs, so an entry
// announced by origin O applies solely to frames claiming O as their
// source AS: a rogue peer can blackhole identifiers only within its
// own number space, and cannot overwrite (or pre-empt) another AS's
// announcement of the same EphID bytes.
type remoteKey struct {
	e      ephid.EphID
	origin ephid.AID
}

// RemoteRevocationList holds EphIDs revoked by *other* ASes, learned
// through the inter-domain accountability plane (verified receipts and
// revocation digests). Structure and concurrency discipline match
// RevocationList (one shared cowShards core), so the per-packet
// Matches lookup is lock-free and allocation-free, and re-installing
// an unchanged entry from a cumulative digest is a lock-free no-op.
type RemoteRevocationList struct {
	m cowShards[remoteKey]
}

// Insert adds an EphID announced as revoked by origin, with its
// expiration time.
func (l *RemoteRevocationList) Insert(e ephid.EphID, origin ephid.AID, expTime uint32) {
	l.m.insert(revShardFor(e), remoteKey{e: e, origin: origin}, expTime)
}

// Matches reports whether e was announced revoked by srcAID — the
// per-packet ingress check: a frame is dropped only when the AS it
// claims as source has itself revoked the identifier. Lock-free.
//
//apna:hotpath
func (l *RemoteRevocationList) Matches(e ephid.EphID, srcAID ephid.AID) bool {
	_, ok := l.m.snapshot(revShardFor(e))[remoteKey{e: e, origin: srcAID}]
	return ok
}

// Contains reports whether e was announced revoked by *any* origin —
// a diagnostics/test helper (the data plane uses Matches). It scans
// one shard.
//
//apna:hotpath
func (l *RemoteRevocationList) Contains(e ephid.EphID) bool {
	for k := range l.m.snapshot(revShardFor(e)) {
		if k.e == e {
			return true
		}
	}
	return false
}

// GC removes entries whose EphIDs have expired by nowUnix, returning
// how many were removed.
func (l *RemoteRevocationList) GC(nowUnix int64) int { return l.m.gc(nowUnix) }

// Len reports the number of remote revocation entries tracked.
func (l *RemoteRevocationList) Len() int { return l.m.size() }

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
