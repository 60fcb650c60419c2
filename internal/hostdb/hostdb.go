// Package hostdb implements the host information database — host_info
// in the paper — that every infrastructure entity of an AS keeps
// (Figure 2: "the entities store the information in their database").
//
// It maps a host's HID to the symmetric keys the host shares with the AS
// and to the host's standing (active or revoked). Border routers consult
// it on every outgoing packet to fetch the MAC key (Figure 4), so reads
// must not contend with other forwarding workers, and the control plane
// registers, revokes and reaps hosts by the million, so a write must not
// copy what it does not change. Each shard is one flat open-addressed
// table behind an atomic pointer; a slot is two atomic words, HID and
// standing in one and a pointer to the immutable Entry in the other.
// Readers take no lock. Writers serialize on the shard's mutex and write
// in place — entry pointer first, slot word last — so an entry is seen
// whole or not at all. Delete and GC leave tombstones for later inserts
// to reuse; only an insert that would take the used slots past half
// builds a new table. DESIGN.md §6 has the argument.
package hostdb

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"apna/internal/crypto"
	"apna/internal/ephid"
)

// Status is a host's standing with its AS.
type Status uint8

const (
	// StatusActive means the host may communicate.
	StatusActive Status = iota
	// StatusRevoked means the AS has invalidated the HID — the
	// escalation step of the paper's revocation management
	// (Section VIII-G2): all EphIDs of a revoked HID are implicitly
	// invalid.
	StatusRevoked
)

// Errors returned by the database.
var (
	ErrUnknownHost = errors.New("hostdb: unknown HID")
	ErrRevoked     = errors.New("hostdb: HID revoked")
)

// Entry is the per-host record. Entries handed to Put are copied;
// entries inside the database are immutable once published.
type Entry struct {
	HID ephid.HID
	// Keys are the symmetric keys shared between the host and the AS
	// (kHA), established during bootstrap.
	Keys crypto.HostASKeys
	// HostPub is the host's long-term public key learned during
	// authentication (K+H).
	HostPub []byte
	// Status is the host's standing.
	Status Status
	// Strikes counts shutoff incidents against the host's EphIDs,
	// feeding the CAS-style escalation policy (Section VIII-G2).
	Strikes int
	// RegisteredAt is the bootstrap time in Unix seconds.
	RegisteredAt int64
	// RevokedAt is the Unix time the host was revoked (via RevokeAt), 0
	// if never revoked or revoked without a timestamp. GC uses it to
	// reap dead entries once no EphID of the host can still be alive.
	RevokedAt int64
}

// DefaultShardCount is the shard count New uses. Larger populations
// want more shards — writer throughput under churn scales with the
// shard count because mutations serialize per shard — so NewSharded
// lets callers size the table to the expected host population.
const DefaultShardCount = 64

// MaxShardCount bounds NewSharded: beyond this the fixed per-shard
// overhead dominates any contention win.
const MaxShardCount = 1 << 16

// ErrBadShardCount reports an invalid NewSharded argument. The count
// must be a power of two so shardFor can mask instead of divide on the
// per-packet lookup path.
var ErrBadShardCount = errors.New("hostdb: shard count must be a power of two in [1, 65536]")

// Slot words: a HID in the high half, these flags in the low. 0 is a
// slot never used, which ends a probe chain; slotUsed alone is a
// tombstone, which does not.
const (
	slotUsed    = 1 << iota // the slot has held an entry
	slotLive                // it holds one now, for the HID in the high half
	slotRevoked             // whose Status is StatusRevoked
)

type slot struct {
	w atomic.Uint64
	e atomic.Pointer[Entry]
}

// table is one shard's slots, a power of two of them. used counts those
// whose word is not 0 and is the writer's alone.
type table struct {
	slots []slot
	used  int
}

// newTable makes room for live entries at a quarter load, so that it
// takes as many inserts again before the next rebuild.
func newTable(live int) *table {
	n := 8
	for n < 4*live {
		n *= 2
	}
	return &table{slots: make([]slot, n)}
}

func wordFor(e *Entry) uint64 {
	w := uint64(e.HID)<<32 | slotUsed | slotLive
	if e.Status == StatusRevoked {
		w |= slotRevoked
	}
	return w
}

type shard struct {
	mu   sync.Mutex // serializes writers only
	t    atomic.Pointer[table]
	live atomic.Int64
}

// DB is the sharded host database. The zero value is not usable; call
// New or NewSharded.
type DB struct {
	shards []shard
	mask   uint32
}

// New returns an empty database with DefaultShardCount shards.
func New() *DB {
	db, err := NewSharded(DefaultShardCount)
	if err != nil {
		panic(err) // DefaultShardCount is a valid power of two
	}
	return db
}

// NewSharded returns an empty database with the given shard count,
// which must be a power of two in [1, MaxShardCount]. Size it to the
// expected population: one shard per few thousand hosts keeps writer
// contention flat as the host count grows.
func NewSharded(count int) (*DB, error) {
	if count <= 0 || count > MaxShardCount || count&(count-1) != 0 {
		return nil, fmt.Errorf("%w: %d", ErrBadShardCount, count)
	}
	db := &DB{shards: make([]shard, count), mask: uint32(count - 1)}
	for i := range db.shards {
		db.shards[i].t.Store(newTable(0))
	}
	return db, nil
}

// ShardCount reports how many shards the database was built with.
func (db *DB) ShardCount() int { return len(db.shards) }

func (db *DB) shardFor(hid ephid.HID) *shard {
	return &db.shards[uint32(hid)&db.mask]
}

// Probe is a lookup split in two, so that a caller with a batch of HIDs
// can overlap their cache misses: Locate hashes and loads the home slot
// without branching on what it finds; Valid and MACKey compare, walk the
// chain and follow the entry pointer. Locate a batch before resolving it.
type Probe struct {
	t   *table
	hid ephid.HID
	i   uint32 // the home slot
	w   uint64 // and its word, as Locate loaded it
}

// Locate starts a lookup of hid. Lock-free.
//
//apna:hotpath
func (db *DB) Locate(hid ephid.HID) Probe {
	t := db.shardFor(hid).t.Load()
	i := hid.Hash() & uint32(len(t.slots)-1)
	return Probe{t: t, hid: hid, i: i, w: t.slots[i].w.Load()}
}

// find walks the probe chain to hid's live slot and returns it with its
// word as matched, or nil and 0.
func (p Probe) find() (*slot, uint64) {
	live := uint64(p.hid)<<32 | slotUsed | slotLive
	for i, w := p.i, p.w; w != 0; w = p.t.slots[i].w.Load() {
		if w&^slotRevoked == live {
			return &p.t.slots[i], w
		}
		i = (i + 1) & uint32(len(p.t.slots)-1)
	}
	return nil, 0
}

// entry resolves the probe to hid's published entry. Between the slot
// word and the pointer a writer may have deleted the host and reused the
// slot, so the entry has the last word on whose it is: a mismatch means
// hid was deleted during the call. With active set a revoked host's
// entry is an error too.
func (p Probe) entry(active bool) (*Entry, error) {
	s, _ := p.find()
	if s == nil {
		return nil, ErrUnknownHost
	}
	e := s.e.Load()
	if e == nil || e.HID != p.hid {
		return nil, ErrUnknownHost
	}
	if active && e.Status == StatusRevoked {
		return nil, ErrRevoked
	}
	return e, nil
}

// Valid reports whether the located HID is registered and not revoked.
// The slot word answers; the entry is not touched.
//
//apna:hotpath
func (p Probe) Valid() bool {
	_, w := p.find()
	return w&(slotLive|slotRevoked) == slotLive
}

// MACKey returns the located host's per-packet MAC key, as DB.MACKey.
//
//apna:hotpath
func (p Probe) MACKey() ([crypto.SymKeySize]byte, error) {
	e, err := p.entry(true)
	if err != nil {
		return [crypto.SymKeySize]byte{}, err
	}
	return e.Keys.MAC, nil
}

// deepCopy returns a value copy whose HostPub does not alias the
// original: published entries are immutable and must never be
// reachable through a caller-held slice.
func deepCopy(e Entry) Entry {
	e.HostPub = append([]byte(nil), e.HostPub...)
	return e
}

// free returns the slot an insert of hid takes: the first slot on its
// chain that holds no entry, tombstone or never used.
func (t *table) free(hid ephid.HID) *slot {
	for i := hid.Hash(); ; i++ {
		if sl := &t.slots[i&uint32(len(t.slots)-1)]; sl.w.Load()&slotLive == 0 {
			return sl
		}
	}
}

// put publishes e, the database's own copy, in place: entry pointer
// first, slot word last. Only an insert that would take the used slots
// past half builds a new table, published once it holds e too. The
// caller holds s.mu.
func (db *DB) put(s *shard, e *Entry) {
	t := s.t.Load()
	sl, _ := db.Locate(e.HID).find()
	if sl == nil {
		s.live.Add(1)
		if sl = t.free(e.HID); sl.w.Load() == 0 && (t.used+1)*2 > len(t.slots) {
			nt := newTable(int(s.live.Load()))
			for i := range t.slots {
				if old := &t.slots[i]; old.w.Load()&slotLive != 0 {
					nt.fill(nt.free(ephid.HID(old.w.Load()>>32)), old.e.Load())
				}
			}
			nt.fill(nt.free(e.HID), e)
			s.t.Store(nt)
			return
		}
	}
	t.fill(sl, e)
}

// fill stores e in sl, a slot of t.
func (t *table) fill(sl *slot, e *Entry) {
	if sl.w.Load() == 0 {
		t.used++
	}
	sl.e.Store(e)
	sl.w.Store(wordFor(e))
}

// kill turns a live slot into a tombstone. The caller holds s.mu.
func (s *shard) kill(sl *slot) {
	sl.w.Store(slotUsed)
	sl.e.Store(nil)
	s.live.Add(-1)
}

// Put inserts or replaces the entry for a host.
func (db *DB) Put(e Entry) {
	s := db.shardFor(e.HID)
	s.mu.Lock()
	defer s.mu.Unlock()
	e = deepCopy(e)
	db.put(s, &e)
}

// PutBatch inserts or replaces many entries — the bootstrap path for
// experiments that register thousands of hosts.
func (db *DB) PutBatch(entries []Entry) {
	for i := range entries {
		db.Put(entries[i])
	}
}

// Get returns a copy of the entry for hid. The copy is deep (HostPub
// included): published entries are immutable and must not be reachable
// through a caller-held slice.
func (db *DB) Get(hid ephid.HID) (Entry, error) {
	e, err := db.Locate(hid).entry(false)
	if err != nil {
		return Entry{}, err
	}
	return deepCopy(*e), nil
}

// MACKey returns the per-packet MAC key for an active host. It is the
// border router's per-packet lookup: unknown and revoked HIDs fail,
// which is exactly the "HID is valid" check of Figure 4. The lookup is
// lock-free.
//
//apna:hotpath
func (db *DB) MACKey(hid ephid.HID) ([crypto.SymKeySize]byte, error) {
	return db.Locate(hid).MACKey()
}

// EncKey returns the control-message encryption key for an active host
// (used by the MS to decrypt EphID requests, Figure 3). Lock-free.
//
//apna:hotpath
func (db *DB) EncKey(hid ephid.HID) ([crypto.SymKeySize]byte, error) {
	e, err := db.Locate(hid).entry(true)
	if err != nil {
		return [crypto.SymKeySize]byte{}, err
	}
	return e.Keys.Enc, nil
}

// Valid reports whether hid is registered and not revoked. Lock-free.
//
//apna:hotpath
func (db *DB) Valid(hid ephid.HID) bool { return db.Locate(hid).Valid() }

// Revoke marks a host revoked. Unknown HIDs are ignored. Entries
// revoked through this path carry no timestamp and are never reaped by
// GC; use RevokeAt when the revocation time is known.
func (db *DB) Revoke(hid ephid.HID) { db.RevokeAt(hid, 0) }

// RevokeAt marks a host revoked at the given Unix time, making the
// entry eligible for GC once the retention window passes. Unknown HIDs
// are ignored. Re-revoking keeps the earliest recorded time.
func (db *DB) RevokeAt(hid ephid.HID, nowUnix int64) {
	s := db.shardFor(hid)
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, err := db.Locate(hid).entry(false); err == nil {
		next := *e
		next.Status = StatusRevoked
		if next.RevokedAt == 0 {
			next.RevokedAt = nowUnix
		}
		db.put(s, &next)
	}
}

// GC reaps revoked entries whose revocation is older than retention
// seconds, returning how many were removed. A revoked HID only needs
// its entry while one of its EphIDs could still be alive — the entry
// is what distinguishes "revoked" from "unknown", and both fail every
// data-plane check — so retention is typically the AS's maximum EphID
// lifetime (Section VIII-G2's revocation-management argument applied
// to host_info). Entries revoked without a timestamp (RevokedAt 0)
// are kept forever. Reaped slots become tombstones; nothing is copied.
func (db *DB) GC(nowUnix, retention int64) int {
	reaped := 0
	for i := range db.shards {
		s := &db.shards[i]
		s.mu.Lock()
		for t, j := s.t.Load(), 0; j < len(t.slots); j++ {
			sl := &t.slots[j]
			if sl.w.Load()&slotRevoked == 0 {
				continue
			}
			if e := sl.e.Load(); e.RevokedAt > 0 && e.RevokedAt+retention <= nowUnix {
				s.kill(sl)
				reaped++
			}
		}
		s.mu.Unlock()
	}
	return reaped
}

// AddStrike increments and returns the host's shutoff-strike counter.
func (db *DB) AddStrike(hid ephid.HID) (int, error) {
	s := db.shardFor(hid)
	s.mu.Lock()
	defer s.mu.Unlock()
	e, err := db.Locate(hid).entry(false)
	if err != nil {
		return 0, err
	}
	next := *e
	next.Strikes++
	db.put(s, &next)
	return next.Strikes, nil
}

// Delete removes a host entirely (used when an AS reassigns a HID,
// Section VI-A "identity minting").
func (db *DB) Delete(hid ephid.HID) {
	s := db.shardFor(hid)
	s.mu.Lock()
	defer s.mu.Unlock()
	if sl, _ := db.Locate(hid).find(); sl != nil {
		s.kill(sl)
	}
}

// Len returns the number of registered hosts.
func (db *DB) Len() int {
	n := 0
	for i := range db.shards {
		n += int(db.shards[i].live.Load())
	}
	return n
}

// Range calls fn for every entry (deep copy, like Get) until fn
// returns false. It takes no lock: an entry in the database for the whole
// call is visited once, one put or deleted meanwhile may or may not be.
func (db *DB) Range(fn func(Entry) bool) {
	for i := range db.shards {
		for t, j := db.shards[i].t.Load(), 0; j < len(t.slots); j++ {
			if t.slots[j].w.Load()&slotLive == 0 {
				continue
			}
			if e := t.slots[j].e.Load(); e != nil && !fn(deepCopy(*e)) {
				return
			}
		}
	}
}
