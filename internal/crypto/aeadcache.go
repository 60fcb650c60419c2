package crypto

import "sync/atomic"

// aeadCacheBits sets an AEADCache's slot count. A full cache of 4096
// AES-GCM schedules holds 3.3 MiB of heap. On the population benchmark's
// shape (50 000 Zipf-popular hosts, 60 ticks) the MS's cache hits 72 %
// of requests at this size, 78 % at 16 384 slots and 80 % with no
// bound: most misses are a host's first request.
const (
	aeadCacheBits  = 12
	aeadCacheSlots = 1 << aeadCacheBits
)

// AEADCache keeps the AES-GCM key schedules of long-lived keys — the
// kHA keys hosts share with their AS — so that whoever holds many of
// them builds a schedule per key, not per message. It is a fixed array
// of slots indexed by a hash of the key owner's ID, so its memory is
// bounded by the slot count whatever the population. Each slot holds
// one immutable entry (ID, key, AEAD) that lookups read and misses
// replace with atomic loads and stores: no lock, and safe for
// concurrent use. A lookup hits only when both the ID and the key are
// equal, so an owner that comes back under a new key gets a new
// schedule, never the old one.
//
// An entry can be evicted and rebuilt at any time, which restarts its
// AEAD's nonce counter: messages under a cached AEAD must be sealed
// with SealOnce, never Seal.
type AEADCache struct {
	direction byte
	slots     [aeadCacheSlots]atomic.Pointer[aeadEntry]
}

// aeadEntry is one cached schedule; it is never written after it is
// stored.
type aeadEntry struct {
	id   uint32
	key  [SymKeySize]byte
	aead *AEAD
}

// NewAEADCache returns an empty cache whose AEADs seal in direction (0
// or 1; see NewAEAD).
func NewAEADCache(direction byte) *AEADCache {
	return &AEADCache{direction: direction}
}

// Get returns the AEAD for key, owned by id, building it and replacing
// the slot's entry on a miss.
func (c *AEADCache) Get(id uint32, key [SymKeySize]byte) (*AEAD, error) {
	// Fibonacci hashing: IDs handed out in runs (one per population
	// worker, each from its own 2²⁵-wide namespace) spread over every
	// slot instead of sharing their low bits.
	slot := &c.slots[id*0x9E3779B1>>(32-aeadCacheBits)]
	if e := slot.Load(); e != nil && e.id == id && e.key == key {
		return e.aead, nil
	}
	e := &aeadEntry{id: id, key: key}
	var err error
	if e.aead, err = NewAEAD(e.key[:], c.direction); err != nil {
		return nil, err
	}
	slot.Store(e)
	return e.aead, nil
}
