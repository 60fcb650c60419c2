package crypto

import (
	"bytes"
	"errors"
	"testing"

	"apna/internal/spare"
)

func cacheKey(b byte) [SymKeySize]byte {
	var k [SymKeySize]byte
	k[0] = b
	return k
}

// TestAEADCacheHit: a hit returns the AEAD the miss built; a new key for
// the same ID builds and keeps a new one; and a cached AEAD seals in
// the cache's direction under the key it was asked for.
func TestAEADCacheHit(t *testing.T) {
	c := NewAEADCache(1)
	k1, k2 := cacheKey(1), cacheKey(2)
	a, err := c.Get(7, k1)
	if err != nil {
		t.Fatal(err)
	}
	if again, _ := c.Get(7, k1); again != a {
		t.Fatal("a hit built a second AEAD")
	}
	b, _ := c.Get(7, k2)
	if b == a {
		t.Fatal("a new key for the same ID was served the old key's AEAD")
	}
	if again, _ := c.Get(7, k2); again != b {
		t.Fatal("the new key's AEAD was not kept")
	}
	if again, _ := c.Get(7, k1); again == a {
		t.Fatal("the replaced entry was still served")
	}

	msg, err := b.SealOnce(nil, []byte("reply"), []byte("aad"))
	if err != nil {
		t.Fatal(err)
	}
	if msg[0]&1 != 1 {
		t.Errorf("nonce %x: direction bit 0 from a direction-1 cache", msg[:NonceSize])
	}
	ref, err := NewAEAD(k2[:], 0)
	if err != nil {
		t.Fatal(err)
	}
	if pt, err := ref.Open(nil, msg, []byte("aad")); err != nil || string(pt) != "reply" {
		t.Errorf("sealed under the cached AEAD, opened under the key: %q, %v", pt, err)
	}
}

// TestAEADCacheBounded: however many owners pass through, the cache
// holds at most one entry per slot, each in the slot its ID hashes to.
// Two runs of consecutive IDs from different 2²⁵-wide namespaces (two
// population workers) spread over the slots rather than sharing them.
func TestAEADCacheBounded(t *testing.T) {
	c := NewAEADCache(0)
	const owners = 4 * aeadCacheSlots
	for i := range uint32(owners) {
		if _, err := c.Get(i, cacheKey(byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	held := 0
	for s := range c.slots {
		e := c.slots[s].Load()
		if e == nil {
			continue
		}
		held++
		if got := int(e.id * 0x9E3779B1 >> (32 - aeadCacheBits)); got != s {
			t.Fatalf("ID %d sits in slot %d, hashes to %d", e.id, s, got)
		}
	}
	if held > aeadCacheSlots {
		t.Fatalf("%d entries in %d slots", held, aeadCacheSlots)
	}

	c = NewAEADCache(0)
	const run = aeadCacheSlots / 4
	for w := range uint32(2) {
		for i := range uint32(run) {
			c.Get(w<<25+1+i, cacheKey(0))
		}
	}
	held = 0
	for s := range c.slots {
		if c.slots[s].Load() != nil {
			held++
		}
	}
	if held < 2*run*3/4 {
		t.Errorf("two runs of %d IDs landed in %d slots", run, held)
	}
}

// TestAEADCacheHitAllocs: a hit allocates nothing.
func TestAEADCacheHitAllocs(t *testing.T) {
	c := NewAEADCache(0)
	k := cacheKey(9)
	if _, err := c.Get(3, k); err != nil {
		t.Fatal(err)
	}
	spare.Idle()
	if allocs := testing.AllocsPerRun(100, func() { c.Get(3, k) }); allocs != 0 {
		t.Errorf("a hit allocates %.0f times", allocs)
	}
}

// TestSealOnceInPlace: a plaintext staged in dst's spare capacity,
// NonceSize bytes past its end, seals in place to what a separate
// plaintext seals to (the same nonce, read back from the output, opens
// both), and OpenInPlace restores it in the same bytes without
// allocating.
func TestSealOnceInPlace(t *testing.T) {
	a, err := NewAEAD(bytes.Repeat([]byte{4}, SymKeySize), 0)
	if err != nil {
		t.Fatal(err)
	}
	plain := []byte("in place, no second buffer")
	aad := []byte("aad")
	buf := make([]byte, 0, 3+NonceSize+len(plain)+TagSize)
	buf = append(buf, "hdr"...)
	staged := append(buf[3+NonceSize:3+NonceSize], plain...)
	msg, err := a.SealOnce(buf, staged, aad)
	if err != nil {
		t.Fatal(err)
	}
	if &msg[0] != &buf[0] || string(msg[:3]) != "hdr" || len(msg) != 3+NonceSize+len(plain)+TagSize {
		t.Fatalf("sealed in place to %x", msg)
	}
	if pt, err := a.Open(nil, msg[3:], aad); err != nil || !bytes.Equal(pt, plain) {
		t.Fatalf("opens to %q, %v", pt, err)
	}
	out, err := a.OpenInPlace(msg[3:], aad)
	if err != nil || !bytes.Equal(out, plain) || &out[0] != &msg[3+NonceSize] {
		t.Fatalf("OpenInPlace: %q, %v", out, err)
	}
	if _, err := a.OpenInPlace(make([]byte, NonceSize+TagSize-1), aad); !errors.Is(err, ErrDecrypt) {
		t.Errorf("short message: %v", err)
	}
	spare.Idle()
	if allocs := testing.AllocsPerRun(100, func() {
		staged := append(buf[3+NonceSize:3+NonceSize], plain...)
		msg, _ = a.SealOnce(buf[:3], staged, aad)
		a.OpenInPlace(msg[3:], aad)
	}); allocs != 0 {
		t.Errorf("seal and open in place allocate %.0f times", allocs)
	}
}
