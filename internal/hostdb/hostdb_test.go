package hostdb

import (
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"apna/internal/crypto"
	"apna/internal/ephid"
	"apna/internal/wire"
)

func entry(hid ephid.HID) Entry {
	return Entry{
		HID:          hid,
		Keys:         crypto.DeriveHostASKeys([]byte{byte(hid)}),
		RegisteredAt: 100,
	}
}

func TestPutGet(t *testing.T) {
	db := New()
	db.Put(entry(42))
	got, err := db.Get(42)
	if err != nil {
		t.Fatal(err)
	}
	if got.HID != 42 || got.Status != 0 {
		t.Errorf("entry = %+v", got)
	}
	if _, err := db.Get(43); !errors.Is(err, ErrUnknownHost) {
		t.Errorf("unknown: %v", err)
	}
	if db.Len() != 1 {
		t.Errorf("Len = %d", db.Len())
	}
}

func TestMACKeyAndEncKey(t *testing.T) {
	db := New()
	e := entry(7)
	db.Put(e)
	mk, err := db.MACKey(7)
	if err != nil || mk != e.Keys.MAC {
		t.Errorf("MACKey: %v", err)
	}
	ek, err := db.EncKey(7)
	if err != nil || ek != e.Keys.Enc {
		t.Errorf("EncKey: %v", err)
	}
	if _, err := db.MACKey(8); !errors.Is(err, ErrUnknownHost) {
		t.Errorf("unknown MACKey: %v", err)
	}
	if _, err := db.EncKey(8); !errors.Is(err, ErrUnknownHost) {
		t.Errorf("unknown EncKey: %v", err)
	}
}

func TestRevoke(t *testing.T) {
	db := New()
	db.Put(entry(5))
	if !db.Valid(5) {
		t.Error("fresh host invalid")
	}
	db.Revoke(5)
	if db.Valid(5) {
		t.Error("revoked host still valid")
	}
	if _, err := db.MACKey(5); !errors.Is(err, ErrRevoked) {
		t.Errorf("revoked MACKey: %v", err)
	}
	if _, err := db.EncKey(5); !errors.Is(err, ErrRevoked) {
		t.Errorf("revoked EncKey: %v", err)
	}
	db.Revoke(999) // no-op must not panic
	if db.Valid(999) {
		t.Error("unknown host valid")
	}
}

func TestStrikes(t *testing.T) {
	db := New()
	db.Put(entry(3))
	for want := 1; want <= 3; want++ {
		got, err := db.AddStrike(3)
		if err != nil || got != want {
			t.Errorf("AddStrike = %d, %v; want %d", got, err, want)
		}
	}
	if _, err := db.AddStrike(4); !errors.Is(err, ErrUnknownHost) {
		t.Errorf("unknown AddStrike: %v", err)
	}
}

func TestDelete(t *testing.T) {
	db := New()
	db.Put(entry(9))
	db.Delete(9)
	if _, err := db.Get(9); !errors.Is(err, ErrUnknownHost) {
		t.Error("deleted host still present")
	}
	if db.Len() != 0 {
		t.Errorf("Len = %d", db.Len())
	}
}

func TestRange(t *testing.T) {
	db := New()
	for i := ephid.HID(0); i < 100; i++ {
		db.Put(entry(i))
	}
	seen := make(map[ephid.HID]bool)
	db.Range(func(e Entry) bool {
		seen[e.HID] = true
		return true
	})
	if len(seen) != 100 {
		t.Errorf("Range visited %d entries", len(seen))
	}
	// Early stop.
	n := 0
	db.Range(func(Entry) bool { n++; return n < 10 })
	if n != 10 {
		t.Errorf("early stop visited %d", n)
	}
}

func TestConcurrentAccess(t *testing.T) {
	db := New()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				hid := ephid.HID(w*1000 + i)
				db.Put(entry(hid))
				if _, err := db.Get(hid); err != nil {
					t.Errorf("Get(%d): %v", hid, err)
					return
				}
				db.Valid(hid)
				if i%10 == 0 {
					db.Revoke(hid)
				}
			}
		}(w)
	}
	wg.Wait()
	if db.Len() != 8000 {
		t.Errorf("Len = %d", db.Len())
	}
}

func TestRevokeAtAndGC(t *testing.T) {
	db := New()
	db.Put(Entry{HID: 1})
	db.Put(Entry{HID: 2})
	db.Put(Entry{HID: 3})

	db.RevokeAt(2, 1000)
	db.RevokeAt(2, 2000) // re-revocation keeps the earliest time
	if e, err := db.Get(2); err != nil || e.Status != StatusRevoked || e.RevokedAt != 1000 {
		t.Fatalf("entry 2: %+v, %v", e, err)
	}

	// Inside the retention window: nothing reaped.
	if n := db.GC(1000+500, 900); n != 0 {
		t.Errorf("early GC reaped %d", n)
	}
	// Past retention: the revoked entry goes; active entries stay.
	if n := db.GC(1000+900, 900); n != 1 {
		t.Errorf("GC reaped %d, want 1", n)
	}
	if _, err := db.Get(2); err != ErrUnknownHost {
		t.Errorf("reaped entry still present: %v", err)
	}
	if !db.Valid(1) || !db.Valid(3) {
		t.Error("active entries reaped")
	}
	if db.Len() != 2 {
		t.Errorf("Len = %d", db.Len())
	}
}

// TestGCKeepsUntimestampedRevocations: entries revoked through the
// legacy Revoke (no timestamp) are never auto-reaped.
func TestGCKeepsUntimestampedRevocations(t *testing.T) {
	db := New()
	db.Put(Entry{HID: 1})
	db.Revoke(1)
	if n := db.GC(1<<40, 1); n != 0 {
		t.Errorf("untimestamped revocation reaped (%d)", n)
	}
	if _, err := db.Get(1); err != nil {
		t.Errorf("entry gone: %v", err)
	}
}

// TestNewSharded: the shard count is configurable, must be a power of
// two, and every operation distributes correctly across non-default
// shard counts.
func TestNewSharded(t *testing.T) {
	for _, bad := range []int{0, -1, 3, 6, 48, 100, MaxShardCount * 2} {
		if _, err := NewSharded(bad); err == nil {
			t.Errorf("NewSharded(%d) accepted a non-power-of-two count", bad)
		}
	}
	for _, good := range []int{1, 2, 64, 256, MaxShardCount} {
		db, err := NewSharded(good)
		if err != nil {
			t.Fatalf("NewSharded(%d): %v", good, err)
		}
		if db.ShardCount() != good {
			t.Errorf("ShardCount = %d, want %d", db.ShardCount(), good)
		}
	}

	// Exercise the full surface on a 4-shard table with HIDs that cover
	// every shard index (and wrap beyond the shard count).
	db, err := NewSharded(4)
	if err != nil {
		t.Fatal(err)
	}
	const hosts = 64
	entries := make([]Entry, 0, hosts)
	for i := 0; i < hosts; i++ {
		entries = append(entries, Entry{HID: ephid.HID(i + 1)})
	}
	db.PutBatch(entries)
	if db.Len() != hosts {
		t.Fatalf("Len = %d, want %d", db.Len(), hosts)
	}
	for i := 0; i < hosts; i++ {
		if !db.Valid(ephid.HID(i + 1)) {
			t.Fatalf("host %d invalid after PutBatch", i+1)
		}
	}
	db.RevokeAt(7, 100)
	if db.Valid(7) {
		t.Error("revoked host still valid")
	}
	if n := db.GC(100+1000, 900); n != 1 {
		t.Errorf("GC reaped %d, want 1", n)
	}
	db.Delete(8)
	if db.Len() != hosts-2 {
		t.Errorf("Len = %d, want %d", db.Len(), hosts-2)
	}
}

// TestPacketMACMemo pins the packet-MAC memo: it MACs as a schedule
// keyed from the entry does, concurrent first uses share one, a re-key
// replaces it without touching the old one, revoked and reaped hosts get
// none, and Get hands out no part of it.
func TestPacketMACMemo(t *testing.T) {
	db := New()
	e := entry(9)
	db.Put(e)
	m, err := db.Locate(9).PacketMAC()
	if err != nil {
		t.Fatal(err)
	}
	ref, err := wire.NewPacketMAC(e.Keys.MAC[:])
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	frameOf := func() []byte {
		frame := make([]byte, wire.HeaderSize+rng.Intn(300))
		rng.Read(frame)
		return frame
	}
	for i := 0; i < 200; i++ {
		frame := frameOf()
		ref.Apply(frame)
		if !m.Verify(frame) {
			t.Fatalf("frame %d (%d bytes): the memo rejects the reference MAC", i, len(frame))
		}
		frame[wire.HeaderSize-1] ^= 1
		if m.Verify(frame) {
			t.Fatalf("frame %d: the memo accepts a tampered frame", i)
		}
	}
	if again, _ := db.Locate(9).PacketMAC(); again != m {
		t.Fatal("a second use expanded a second schedule")
	}
	if _, err := db.AddStrike(9); err != nil {
		t.Fatal(err)
	}
	if kept, _ := db.Locate(9).PacketMAC(); kept != m {
		t.Error("AddStrike dropped the memo of keys it did not change")
	}

	// Concurrent first uses, each verifying a frame with what it got.
	const hosts, workers = 256, 8
	for hid := ephid.HID(1000); hid < 1000+hosts; hid++ {
		db.Put(entry(hid))
	}
	frame := frameOf()
	var got [workers][hosts]*wire.PacketMAC
	var wg sync.WaitGroup
	for w := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range got[w] {
				pm, err := db.Locate(1000 + ephid.HID(i)).PacketMAC()
				if err != nil {
					t.Error(err)
					return
				}
				pm.Verify(frame)
				got[w][i] = pm
			}
		}()
	}
	wg.Wait()
	for i := range got[0] {
		for w := range got {
			if got[w][i] != got[0][i] {
				t.Fatalf("host %d: concurrent first uses got different schedules", 1000+i)
			}
		}
	}

	// A re-key: a new schedule, and the old one still serves frames
	// parked under the old key.
	old := frameOf()
	m.Apply(old)
	rekeyed := e
	rekeyed.Keys = crypto.DeriveHostASKeys([]byte("new key"))
	db.Put(rekeyed)
	next, err := db.Locate(9).PacketMAC()
	if err != nil {
		t.Fatal(err)
	}
	if next == m || next.Verify(old) {
		t.Fatal("a re-keying Put kept the old key's schedule")
	}
	if !m.Verify(old) {
		t.Fatal("the old schedule changed under a frame parked with it")
	}

	db.RevokeAt(9, 50)
	if _, err := db.Locate(9).PacketMAC(); !errors.Is(err, ErrRevoked) {
		t.Errorf("revoked host: %v", err)
	}
	db.GC(100, 10)
	if _, err := db.Locate(9).PacketMAC(); !errors.Is(err, ErrUnknownHost) {
		t.Errorf("reaped host: %v", err)
	}

	// Entry, what Get returns, is a plain value: no memo rides along.
	for i, typ := 0, reflect.TypeOf(Entry{}); i < typ.NumField(); i++ {
		if f := typ.Field(i); strings.Contains(f.Type.String(), "PacketMAC") || strings.Contains(f.Type.String(), "atomic") {
			t.Errorf("Entry.%s (%s) carries the memo out of the database", f.Name, f.Type)
		}
	}
	if got, err := db.Get(1000); err != nil || !reflect.DeepEqual(got, entry(1000)) {
		t.Errorf("Get after use = %+v, %v; want the entry as put", got, err)
	}
}
