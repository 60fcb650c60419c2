package hostdb

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"apna/internal/crypto"
	"apna/internal/ephid"
)

// keyFor derives the deterministic key material a concurrent reader can
// validate against: any MACKey result for hid must equal keyFor(hid) —
// a torn entry would mix bytes from two publications.
func keyFor(hid ephid.HID) crypto.HostASKeys {
	return crypto.DeriveHostASKeys([]byte{byte(hid), byte(hid >> 8), 0xAB})
}

// TestConcurrentReadersAndWriters hammers the lock-free read path with
// parallel Get/MACKey/EncKey/Valid/Range while writers Put, Revoke,
// AddStrike and Delete the same HIDs, verifying readers never observe a
// torn entry (mismatched keys) or an impossible state.
func TestConcurrentReadersAndWriters(t *testing.T) {
	db := New()
	const hids = 128
	for i := 0; i < hids; i++ {
		hid := ephid.HID(i + 1)
		db.Put(Entry{HID: hid, Keys: keyFor(hid), RegisteredAt: 1})
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Writers: churn entries through every mutation.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				hid := ephid.HID(i%hids + 1)
				switch (i + w) % 4 {
				case 0:
					db.Put(Entry{HID: hid, Keys: keyFor(hid), RegisteredAt: 1})
				case 1:
					db.Revoke(hid)
				case 2:
					_, _ = db.AddStrike(hid)
				case 3:
					db.Delete(hid)
					db.Put(Entry{HID: hid, Keys: keyFor(hid), RegisteredAt: 1})
				}
			}
		}(w)
	}

	// Readers: every lookup must be internally consistent.
	readErr := make(chan string, 16)
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				hid := ephid.HID(i%hids + 1)
				want := keyFor(hid)
				if key, err := db.MACKey(hid); err == nil && key != want.MAC {
					select {
					case readErr <- "MACKey returned a torn key":
					default:
					}
					return
				} else if err != nil && !errors.Is(err, ErrUnknownHost) && !errors.Is(err, ErrRevoked) {
					select {
					case readErr <- "MACKey returned unexpected error: " + err.Error():
					default:
					}
					return
				}
				if key, err := db.EncKey(hid); err == nil && key != want.Enc {
					select {
					case readErr <- "EncKey returned a torn key":
					default:
					}
					return
				}
				if e, err := db.Get(hid); err == nil {
					if e.HID != hid || e.Keys != want {
						select {
						case readErr <- "Get returned a torn entry":
						default:
						}
						return
					}
					if e.Status != 0 && e.Status != StatusRevoked {
						select {
						case readErr <- "Get returned an impossible status":
						default:
						}
						return
					}
				}
				db.Valid(hid)
				if i%64 == 0 {
					db.Range(func(e Entry) bool { return e.Keys == keyFor(e.HID) })
					_ = db.Len()
				}
			}
		}(r)
	}

	// Let the storm run a bounded number of scheduler quanta.
	for i := 0; i < 50; i++ {
		select {
		case msg := <-readErr:
			close(stop)
			wg.Wait()
			t.Fatal(msg)
		default:
		}
		// A tiny sleep keeps the test quick while letting goroutines
		// interleave even on GOMAXPROCS=1.
		time.Sleep(500 * time.Microsecond)
	}
	close(stop)
	wg.Wait()
	select {
	case msg := <-readErr:
		t.Fatal(msg)
	default:
	}

	// After the dust settles every HID must still resolve consistently.
	alive := 0
	db.Range(func(e Entry) bool {
		if e.Keys != keyFor(e.HID) {
			t.Fatalf("final state torn for HID %v", e.HID)
		}
		alive++
		return true
	})
	if alive == 0 {
		t.Fatal("all entries vanished")
	}
}

// TestRevokeVisibleToConcurrentReaders checks the publication ordering:
// once Revoke returns, no reader may see the host as active.
func TestRevokeVisibleToConcurrentReaders(t *testing.T) {
	db := New()
	hid := ephid.HID(9)
	db.Put(Entry{HID: hid, Keys: keyFor(hid)})
	db.Revoke(hid)
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1_000; i++ {
				if db.Valid(hid) {
					t.Error("revoked host reported valid")
					return
				}
				if _, err := db.MACKey(hid); !errors.Is(err, ErrRevoked) {
					t.Errorf("MACKey after revoke: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestPutBatchMatchesPut pins batched insertion against the singular
// path.
func TestPutBatchMatchesPut(t *testing.T) {
	a, b := New(), New()
	entries := make([]Entry, 0, 300)
	for i := 0; i < 300; i++ {
		hid := ephid.HID(i + 1)
		e := Entry{HID: hid, Keys: keyFor(hid), Strikes: i % 3, RegisteredAt: int64(i)}
		entries = append(entries, e)
		a.Put(e)
	}
	b.PutBatch(entries)
	if a.Len() != b.Len() {
		t.Fatalf("Len %d vs %d", a.Len(), b.Len())
	}
	for _, e := range entries {
		ea, errA := a.Get(e.HID)
		eb, errB := b.Get(e.HID)
		if errA != nil || errB != nil {
			t.Fatalf("Get(%v): %v / %v", e.HID, errA, errB)
		}
		if ea.Keys != eb.Keys || ea.Strikes != eb.Strikes || ea.RegisteredAt != eb.RegisteredAt {
			t.Fatalf("entry %v differs between Put and PutBatch", e.HID)
		}
	}
	// Batch replacement of existing entries must also take effect.
	entries[0].Strikes = 99
	b.PutBatch(entries[:1])
	if e, _ := b.Get(entries[0].HID); e.Strikes != 99 {
		t.Fatal("PutBatch did not replace an existing entry")
	}
}

// TestConcurrentRebuildsAndTombstoneReuse runs lock-free readers against
// a single shard whose writer inserts in place, grows the table, reaps
// with GC and deletes, so that tombstones pile up and later inserts of
// other HIDs reuse them. Resident hosts, which no writer touches, must
// resolve on every lookup across every rebuild; whatever a reader gets
// for a churned HID must be that HID's own entry, never the one a reused
// slot now holds; and HIDs never registered must stay unknown.
func TestConcurrentRebuildsAndTombstoneReuse(t *testing.T) {
	db, err := NewSharded(1)
	if err != nil {
		t.Fatal(err)
	}
	const (
		resident = 256
		churn    = 2048
		rounds   = 16
	)
	for i := 0; i < resident; i++ {
		hid := ephid.HID(1 + i)
		db.Put(Entry{HID: hid, Keys: keyFor(hid)})
	}
	churned := func(i int) ephid.HID { return ephid.HID(1<<20 + i) }

	var stop atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for n := r; !stop.Load(); n++ {
				hid := ephid.HID(1 + n%resident)
				if key, err := db.MACKey(hid); err != nil || key != keyFor(hid).MAC || !db.Valid(hid) {
					t.Errorf("resident host %v lost or torn: %v", hid, err)
					return
				}
				hid = churned(n % churn)
				if key, err := db.MACKey(hid); err == nil && key != keyFor(hid).MAC {
					t.Errorf("MACKey(%v) returned another host's key", hid)
					return
				}
				if e, err := db.Get(hid); err == nil && (e.HID != hid || e.Keys != keyFor(hid)) {
					t.Errorf("Get(%v) returned host %v's entry", hid, e.HID)
					return
				}
				if hid = ephid.HID(1<<30 + n); db.Valid(hid) {
					t.Errorf("unregistered host %v reported valid", hid)
					return
				}
			}
		}(r)
	}

	// Each round registers a window of the churned HIDs (growth, then
	// tombstone reuse), revokes half of it and deletes a quarter, and lets
	// GC reap the revoked: every slot a round frees is one a later round's
	// different HIDs land on.
	for round := 0; round < rounds && !t.Failed(); round++ {
		lo := round * 97 % churn
		for i := 0; i < churn/2; i++ {
			hid := churned((lo + i) % churn)
			db.Put(Entry{HID: hid, Keys: keyFor(hid), RegisteredAt: int64(round)})
			switch i % 4 {
			case 0, 1:
				db.RevokeAt(hid, int64(round)+1)
			case 2:
				db.Delete(hid)
			}
		}
		db.GC(int64(round)+2, 1)
	}
	stop.Store(true)
	wg.Wait()
	for i := 0; i < resident; i++ {
		if hid := ephid.HID(1 + i); !db.Valid(hid) {
			t.Fatalf("resident host %v gone after the churn", hid)
		}
	}
}

// TestProbeSurvivesSlotReuse replays, step by step, the one interleaving
// in which a reader could mistake one host's entry for another's: it has
// matched a host's slot word, and before it follows the entry pointer
// the host is deleted and the tombstone reused for a different HID. The
// split lookup makes the window wide enough to stand in.
func TestProbeSurvivesSlotReuse(t *testing.T) {
	db, err := NewSharded(1)
	if err != nil {
		t.Fatal(err)
	}
	victim := ephid.HID(7)
	db.Put(Entry{HID: victim, Keys: keyFor(victim)})
	slots := uint32(len(db.shards[0].t.Load().slots))
	squatter := victim + 1
	for squatter.Hash()%slots != victim.Hash()%slots {
		squatter++
	}

	probe := db.Locate(victim) // the reader has seen the victim's word
	db.Delete(victim)
	db.Put(Entry{HID: squatter, Keys: keyFor(squatter)})
	if s, _ := db.Locate(squatter).find(); s != &db.shards[0].t.Load().slots[probe.i] {
		t.Fatal("the squatter did not reuse the victim's slot; the test no longer tests anything")
	}
	if m, err := probe.PacketMAC(); !errors.Is(err, ErrUnknownHost) {
		t.Fatalf("a probe overtaken by delete and reuse returned schedule %p, err %v", m, err)
	}
	// Valid, by contrast, answers from the word Locate loaded: the host
	// was valid then, and a lookup that ran wholly before the deletion
	// would say so too.
}
