package hostdb

import (
	"math"
	"runtime"
	"testing"

	"apna/internal/ephid"
)

// allocatedBy reports the heap bytes allocated while fn runs. The count
// is process-wide (MemStats.TotalAlloc): whatever another goroutine, the
// runtime's or the test binary's, allocates meanwhile counts too.
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// hosts builds n entries with consecutive HIDs.
func hosts(first, n int) []Entry {
	out := make([]Entry, n)
	for i := range out {
		out[i] = Entry{HID: ephid.HID(first + i)}
		out[i].Keys.MAC[0] = byte(i)
	}
	return out
}

// TestPutWriteAmplification bounds what registering a host costs as the
// database grows: 10^4 Puts into one that holds 10^3 or 10^5 hosts
// allocate under 1 KiB each — the entry's copy plus the amortized share
// of table doublings — where cloning a shard map per Put cost tens of
// KiB at 10^5. Revoking and reaping those hosts allocates their revoked
// copies and nothing else: GC tombstones in place.
//
// allocatedBy also counts what other goroutines allocate meanwhile, so
// each figure is the least of ampRuns runs, each over a fresh table. A
// run allocates the same every time, so a foreign allocation moves the
// least only if it lands in every run.
func TestPutWriteAmplification(t *testing.T) {
	const (
		puts    = 10_000
		ampRuns = 3
	)
	for _, resident := range []int{1_000, 100_000} {
		perPut, idleGC, reapGC := uint64(math.MaxUint64), uint64(math.MaxUint64), uint64(math.MaxUint64)
		for run := 0; run < ampRuns; run++ {
			db := New()
			db.PutBatch(hosts(1, resident))
			fresh := hosts(1<<24, puts)
			perPut = min(perPut, allocatedBy(func() {
				for _, e := range fresh {
					db.Put(e)
				}
			})/puts)
			for i := 0; i < puts; i++ {
				db.RevokeAt(ephid.HID(1<<24+i), 100)
			}
			var reaped int
			idleGC = min(idleGC, allocatedBy(func() { reaped = db.GC(99, 0) }))
			if reaped != 0 {
				t.Fatalf("%d resident hosts: a GC with nothing to reap reaped %d", resident, reaped)
			}
			reapGC = min(reapGC, allocatedBy(func() { reaped = db.GC(200, 50) }))
			if reaped != puts {
				t.Fatalf("%d resident hosts: GC reaped %d of %d", resident, reaped, puts)
			}
			if db.Len() != resident {
				t.Fatalf("%d resident hosts: %d left after the reap", resident, db.Len())
			}
		}
		if perPut >= 1024 {
			t.Errorf("%d resident hosts: a Put allocates %d B, want < 1 KiB", resident, perPut)
		}
		if idleGC > 1024 {
			t.Errorf("%d resident hosts: a GC with nothing to reap allocated %d B", resident, idleGC)
		}
		if reapGC > 1024 {
			t.Errorf("%d resident hosts: a GC that reaps allocated %d B", resident, reapGC)
		}
	}
}

// longestRun is the longest run of used slots in any shard, which no
// probe chain can exceed.
func longestRun(db *DB) int {
	longest := 0
	for i := range db.shards {
		slots := db.shards[i].t.Load().slots
		run := 0
		for j := 0; j < 2*len(slots); j++ { // twice round: runs wrap
			if slots[j%len(slots)].w.Load() == 0 {
				run = 0
				continue
			}
			if run++; run > longest {
				longest = run
			}
		}
	}
	return longest
}

// TestProbeChainsStayShort registers HIDs the way ASes hand them out —
// in sequence, or from subnets, so that they agree in their low bits, or
// in whichever bits pick the shard — in one shard and in many. The slot
// hash must spread them all: at half load no run of used slots is long.
func TestProbeChainsStayShort(t *testing.T) {
	families := map[string]func(i int) ephid.HID{
		"sequential":         func(i int) ephid.HID { return ephid.HID(1 + i) },
		"10.x.y.1 addresses": func(i int) ephid.HID { return ephid.HID(10<<24 | i<<8 | 1) },
		"one shard's HIDs":   func(i int) ephid.HID { return ephid.HID(i<<16 | 0x2a) },
		"high bits only":     func(i int) ephid.HID { return ephid.HID(i << 12) },
	}
	for name, hid := range families {
		for _, shards := range []int{1, DefaultShardCount} {
			db, err := NewSharded(shards)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 50_000; i++ {
				db.Put(Entry{HID: hid(i)})
			}
			if db.Len() != 50_000 {
				t.Fatalf("%s: %d hosts registered", name, db.Len())
			}
			if run := longestRun(db); run > 32 {
				t.Errorf("%s, %d shards: a run of %d used slots", name, shards, run)
			}
		}
	}
}
