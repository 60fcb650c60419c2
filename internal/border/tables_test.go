package border

import (
	"runtime"
	"testing"

	"apna/internal/ephid"
)

// allocatedBy reports the heap bytes fn allocates.
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestRevocationInsertWriteAmplification is Section VIII-G2's concern as
// a bound: under a shutoff flood the lists grow, and what one more
// revocation costs must not grow with them. Inserting 10^4 entries into
// a list that already holds 10^3 or 10^5 allocates under 1 KiB each,
// table doublings included (a shard-cloning list paid some 30 KiB per
// insert at 10^5).
func TestRevocationInsertWriteAmplification(t *testing.T) {
	const inserts = 10_000
	for _, resident := range []int{1_000, 100_000} {
		var local RevocationList
		var remote RemoteRevocationList
		for i := 0; i < resident; i++ {
			local.Insert(revKey('r', i), 1<<30)
			remote.Insert(revKey('r', i), 200, 1<<30)
		}
		perInsert := allocatedBy(func() {
			for i := 0; i < inserts; i++ {
				local.Insert(revKey('n', i), 1<<30)
				remote.Insert(revKey('n', i), 200, 1<<30)
			}
		}) / (2 * inserts)
		if perInsert >= 1024 {
			t.Errorf("%d resident entries: an insert allocates %d B, want < 1 KiB", resident, perInsert)
		}
		if local.Len() != resident+inserts || remote.Len() != resident+inserts {
			t.Errorf("%d resident entries: lists hold %d and %d after %d inserts", resident, local.Len(), remote.Len(), inserts)
		}
	}
}

// TestRevocationGCLeavesFullListAlone checks that a GC with nothing to
// reap builds nothing: the table readers are on stays the table.
func TestRevocationGCLeavesFullListAlone(t *testing.T) {
	var l RevocationList
	for i := 0; i < 10_000; i++ {
		l.Insert(revKey('r', i), 5000)
	}
	table := l.m.t.Load()
	var reaped int
	if got := allocatedBy(func() { reaped = l.GC(5000) }); reaped != 0 || got > 1024 || l.m.t.Load() != table {
		t.Fatalf("GC of a list with nothing expired reaped %d, allocated %d B, replaced the table: %v", reaped, got, l.m.t.Load() != table)
	}
	if reaped = l.GC(5001); reaped != 10_000 || l.Len() != 0 || l.Contains(revKey('r', 7)) {
		t.Fatalf("GC of a wholly expired list reaped %d, left %d", reaped, l.Len())
	}
}

// longestRun is the longest run of occupied slots in the table, which no
// probe chain can exceed.
func longestRun(t *revTable) int {
	longest, run := 0, 0
	for i := 0; i < 2*len(t.slots); i++ { // twice round: runs wrap
		if t.slots[i%len(t.slots)].tag.Load() == 0 {
			run = 0
			continue
		}
		if run++; run > longest {
			longest = run
		}
	}
	return longest
}

// TestRevocationProbeChainsStayShort feeds a list the keys an adversary
// who could choose EphID bytes would: counters in the low bytes, in the
// high bytes, and bytes that agree wherever an unseeded table would take
// its index from. Under the seeded hash they are as good as random, and
// at half load random keys leave no long run.
func TestRevocationProbeChainsStayShort(t *testing.T) {
	families := map[string]func(i int) ephid.EphID{
		"sequential low bytes":  func(i int) ephid.EphID { return revKey(0, i) },
		"sequential high bytes": func(i int) (e ephid.EphID) { e[0], e[1], e[2] = byte(i), byte(i>>8), byte(i>>16); return },
		"shared low 32 bits of both words": func(i int) (e ephid.EphID) {
			e[4], e[5], e[6] = byte(i), byte(i>>8), byte(i>>16)
			e[12], e[13] = byte(i>>4), byte(i>>12)
			return
		},
	}
	for name, key := range families {
		var l RemoteRevocationList
		for i := 0; i < 50_000; i++ {
			l.Insert(key(i), ephid.AID(100+i%3), 1<<30)
		}
		table := l.m.t.Load()
		if load := float64(l.Len()) / float64(len(table.slots)); load > 0.5 {
			t.Errorf("%s: load %.2f", name, load)
		}
		if run := longestRun(table); run > 32 {
			t.Errorf("%s: a run of %d occupied slots among %d", name, run, len(table.slots))
		}
	}
}
