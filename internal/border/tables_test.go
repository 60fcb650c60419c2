package border

import (
	"encoding/binary"
	"hash/maphash"
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

// longestRun is the longest run of non-zero tags in the table, which no
// probe chain can exceed.
func longestRun(t *revTable) int {
	longest, run := 0, 0
	for i := 0; i < 2*len(t.tags); i++ { // twice round: runs wrap
		if t.tags[i%len(t.tags)].Load() == 0 {
			run = 0
			continue
		}
		if run++; run > longest {
			longest = run
		}
	}
	return longest
}

// checkTags holds the two arrays of l's table against each other: every
// non-zero tag sits beside an entry whose EphID hashes to that tag, no
// empty slot lies between the entry and its home slot (a probe reaches
// it), and there are as many tags as Len says.
func checkTags(t *testing.T, what string, l *revList) {
	t.Helper()
	tb, n := l.t.Load(), 0
	if tb == nil {
		if l.n.Load() != 0 {
			t.Fatalf("%s: no table, Len %d", what, l.n.Load())
		}
		return
	}
	mask := uint32(len(tb.tags) - 1)
	for i := range tb.tags {
		tag := tb.tags[i].Load()
		if tag == 0 {
			continue
		}
		n++
		e := tb.entries[i].ephID()
		h := maphash.Bytes(tb.seed, e[:])
		if want := uint32(h>>32) | 1; tag != want {
			t.Fatalf("%s: slot %d holds tag %#x beside %v, whose tag is %#x", what, i, tag, e, want)
		}
		for j := uint32(h) & mask; j != uint32(i); j = (j + 1) & mask {
			if tb.tags[j].Load() == 0 {
				t.Fatalf("%s: %v in slot %d is cut off from its home slot %d by empty slot %d", what, e, i, uint32(h)&mask, j)
			}
		}
	}
	if n != int(l.n.Load()) {
		t.Fatalf("%s: %d tags, Len %d", what, n, l.n.Load())
	}
}

// TestRevocationTagsTrackEntries checks checkTags' invariant after each
// table a growing list builds and after a GC that reaps half the list.
func TestRevocationTagsTrackEntries(t *testing.T) {
	var local RevocationList
	var remote RemoteRevocationList
	var tables int
	for i := 0; i < 3000; i++ {
		before := local.m.t.Load()
		exp := uint32(1000 + i%2)
		local.Insert(revKey('g', i), exp)
		remote.Insert(revKey('g', i/2), ephid.AID(200+i%2), exp) // two origins per EphID
		if local.m.t.Load() != before {
			tables++
			checkTags(t, "local list after growth", &local.m)
			checkTags(t, "remote list after growth", &remote.m)
		}
	}
	if tables < 5 {
		t.Fatalf("3000 inserts built %d tables", tables)
	}
	if n, m := local.GC(1001), remote.GC(1001); n != 1500 || m != 1500 {
		t.Fatalf("GC reaped %d and %d, want 1500 each", n, m)
	}
	checkTags(t, "local list after GC", &local.m)
	checkTags(t, "remote list after GC", &remote.m)
	for i := 0; i < 3000; i++ {
		kept := i%2 == 1
		if local.Contains(revKey('g', i)) != kept || remote.Matches(revKey('g', i/2), ephid.AID(200+i%2)) != kept {
			t.Fatalf("entry %d: after GC on the lists is not %v", i, kept)
		}
	}
}

// TestRevocationTagMatchIsNotAHit plants, in a probe's home slot and
// under the probe's own tag, an entry that is not the one probed for —
// what two EphIDs whose hashes share 31 bits, or one EphID announced by
// another AS, leave there. find reads the entry on the tag match and
// must still miss.
func TestRevocationTagMatchIsNotAHit(t *testing.T) {
	probe := revKey('p', 1)
	for _, c := range []struct {
		name   string
		e      ephid.EphID
		origin ephid.AID
	}{
		{"another EphID", revKey('r', 1), 200},
		{"the same EphID under another origin", probe, 201},
	} {
		var l RemoteRevocationList
		tb := (*revTable)(nil).rebuilt(0, 0)
		l.m.t.Store(tb)
		p := l.m.locate(probe)
		s := &tb.entries[p.i]
		s.lo.Store(binary.LittleEndian.Uint64(c.e[:8]))
		s.hi.Store(binary.LittleEndian.Uint64(c.e[8:]))
		s.origin.Store(uint32(c.origin))
		s.exp.Store(1 << 30)
		tb.tags[p.i].Store(p.tag)
		l.m.n.Store(1)
		if p = l.m.locate(probe); p.cur != p.tag {
			t.Fatalf("%s: home slot holds tag %#x, not the probe's %#x", c.name, p.cur, p.tag)
		}
		if p.find(probe, 200, false) != nil || l.Matches(probe, 200) {
			t.Errorf("%s: a probe for (%v, 200) hit the entry (%v, %d) that shares its tag", c.name, probe, c.e, c.origin)
		}
		if got, want := l.Contains(probe), c.e == probe; got != want {
			t.Errorf("%s: Contains (any origin) = %v, want %v", c.name, got, want)
		}
		// The probed entry itself goes on the chain behind the planted one.
		if l.Insert(probe, 200, 1<<30); !l.Matches(probe, 200) || l.Len() != 2 {
			t.Errorf("%s: after inserting the probed entry: Matches %v, Len %d", c.name, l.Matches(probe, 200), l.Len())
		}
	}
}

// FuzzRevocationList drives both lists through a decoded op sequence —
// local insert, remote insert, Contains, Matches, GC, clock step — and
// checks every answer, every GC count and Len against plain maps. Keys
// come from 256 EphIDs and four origins, enough for several rebuilds in
// one sequence; the zero EphID is among them.
func FuzzRevocationList(f *testing.F) {
	f.Add([]byte{0, 1, 40, 1, 1, 41, 2, 1, 0, 2, 2, 0, 3, 1, 41, 3, 1, 40, 3, 2, 41, 5, 0, 200, 4, 0, 0, 2, 1, 0})
	grow := []byte{}
	for i := 0; i < 120; i++ {
		grow = append(grow, 0, byte(i), byte(i), 1, byte(i), byte(i)+1)
		if j := byte(i / 2); i%10 == 0 { // an earlier remote entry, under its origin and another
			grow = append(grow, 3, j, j+1, 3, j, j)
		}
	}
	f.Add(append(grow, 5, 0, 20, 4, 0, 0, 2, 3, 0, 3, 3, 1, 5, 0, 255, 4, 0, 0))
	f.Fuzz(func(t *testing.T, ops []byte) {
		type key struct {
			e      ephid.EphID
			origin ephid.AID
		}
		var local RevocationList
		var remote RemoteRevocationList
		refLocal, refRemote := map[ephid.EphID]uint32{}, map[key]uint32{}
		now := int64(1_000)
		for ; len(ops) >= 3; ops = ops[3:] {
			var e ephid.EphID
			if ops[1] != 0 {
				e = revKey('f', int(ops[1]))
			}
			k := key{e, ephid.AID(200 + ops[2]%4)}
			exp := uint32(now) + uint32(ops[2]>>2)
			switch ops[0] % 6 {
			case 0:
				local.Insert(e, exp)
				refLocal[e] = exp
			case 1:
				remote.Insert(k.e, k.origin, exp)
				refRemote[k] = exp
			case 2:
				if _, want := refLocal[e]; local.Contains(e) != want {
					t.Fatalf("local Contains(%v) = %v, want %v", e, !want, want)
				}
			case 3:
				if _, want := refRemote[k]; remote.Matches(k.e, k.origin) != want {
					t.Fatalf("Matches(%v, %d) = %v, want %v", k.e, k.origin, !want, want)
				}
				want := false
				for o := ephid.AID(200); o < 204; o++ {
					_, in := refRemote[key{e, o}]
					want = want || in
				}
				if remote.Contains(e) != want {
					t.Fatalf("remote Contains(%v) = %v, want %v", e, !want, want)
				}
			case 4:
				wantLocal, wantRemote := 0, 0
				for e, exp := range refLocal {
					if int64(exp) < now {
						delete(refLocal, e)
						wantLocal++
					}
				}
				for k, exp := range refRemote {
					if int64(exp) < now {
						delete(refRemote, k)
						wantRemote++
					}
				}
				if n, m := local.GC(now), remote.GC(now); n != wantLocal || m != wantRemote {
					t.Fatalf("GC(%d) reaped %d and %d, want %d and %d", now, n, m, wantLocal, wantRemote)
				}
			case 5:
				now += int64(ops[2])
			}
			if local.Len() != len(refLocal) || remote.Len() != len(refRemote) {
				t.Fatalf("lists hold %d and %d, want %d and %d", local.Len(), remote.Len(), len(refLocal), len(refRemote))
			}
		}
		for e := range refLocal {
			if !local.Contains(e) {
				t.Fatalf("local list lost %v", e)
			}
		}
		for k := range refRemote {
			if !remote.Matches(k.e, k.origin) {
				t.Fatalf("remote list lost (%v, %d)", k.e, k.origin)
			}
		}
		checkTags(t, "local list", &local.m)
		checkTags(t, "remote list", &remote.m)
	})
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
		if load := float64(l.Len()) / float64(len(table.tags)); load > 0.5 {
			t.Errorf("%s: load %.2f", name, load)
		}
		if run := longestRun(table); run > 32 {
			t.Errorf("%s: a run of %d occupied slots among %d", name, run, len(table.tags))
		}
	}
}
