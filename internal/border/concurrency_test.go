package border

import (
	"encoding/binary"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"apna/internal/ephid"
	"apna/internal/netsim"
)

// TestSetICMPSenderConcurrentWithTraffic is the -race regression test
// for the hook-publication data race: before icmpSender became an
// atomic pointer, installing the hook while port handlers were dropping
// packets was a plain unsynchronized write racing a read.
func TestSetICMPSenderConcurrentWithTraffic(t *testing.T) {
	f := newFixture(t)

	// A frame that fails MAC verification: dropped at egress, which is
	// exactly the path that invokes the ICMP hook.
	var remoteDst ephid.EphID
	remoteDst[0] = 0xEE
	bad := f.hostFrame(t, remoteAID, remoteDst, 0)
	bad[len(bad)-1] ^= 0xff

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 2_000; i++ {
			f.router.SetICMPSender(func(Verdict, []byte) {})
			if i%3 == 0 {
				f.router.SetICMPSender(nil)
			}
		}
	}()
	for i := 0; i < 2_000; i++ {
		// Drive drops directly (no simulator events are scheduled for a
		// dropped frame, so this is safe off the sim goroutine).
		f.router.internal.HandleFrame(bad, nil)
	}
	<-done

	if got := f.router.Stats().Get(VerdictDropBadMAC); got != 2_000 {
		t.Fatalf("bad-MAC drops = %d", got)
	}
}

// TestTableMutationConcurrentWithLookups exercises the copy-on-write
// route/port tables: attach/detach and route swaps from one goroutine
// must never tear the snapshots read by concurrent lookups.
func TestTableMutationConcurrentWithLookups(t *testing.T) {
	f := newFixture(t)
	done := make(chan struct{})
	go func() {
		defer close(done)
		sim := netsim.New(99)
		for i := 0; i < 1_000; i++ {
			hid := ephid.HID(1000 + i%8)
			link := sim.NewLink("churn", 0, 0)
			f.router.AttachHost(hid, link.A())
			f.router.SetRoutes(netsim.Routes{remoteAID: remoteAID})
			f.router.DetachHost(hid)
		}
	}()
	for i := 0; i < 10_000; i++ {
		if _, ok := f.router.LookupRoute(remoteAID); !ok {
			t.Error("route to neighbor vanished")
			break
		}
		f.router.DeliverToHost(ephid.HID(1000+i%8), nil)
	}
	<-done
}

// TestEgressPipelineCacheRespectsRevocation pins the open-cache
// semantics: a cached EphID must still be dropped the moment it is
// revoked, and a revoked host's key must stop verifying.
func TestEgressPipelineCacheRespectsRevocation(t *testing.T) {
	f := newFixture(t)
	var remoteDst ephid.EphID
	remoteDst[0] = 0xEE
	frame := f.hostFrame(t, remoteAID, remoteDst, 0)
	pipe := f.router.NewEgressPipeline()

	if v := pipe.Process(frame); v != VerdictForward {
		t.Fatalf("verdict %v", v)
	}
	f.router.Revoked().Insert(f.srcID, uint32(f.now)+600)
	if v := pipe.Process(frame); v != VerdictDropRevoked {
		t.Fatalf("cached EphID ignored revocation: %v", v)
	}
}

// TestEgressPipelineCacheRespectsExpiry pins that cached opens still
// re-check expiration against the live clock.
func TestEgressPipelineCacheRespectsExpiry(t *testing.T) {
	f := newFixture(t)
	var remoteDst ephid.EphID
	remoteDst[0] = 0xEE
	frame := f.hostFrame(t, remoteAID, remoteDst, 0)
	pipe := f.router.NewEgressPipeline()

	if v := pipe.Process(frame); v != VerdictForward {
		t.Fatalf("verdict %v", v)
	}
	f.now += 3600 // past the EphID's 600 s lifetime
	if v := pipe.Process(frame); v != VerdictDropExpired {
		t.Fatalf("cached EphID ignored expiry: %v", v)
	}
}

// TestIngressPipelineCacheRespectsRevocation does the same for the
// ingress path.
func TestIngressPipelineCacheRespectsRevocation(t *testing.T) {
	f := newFixture(t)
	dst := f.sealer.Mint(ephid.Payload{HID: f.hid, ExpTime: uint32(f.now) + 600})
	frame := f.hostFrame(t, localAID, dst, 0)
	pipe := f.router.NewIngressPipeline()

	if v, hid := pipe.Process(frame); v != VerdictForward || hid != f.hid {
		t.Fatalf("verdict %v hid %v", v, hid)
	}
	f.router.Revoked().Insert(dst, uint32(f.now)+600)
	if v, _ := pipe.Process(frame); v != VerdictDropRevoked {
		t.Fatalf("cached EphID ignored revocation: %v", v)
	}
}

// TestProcessBatchMixedVerdicts checks batch processing classifies a
// mixed batch frame by frame.
func TestProcessBatchMixedVerdicts(t *testing.T) {
	f := newFixture(t)
	var remoteDst ephid.EphID
	remoteDst[0] = 0xEE
	good := f.hostFrame(t, remoteAID, remoteDst, 0)
	badMAC := append([]byte(nil), good...)
	badMAC[len(badMAC)-1] ^= 0xff
	malformed := []byte{1, 2, 3}
	forged := append([]byte(nil), good...)
	forged[24] ^= 0xff // corrupt the source EphID tag region

	pipe := f.router.NewEgressPipeline()
	verdicts := pipe.ProcessBatch([][]byte{good, badMAC, malformed, forged}, nil)
	want := []Verdict{VerdictForward, VerdictDropBadMAC, VerdictDropMalformed, VerdictDropBadEphID}
	if len(verdicts) != len(want) {
		t.Fatalf("%d verdicts", len(verdicts))
	}
	for i, v := range verdicts {
		if v != want[i] {
			t.Errorf("frame %d: verdict %v, want %v", i, v, want[i])
		}
	}
}

// revKey is the i-th EphID of a family: distinct for distinct (family,
// i), and laid out so that splicing the halves of two keys gives a key
// of no family.
func revKey(family byte, i int) ephid.EphID {
	var e ephid.EphID
	e[0], e[8] = family, family
	binary.BigEndian.PutUint32(e[4:], uint32(i))
	binary.BigEndian.PutUint32(e[12:], ^uint32(i))
	return e
}

// TestRevocationListsConcurrentWithWrites runs lock-free readers against
// everything a writer does to a list: in-place inserts, expiry updates,
// the rebuilds growth forces and the rebuilds GC does. Entries that stay
// on the list must be found by every lookup, whichever table it lands
// on; keys never inserted — among them halves of two resident keys
// spliced together, which is what a torn slot would look like — must
// never be; and an origin must never match an entry another announced.
func TestRevocationListsConcurrentWithWrites(t *testing.T) {
	const (
		resident = 512
		wave     = 3000 // enough to force several doublings per wave
		waves    = 12
		origin   = ephid.AID(200)
		forever  = uint32(1 << 30)
	)
	var local RevocationList
	var remote RemoteRevocationList
	for i := 0; i < resident; i++ {
		local.Insert(revKey('r', i), forever)
		remote.Insert(revKey('r', i), origin, forever)
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for n := r; !stop.Load(); n++ {
				i := n % resident
				e := revKey('r', i)
				spliced, next := e, revKey('r', (i+1)%resident)
				copy(spliced[8:], next[8:])
				switch {
				case !local.Contains(e) || !remote.Matches(e, origin) || !remote.Contains(e):
					t.Errorf("resident entry %d lost", i)
				case remote.Matches(e, origin+1):
					t.Errorf("resident entry %d matched another origin", i)
				case local.Contains(spliced) || remote.Contains(spliced):
					t.Errorf("a key spliced from entries %d and %d is on a list", i, (i+1)%resident)
				case local.Contains(revKey('a', n)) || remote.Matches(revKey('a', n), origin):
					t.Errorf("absent key %d found", n)
				default:
					continue
				}
				return
			}
		}(r)
	}

	for w := 0; w < waves && !t.Failed(); w++ {
		exp := uint32(1000 + w)
		for i := 0; i < wave; i++ {
			local.Insert(revKey('w', w*wave+i), exp)
			remote.Insert(revKey('w', w*wave+i), origin, exp)
			if i%8 == 0 { // an identical re-insert and an expiry update, both in place
				local.Insert(revKey('r', i%resident), forever)
				remote.Insert(revKey('r', i%resident), origin, forever-uint32(i))
			}
		}
		if got := local.Len(); got != resident+wave {
			t.Fatalf("wave %d: local list holds %d, want %d", w, got, resident+wave)
		}
		if n, m := local.GC(int64(exp)+1), remote.GC(int64(exp)+1); n != wave || m != wave {
			t.Fatalf("wave %d: GC reaped %d and %d, want %d", w, n, m, wave)
		}
	}
	stop.Store(true)
	wg.Wait()
	if local.Len() != resident || remote.Len() != resident {
		t.Fatalf("lists hold %d and %d entries, want %d", local.Len(), remote.Len(), resident)
	}
}

// TestRevocationReinsertIsLockFree pins what cumulative digests rely on:
// installing an entry the list already holds, unchanged, does not wait
// for the writer lock.
func TestRevocationReinsertIsLockFree(t *testing.T) {
	var l RemoteRevocationList
	e := revKey('r', 1)
	l.Insert(e, 200, 5000)
	l.m.mu.Lock()
	defer l.m.mu.Unlock()
	done := make(chan struct{})
	go func() {
		l.Insert(e, 200, 5000)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("re-inserting an identical entry blocked on the writer lock")
	}
}
