package crypto

import (
	"errors"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"apna/internal/spare"
)

// stocksIdleAtStart records, before any test runs, whether the package's
// two stocks were idle: nothing stocked, nothing owed.
var stocksIdleAtStart bool

func TestMain(m *testing.M) {
	stocksIdleAtStart = dhStock.idle() && sigStock.idle()
	os.Exit(m.Run())
}

func (s *stock[K]) idle() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.keys) == 0 && s.owed == 0
}

// spareCore gives the test at least two Ps, so the stock's refills run
// on a spare core, and restores GOMAXPROCS afterwards.
func spareCore(t *testing.T) {
	t.Helper()
	if prev := runtime.GOMAXPROCS(0); prev < 2 {
		runtime.GOMAXPROCS(2)
		t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	}
}

// counter is a generator whose keys are 1, 2, 3, ...; calls says how
// many it made.
func counter() (gen func() (int, error), calls *atomic.Int64) {
	calls = new(atomic.Int64)
	return func() (int, error) { return int(calls.Add(1)), nil }, calls
}

// TestStockIdleUntilTaken: a program that imports the package and has
// not taken a key has no key stocked and no refill queued.
func TestStockIdleUntilTaken(t *testing.T) {
	if !stocksIdleAtStart {
		t.Fatal("the key stocks were busy before any test took a key")
	}
}

// TestStockKeysDistinct takes key pairs of both types from many
// goroutines at once: every public key handed out is different.
func TestStockKeysDistinct(t *testing.T) {
	const takers, takes = 8, 16
	pubs := make([][][]byte, takers)
	var wg sync.WaitGroup
	for g := range pubs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < takes; i++ {
				dh, err := GenerateKeyPair()
				if err != nil {
					t.Error(err)
					return
				}
				sig, err := GenerateSigner()
				if err != nil {
					t.Error(err)
					return
				}
				pubs[g] = append(pubs[g], dh.PublicKey(), sig.PublicKey())
			}
		}()
	}
	wg.Wait()
	spare.Idle()
	seen := make(map[string]bool, 2*takers*takes)
	for _, ps := range pubs {
		for _, p := range ps {
			if seen[string(p)] {
				t.Fatalf("public key %x handed out twice", p)
			}
			seen[string(p)] = true
		}
	}
	if len(seen) != 2*takers*takes {
		t.Fatalf("%d distinct keys, want %d", len(seen), 2*takers*takes)
	}
	if n := len(dhStock.keys); n > stockDepth {
		t.Errorf("X25519 stock holds %d keys, depth is %d", n, stockDepth)
	}
	if n := len(sigStock.keys); n > stockDepth {
		t.Errorf("Ed25519 stock holds %d keys, depth is %d", n, stockDepth)
	}
}

// TestStockRefillerExitsWhenPaid: after a burst of takes the refills
// queued generate the replacements owed and nothing beyond them — every
// key generated was either handed out or is in stock, each exactly
// once.
func TestStockRefillerExitsWhenPaid(t *testing.T) {
	spareCore(t)
	gen, calls := counter()
	s := &stock[int]{gen: gen}
	const burst = 3 * stockDepth
	seen := make(map[int]bool, burst)
	for i := 0; i < burst; i++ {
		k, err := s.take()
		if err != nil {
			t.Fatal(err)
		}
		if seen[k] {
			t.Fatalf("key %d handed out twice", k)
		}
		seen[k] = true
	}
	spare.Idle()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.owed != 0 {
		t.Fatalf("refills still owe %d", s.owed)
	}
	if n := len(s.keys); n == 0 || n > stockDepth {
		t.Fatalf("stock holds %d keys after the burst, want 1..%d", n, stockDepth)
	}
	if got, want := calls.Load(), int64(burst+len(s.keys)); got != want {
		t.Fatalf("generated %d keys for %d takes and %d stocked", got, burst, len(s.keys))
	}
	for _, k := range s.keys {
		if seen[k] {
			t.Fatalf("stocked key %d was already handed out", k)
		}
	}
}

// TestStockNeverExceedsDepth: with replacements for the whole depth
// already owed, takes from the empty stock generate inline and queue
// nothing; once those replacements are stocked, takes from a full stock
// keep it full, one replacement each.
func TestStockNeverExceedsDepth(t *testing.T) {
	spareCore(t)
	gen, calls := counter()
	s := &stock[int]{gen: gen, owed: stockDepth} // as if stockDepth refills were queued
	for i := 0; i < stockDepth; i++ {
		if _, err := s.take(); err != nil {
			t.Fatal(err)
		}
	}
	spare.Idle()
	if calls.Load() != stockDepth || s.owed != stockDepth {
		t.Fatalf("takes at the depth: %d generated, %d owed; want %d, %d", calls.Load(), s.owed, stockDepth, stockDepth)
	}
	s.owed = 0
	for i := range stockDepth {
		s.keys = append(s.keys, -i) // the refills' keys
	}
	for i := 0; i < 3*stockDepth; i++ {
		if _, err := s.take(); err != nil {
			t.Fatal(err)
		}
		s.mu.Lock()
		n := len(s.keys) + s.owed
		s.mu.Unlock()
		if n != stockDepth {
			t.Fatalf("take %d: %d stocked or owed, depth is %d", i, n, stockDepth)
		}
		spare.Idle()
		if len(s.keys) != stockDepth || s.owed != 0 {
			t.Fatalf("take %d from full: %d stocked, %d owed; want %d, 0", i, len(s.keys), s.owed, stockDepth)
		}
	}
	if got, want := calls.Load(), int64(4*stockDepth); got != want {
		t.Fatalf("generated %d keys, want %d", got, want)
	}
}

// TestStockInlineAtOneProc: at GOMAXPROCS 1 no core is spare, so every
// take generates its key inline and the stock neither queues nor keeps
// anything.
func TestStockInlineAtOneProc(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	gen, calls := counter()
	s := &stock[int]{gen: gen}
	for i := 1; i <= stockDepth; i++ {
		if k, err := s.take(); err != nil || k != i {
			t.Fatalf("take %d: key %d, %v", i, k, err)
		}
	}
	if calls.Load() != stockDepth || !s.idle() {
		t.Fatalf("%d generated, %d stocked, %d owed; want %d, 0, 0", calls.Load(), len(s.keys), s.owed, stockDepth)
	}
}

// TestStockFailureReachesTaker: a refill whose generator fails stocks
// nothing, and the next take that finds the stock empty returns that
// failure instead of generating.
func TestStockFailureReachesTaker(t *testing.T) {
	spareCore(t)
	boom := errors.New("entropy source failed")
	var calls atomic.Int64
	s := &stock[int]{gen: func() (int, error) {
		calls.Add(1)
		return 0, boom
	}}
	if _, err := s.take(); !errors.Is(err, boom) {
		t.Fatalf("inline generation: err = %v, want %v", err, boom)
	}
	spare.Idle()
	if calls.Load() != 2 || s.owed != 0 {
		t.Fatalf("after a failed refill: %d generator calls, %d owed; want 2, 0", calls.Load(), s.owed)
	}
	if _, err := s.take(); !errors.Is(err, boom) {
		t.Fatalf("take after the failed refill: err = %v, want %v", err, boom)
	}
	if calls.Load() != 2 || !s.idle() {
		t.Fatalf("the take that got the refill's failure generated or started something: %d calls", calls.Load())
	}
}
