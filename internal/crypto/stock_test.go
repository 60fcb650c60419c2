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
// two stocks were idle: nothing stocked, and nothing stocked once the
// background work is done either, so no refill was queued.
var stocksIdleAtStart bool

func TestMain(m *testing.M) {
	stocksIdleAtStart = dhStock.idle() && sigStock.idle()
	os.Exit(m.Run())
}

// idle waits for the background work and reports whether s holds no
// key.
func (s *stock[K]) idle() bool {
	spare.Idle()
	return s.stocked() == 0
}

func (s *stock[K]) stocked() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.keys)
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

// spareTasks is internal/spare's cap on tasks queued or running. Every
// queued replacement is one such task, so it bounds a stock's stocked
// keys plus queued replacements too.
const spareTasks = 16

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
	if n := len(dhStock.keys); n > spareTasks {
		t.Errorf("X25519 stock holds %d keys, the task cap is %d", n, spareTasks)
	}
	if n := len(sigStock.keys); n > spareTasks {
		t.Errorf("Ed25519 stock holds %d keys, the task cap is %d", n, spareTasks)
	}
}

// TestStockRefillerExitsWhenPaid: after a burst of takes the refills
// queued generate their replacements and nothing beyond them — every
// key generated was either handed out or is in stock, each exactly
// once.
func TestStockRefillerExitsWhenPaid(t *testing.T) {
	spareCore(t)
	gen, calls := counter()
	s := &stock[int]{gen: gen}
	const burst = 3 * spareTasks
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
	if n := len(s.keys); n == 0 || n > spareTasks {
		t.Fatalf("stock holds %d keys after the burst, want 1..%d", n, spareTasks)
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

// TestStockWithinTaskCap: the stock never holds more keys than the
// spare budget's task cap, however takes from several goroutines race
// the refills. A task that holds the one spare core makes it exact:
// takes from the empty stock queue refills behind it until the budget
// is full, then generate inline and queue nothing, so once it lets go
// exactly the budget's remaining tasks generate and stock a key each;
// then the refills run while the takes go on. Afterwards each take from
// the full stock queues exactly one replacement, so the stock stays
// full.
func TestStockWithinTaskCap(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2)) // one spare core
	spare.Idle()
	gen, calls := counter()
	s := &stock[int]{gen: gen}
	release := make(chan struct{})
	if !spare.Go(func() { <-release }) {
		t.Fatal("the budget refused the task holding the spare core")
	}
	burst := func(takers, takes int) {
		var wg sync.WaitGroup
		for range takers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for range takes {
					if _, err := s.take(); err != nil {
						t.Error(err)
						return
					}
					if n := s.stocked(); n > spareTasks {
						t.Errorf("%d keys stocked, the task cap is %d", n, spareTasks)
						return
					}
				}
			}()
		}
		wg.Wait()
	}
	const takers, takes = 4, 3 * spareTasks
	burst(takers, takes)
	if n := s.stocked(); n != 0 || calls.Load() != takers*takes {
		t.Fatalf("with the spare core held: %d stocked, %d generated; want 0 and the %d takes' own", n, calls.Load(), takers*takes)
	}
	close(release)
	spare.Idle()
	if n := s.stocked(); n != spareTasks-1 || calls.Load() != takers*takes+spareTasks-1 {
		t.Fatalf("once released: %d stocked, %d generated; want the %d refills the budget had left queued", n, calls.Load()-takers*takes, spareTasks-1)
	}
	burst(takers, takes)
	spare.Idle()
	full := s.stocked()
	if full == 0 || full > spareTasks {
		t.Fatalf("after the bursts: %d stocked, want 1..%d", full, spareTasks)
	}
	if got, want := calls.Load(), int64(2*takers*takes+full); got != want {
		t.Fatalf("generated %d keys for %d takes and %d stocked", got, 2*takers*takes, full)
	}
	for i := 0; i < 3*full; i++ {
		before := calls.Load()
		if _, err := s.take(); err != nil {
			t.Fatal(err)
		}
		spare.Idle()
		if n := s.stocked(); n != full || calls.Load() != before+1 {
			t.Fatalf("take %d from full: %d stocked, %d generated; want %d, 1", i, n, calls.Load()-before, full)
		}
	}
}

// TestStockInlineAtOneProc: at GOMAXPROCS 1 no core is spare, so every
// take generates its key inline and the stock neither queues nor keeps
// anything.
func TestStockInlineAtOneProc(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	gen, calls := counter()
	s := &stock[int]{gen: gen}
	const takes = 64
	for i := 1; i <= takes; i++ {
		if k, err := s.take(); err != nil || k != i {
			t.Fatalf("take %d: key %d, %v", i, k, err)
		}
	}
	if !s.idle() || calls.Load() != takes {
		t.Fatalf("%d generated, %d stocked; want %d, 0", calls.Load(), s.stocked(), takes)
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
	if calls.Load() != 2 {
		t.Fatalf("after a failed refill: %d generator calls, want 2", calls.Load())
	}
	if _, err := s.take(); !errors.Is(err, boom) {
		t.Fatalf("take after the failed refill: err = %v, want %v", err, boom)
	}
	if calls.Load() != 2 || !s.idle() {
		t.Fatalf("the take that got the refill's failure generated or started something: %d calls", calls.Load())
	}
}
