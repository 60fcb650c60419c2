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

// spareTasks is internal/spare's cap on tasks queued or running. Every
// owed key is one such task, so it bounds a stock's stocked plus owed
// keys too.
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
// queued generate the replacements owed and nothing beyond them — every
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
	if s.owed != 0 {
		t.Fatalf("refills still owe %d", s.owed)
	}
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

// TestStockWithinTaskCap: stocked plus owed keys never pass the spare
// budget's task cap, however takes from several goroutines race the
// refills. A task that holds the one spare core makes it exact: takes
// from the empty stock queue refills behind it until the budget is
// full, then generate inline and queue nothing; once it lets go, the
// refills run while the takes go on. Afterwards each take from the
// full stock queues exactly one replacement, so the stock stays full.
func TestStockWithinTaskCap(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2)) // one spare core
	spare.Idle()
	gen, calls := counter()
	s := &stock[int]{gen: gen}
	sum := func() int {
		s.mu.Lock()
		defer s.mu.Unlock()
		return len(s.keys) + s.owed
	}
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
					if n := sum(); n > spareTasks {
						t.Errorf("%d keys stocked or owed, the task cap is %d", n, spareTasks)
						return
					}
				}
			}()
		}
		wg.Wait()
	}
	const takers, takes = 4, 3 * spareTasks
	burst(takers, takes)
	if n := sum(); n != spareTasks-1 {
		t.Fatalf("with the spare core held: %d keys owed, want the %d tasks the budget had left", n, spareTasks-1)
	}
	close(release)
	burst(takers, takes)
	spare.Idle()
	full := len(s.keys)
	if s.owed != 0 || full == 0 || full > spareTasks {
		t.Fatalf("after the bursts: %d stocked, %d owed; want 1..%d, 0", full, s.owed, spareTasks)
	}
	if got, want := calls.Load(), int64(2*takers*takes+full); got != want {
		t.Fatalf("generated %d keys for %d takes and %d stocked", got, 2*takers*takes, full)
	}
	for i := 0; i < 3*full; i++ {
		if _, err := s.take(); err != nil {
			t.Fatal(err)
		}
		if n := sum(); n != full {
			t.Fatalf("take %d from full: %d stocked or owed, want %d", i, n, full)
		}
		spare.Idle()
		if len(s.keys) != full || s.owed != 0 {
			t.Fatalf("take %d from full: %d stocked, %d owed; want %d, 0", i, len(s.keys), s.owed, full)
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
	if calls.Load() != takes || !s.idle() {
		t.Fatalf("%d generated, %d stocked, %d owed; want %d, 0, 0", calls.Load(), len(s.keys), s.owed, takes)
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
