package crypto

import (
	"bytes"
	"errors"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// stocksIdleAtStart records, before any test runs, whether the package's
// two stocks were idle: nothing stocked, nothing owed, no refiller.
var stocksIdleAtStart bool

func TestMain(m *testing.M) {
	stocksIdleAtStart = dhStock.idle() && sigStock.idle()
	os.Exit(m.Run())
}

func (s *stock[K]) idle() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.keys) == 0 && s.owed == 0 && !s.running
}

// wait returns once every refiller started on s has exited.
func (s *stock[K]) wait() { s.refills.Wait() }

// waitRefills returns once neither of the package's stocks is being
// refilled. testing.AllocsPerRun counts every goroutine's mallocs, so an
// allocation test calls it first.
func waitRefills() {
	dhStock.wait()
	sigStock.wait()
}

// counter is a generator whose keys are 1, 2, 3, ...; calls says how
// many it made.
func counter() (gen func() (int, error), calls *atomic.Int64) {
	calls = new(atomic.Int64)
	return func() (int, error) { return int(calls.Add(1)), nil }, calls
}

// TestStockIdleUntilTaken: a program that imports the package and has
// not taken a key has no key stocked and no refiller started.
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
	waitRefills()
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

// TestStockRefillerExitsWhenPaid: after a burst of takes the refiller
// generates the replacements owed and exits, having generated nothing
// beyond them — every key generated was either handed out or is in
// stock, each exactly once.
func TestStockRefillerExitsWhenPaid(t *testing.T) {
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
	s.wait()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.running || s.owed != 0 {
		t.Fatalf("refiller still owes %d (running: %v)", s.owed, s.running)
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

// TestStockNeverExceedsDepth holds the refiller back while takes pile up
// replacements: what is owed stops at the depth, the refiller then
// fills the stock to exactly the depth, and takes from a full stock
// keep it there.
func TestStockNeverExceedsDepth(t *testing.T) {
	gen, calls := counter()
	s := &stock[int]{gen: gen}
	s.running = true // as if a refiller ran: takes start none
	for i := 0; i < 2*stockDepth; i++ {
		if _, err := s.take(); err != nil {
			t.Fatal(err)
		}
	}
	if s.owed != stockDepth || len(s.keys) != 0 {
		t.Fatalf("after %d inline takes: %d owed, %d stocked; want %d, 0", 2*stockDepth, s.owed, len(s.keys), stockDepth)
	}
	s.running = false
	check := func(when string) {
		t.Helper()
		s.wait()
		if len(s.keys) != stockDepth || s.owed != 0 {
			t.Fatalf("%s: %d stocked, %d owed; want %d, 0", when, len(s.keys), s.owed, stockDepth)
		}
	}
	if _, err := s.take(); err != nil { // finds the stock empty, starts the refiller
		t.Fatal(err)
	}
	check("refilled")
	for i := 0; i < 3*stockDepth; i++ {
		if _, err := s.take(); err != nil {
			t.Fatal(err)
		}
		s.mu.Lock()
		n := len(s.keys) + s.owed
		s.mu.Unlock()
		if n > stockDepth {
			t.Fatalf("take %d: %d stocked or owed, depth is %d", i, n, stockDepth)
		}
	}
	check("taken from full")
	if got, want := calls.Load(), int64(2*stockDepth+1+3*stockDepth+stockDepth); got != want {
		t.Fatalf("generated %d keys, want %d", got, want)
	}
}

// TestStockFailureReachesTaker: a refiller whose generator fails
// stops at once, and the next take that finds the stock empty returns
// that failure instead of generating.
func TestStockFailureReachesTaker(t *testing.T) {
	boom := errors.New("entropy source failed")
	var calls atomic.Int64
	s := &stock[int]{gen: func() (int, error) {
		calls.Add(1)
		return 0, boom
	}}
	if _, err := s.take(); !errors.Is(err, boom) {
		t.Fatalf("inline generation: err = %v, want %v", err, boom)
	}
	s.wait()
	if calls.Load() != 2 || s.owed != 0 || s.running {
		t.Fatalf("after a failed refill: %d generator calls, %d owed, running %v; want 2, 0, false",
			calls.Load(), s.owed, s.running)
	}
	if _, err := s.take(); !errors.Is(err, boom) {
		t.Fatalf("take after the failed refill: err = %v, want %v", err, boom)
	}
	if calls.Load() != 2 || !s.idle() {
		t.Fatalf("the take that got the refiller's failure generated or started something: %d calls", calls.Load())
	}
}

// refillerFrame is how a goroutine dump names a running refiller. Test
// packages whose allocation tests build internets wait for it to leave
// the dump (ownership_test.go at the root, internal/session); this test
// keeps the name they look for honest.
const refillerFrame = "created by apna/internal/crypto.(*stock["

func TestStockRefillerInGoroutineDump(t *testing.T) {
	entered, release := make(chan struct{}, 2), make(chan struct{})
	s := &stock[int]{gen: func() (int, error) {
		entered <- struct{}{}
		<-release
		return 0, nil
	}}
	taken := make(chan error)
	go func() {
		_, err := s.take() // starts the refiller, then generates inline
		taken <- err
	}()
	<-entered // the take's own generation and the refiller's are both
	<-entered // blocked in gen
	buf := make([]byte, 1<<20)
	dump := buf[:runtime.Stack(buf, true)]
	close(release)
	if err := <-taken; err != nil {
		t.Fatal(err)
	}
	s.wait()
	if !bytes.Contains(dump, []byte(refillerFrame)) {
		t.Fatalf("a running refiller is not named %q in the goroutine dump:\n%s", refillerFrame, dump)
	}
}
