package crypto

import "sync"

// stockDepth bounds how many fresh key pairs of one type wait ahead of
// demand. The stock grows only when a take finds it empty, so it
// reaches this depth only after a burst of takes faster than one core
// can generate — an internet build bootstrapping every host back to
// back, a wave of EphID issuance or renewals. 64 holds one build of the
// benchmark's host worlds (64 hosts, one X25519 bootstrap key each), so
// the next build is served from stock; a deeper stock would keep more
// unused private keys in memory for the rarer, larger bursts, which
// fall back to generating inline.
const stockDepth = 64

// stock keeps fresh key pairs of one type ahead of demand, so that the
// caller's core does not pay for generating them: a take pops a stocked
// key, and a goroutine on another core generates its replacement.
//
// Replace-on-take: every take owes the stock one replacement, whether
// it popped a key or — finding the stock empty — generated one inline
// (a take never waits on the refiller). At most one refiller runs per
// stock, it exits as soon as the replacements owed are paid, and a
// stock nobody takes from starts none. Background generation therefore
// never exceeds what callers consumed, and the stock never holds more
// than stockDepth keys.
//
// Every key is fresh crypto/rand output handed out exactly once; only
// the moment it is drawn moves.
type stock[K any] struct {
	// gen generates one key pair.
	gen func() (K, error)

	mu   sync.Mutex
	keys []K
	// owed counts replacements not yet generated; len(keys)+owed never
	// exceeds stockDepth.
	owed int
	// err is the refiller's last failure. The next take that finds the
	// stock empty returns it instead of generating.
	err error
	// running is set while a refiller runs; refills counts refillers
	// that have not yet exited.
	running bool
	refills sync.WaitGroup
}

var (
	dhStock  = stock[*KeyPair]{gen: generateKeyPair}
	sigStock = stock[*Signer]{gen: generateSigner}
)

// take hands out one fresh key pair.
func (s *stock[K]) take() (K, error) {
	var k K
	s.mu.Lock()
	n := len(s.keys)
	if n == 0 && s.err != nil {
		err := s.err
		s.err = nil
		s.mu.Unlock()
		return k, err
	}
	if n > 0 {
		k = s.keys[n-1]
		var zero K
		s.keys[n-1] = zero // the stock keeps no reference to a key it handed out
		s.keys = s.keys[:n-1]
	}
	if len(s.keys)+s.owed < stockDepth {
		s.owed++
	}
	if !s.running && s.owed > 0 {
		s.running = true
		s.refills.Add(1)
		go s.refill()
	}
	s.mu.Unlock()
	if n > 0 {
		return k, nil
	}
	return s.gen()
}

// refill generates the replacements owed, then exits. A failure stops
// it and waits in err for the next take that finds the stock empty.
func (s *stock[K]) refill() {
	defer s.refills.Done()
	for {
		k, err := s.gen()
		s.mu.Lock()
		if err != nil {
			s.err, s.owed = err, 0
		} else {
			s.keys = append(s.keys, k)
			s.owed--
		}
		if s.owed == 0 {
			s.running = false
			s.mu.Unlock()
			return
		}
		s.mu.Unlock()
	}
}
