package crypto

import (
	"sync"

	"apna/internal/spare"
)

// stock keeps fresh key pairs of one type ahead of demand, so that the
// caller's core does not pay for generating them: a take pops a stocked
// key, and a spare core generates its replacement (internal/spare).
//
// Replace-on-take: every take owes the stock one replacement, whether
// it popped a key or — finding the stock empty — generated one inline
// (a take never waits on a refill), and hands it to spare.Go. A
// replacement the budget refuses is not made, so at GOMAXPROCS 1 every
// key is generated inline, and a stock nobody takes from starts
// nothing. Background generation therefore never exceeds what callers
// consumed. Nor does the stock grow past the budget's task cap: stocked
// keys plus queued replacements grow only when a take finds the stock
// empty, so that each is one queued or running task, and spare.Go
// accepts the new one.
//
// Every key is fresh crypto/rand output handed out exactly once; only
// the moment it is drawn moves.
type stock[K any] struct {
	// gen generates one key pair.
	gen func() (K, error)

	mu   sync.Mutex
	keys []K
	// err is a refill's last failure. The next take that finds the
	// stock empty returns it instead of generating.
	err error
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
	spare.Go(s.refill) // under s.mu, which a refill waits for: the budget still counts it
	s.mu.Unlock()
	if n > 0 {
		return k, nil
	}
	return s.gen()
}

// refill generates one replacement. A failure waits in err for the
// next take that finds the stock empty.
func (s *stock[K]) refill() {
	k, err := s.gen()
	s.mu.Lock()
	if err != nil {
		s.err = err
	} else {
		s.keys = append(s.keys, k)
	}
	s.mu.Unlock()
}
