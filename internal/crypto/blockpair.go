package crypto

import "crypto/aes"

// PairLanes is how many blocks per key one BlockPair.Encrypt call takes:
// the two keys share the lane kernel's chains.
const PairLanes = maxLanes / 2

// BlockPair encrypts single blocks under two AES keys side by side. It
// exists for the EphID construction (Figure 6), whose tag and keystream
// are one block each under two keys and depend on nothing but the EphID:
// opening PairLanes EphIDs is maxLanes independent AES operations, which
// the lane kernel runs interleaved where one after the other each would
// wait out the AES latency. A BlockPair is safe for concurrent use.
type BlockPair struct {
	a, b schedule
}

// NewBlockPair keys a BlockPair (16, 24 or 32 bytes each).
//
//apna:only apna/internal/ephid
func NewBlockPair(keyA, keyB []byte) (*BlockPair, error) {
	p := new(BlockPair)
	if err := p.a.init(keyA); err != nil {
		return nil, err
	}
	if err := p.b.init(keyB); err != nil {
		return nil, err
	}
	return p, nil
}

// Encrypt replaces a[i] by its encryption under the first key and b[i]
// by its encryption under the second, for every i below n; the other
// blocks are scratch. It does not allocate.
func (p *BlockPair) Encrypt(a, b *[PairLanes][aes.BlockSize]byte, n int) {
	if p.encryptLanes(a, b) {
		return
	}
	x := takeSWBlock()
	for i := 0; i < n; i++ {
		p.a.encryptBlock(&a[i], x)
		p.b.encryptBlock(&b[i], x)
	}
	putSWBlock(x)
}

// encryptBlock replaces b by its encryption, through the heap block x
// where crypto/aes does the work.
func (s *schedule) encryptBlock(b, x *[aes.BlockSize]byte) {
	if s.sw != nil {
		*x = *b
		s.sw.block.Encrypt(x[:], x[:])
		*b = *x
		return
	}
	*x = [aes.BlockSize]byte{}
	s.absorb(x, b[:], 1)
	*b = *x
}
