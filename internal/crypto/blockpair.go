package crypto

import (
	"crypto/aes"
	"sync/atomic"
)

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

// swBlocks lends the portable path a heap block to encrypt in:
// arguments of a cipher.Block interface call escape, and routing them
// through here is what keeps Encrypt's callers' blocks on their stacks.
// It is a fixed set of slots emptied and refilled by atomic swaps, not
// a sync.Pool: the race detector drops Pool Puts at random, which would
// make Encrypt allocate under -race, and the forwarding plane takes no
// locks or channel operations.
var swBlocks [64]atomic.Pointer[[aes.BlockSize]byte]

// Encrypt replaces a[i] by its encryption under the first key and b[i]
// by its encryption under the second, for every i below n; the other
// blocks are scratch. It does not allocate.
func (p *BlockPair) Encrypt(a, b *[PairLanes][aes.BlockSize]byte, n int) {
	if p.encryptLanes(a, b) {
		return
	}
	// A swChain's scratch is one goroutine's; its cipher.Block is not.
	x := takeSWBlock()
	for i := 0; i < n; i++ {
		p.a.encryptBlock(&a[i], x)
		p.b.encryptBlock(&b[i], x)
	}
	for i := range swBlocks {
		if swBlocks[i].CompareAndSwap(nil, x) {
			return
		}
	}
}

// takeSWBlock empties the first full slot of swBlocks, or allocates
// when every slot is empty (only until as many blocks are out at once
// as ever were).
func takeSWBlock() *[aes.BlockSize]byte {
	for i := range swBlocks {
		if swBlocks[i].Load() != nil {
			if x := swBlocks[i].Swap(nil); x != nil {
				return x
			}
		}
	}
	return new([aes.BlockSize]byte) //apna:alloc-ok
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
