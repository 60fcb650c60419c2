//go:build !amd64 || purego

package crypto

import "crypto/aes"

// The portable body is the only one here.
var (
	best   = kernelPortable
	kernel = best
)

func (s *schedule) init(key []byte) error { return s.initPortable(key) }

// absorb chains the first n blocks of src into state.
func (s *schedule) absorb(state *[aes.BlockSize]byte, src []byte, n int) {
	s.sw.absorb(state, src, n)
}

// absorbLanes chains the first n blocks of every lanes[:live] into its
// state.
func absorbLanes(lanes *[maxLanes]lane, live, n int) { absorbEach(lanes, live, n) }

// encryptLanes reports that there is no kernel to encrypt on.
func (p *BlockPair) encryptLanes(a, b *[PairLanes][aes.BlockSize]byte) bool { return false }
