package crypto

import (
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"fmt"
)

// The CBC core of CMAC. Everything above it — Sum, Verify, the packet
// MAC, the border pipelines' batch — reaches AES through two calls:
// schedule.absorb chains whole blocks into one CBC state, absorbLanes
// chains them into up to maxLanes independent states in lock-step. Each
// has an AES-NI kernel (absorb_amd64.s) and the portable loop over
// crypto/aes below; absorb_amd64.go and absorb_generic.go pick between
// them from CPUID and GOARCH.

// maxLanes is how many independent CBC chains absorbLanes interleaves:
// AESENC has a latency of several cycles and a throughput of one or two
// per cycle, so one chain leaves the AES unit mostly idle and eight
// fill it.
const maxLanes = 8

// schedule is one chain's expanded AES key. Where the kernel runs, an
// AES-128 key is expanded into rk and sw stays nil; everywhere else (no
// AES-NI, the purego build, a 24- or 32-byte key) sw holds a crypto/aes
// block and rk is unused.
type schedule struct {
	rk [11][aes.BlockSize]byte
	sw *swChain
}

// swChain is the portable chaining step: a crypto/aes block and the
// heap scratch it encrypts in. Arguments of a cipher.Block interface
// call escape, so chaining through x instead of through the caller's
// state is what lets a CMAC value live on its caller's stack.
type swChain struct {
	block cipher.Block
	x     [aes.BlockSize]byte
}

func (s *schedule) initPortable(key []byte) error {
	block, err := aes.NewCipher(key)
	if err != nil {
		return fmt.Errorf("crypto: cmac key: %w", err)
	}
	s.sw = &swChain{block: block}
	return nil
}

// absorb chains the first n blocks of src into state.
func (s *swChain) absorb(state *[aes.BlockSize]byte, src []byte, n int) {
	s.x = *state
	for ; n > 0; n-- {
		xorBlock(&s.x, src)
		s.block.Encrypt(s.x[:], s.x[:])
		src = src[aes.BlockSize:]
	}
	*state = s.x
}

// lane is one of the CBC chains absorbLanes advances: state = E(key,
// state ^ block) for each block of src. The 8-lane kernel addresses
// state, key and src by offset (absorb_amd64.go asserts the layout).
type lane struct {
	state [aes.BlockSize]byte
	key   *schedule
	src   []byte // whole blocks to absorb next
	ch    *chain // the message src is a run of; unused by absorbLanes
}

// absorbEach is absorbLanes one lane after the other.
func absorbEach(lanes *[maxLanes]lane, live, n int) {
	for i := range lanes[:live] {
		l := &lanes[i]
		l.key.absorb(&l.state, l.src, n)
	}
}

// xorBlock XORs the first 16 bytes of b into x, a word at a time.
func xorBlock(x *[aes.BlockSize]byte, b []byte) {
	_ = b[aes.BlockSize-1]
	le := binary.LittleEndian
	le.PutUint64(x[0:], le.Uint64(x[0:])^le.Uint64(b[0:]))
	le.PutUint64(x[8:], le.Uint64(x[8:])^le.Uint64(b[8:]))
}
