package crypto

import (
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"fmt"
	"sync/atomic"
)

// The CBC core of CMAC. Everything above it — Sum, Verify, the packet
// MAC, the border pipelines' batch — reaches AES through two calls:
// schedule.absorb chains whole blocks into one CBC state, absorbLanes
// chains them into up to maxLanes independent states in lock-step. Each
// has an AES-NI kernel (absorb_amd64.s) and the portable loop over
// crypto/aes below, and absorbLanes has a third body, the same eight
// chains on VAES with AVX-512; absorb_amd64.go and absorb_generic.go
// pick between them from CPUID and GOARCH.

// maxLanes is how many independent CBC chains absorbLanes interleaves:
// AESENC has a latency of several cycles and a throughput of one or two
// per cycle, so one chain leaves the AES unit mostly idle and eight
// fill it.
const maxLanes = 8

// laneKernel is a body of absorbLanes. The kernels form a ladder: a CPU
// that runs one runs every kernel below it.
type laneKernel uint8

const (
	kernelPortable laneKernel = iota // crypto/aes, one lane after the other
	kernelXMM                        // absorb8: one chain per XMM register
	kernelWide                       // absorbWide: four chains per ZMM register
)

func (k laneKernel) String() string {
	return [...]string{"portable", "xmm", "wide"}[k]
}

// CPUID and XCR0 bits pickKernel reads.
const (
	cpuidAES     = 1 << 25 // CPUID.1:ECX
	cpuidOSXSAVE = 1 << 27 // CPUID.1:ECX: XGETBV works, XCR0 is meaningful
	cpuidAVX     = 1 << 28 // CPUID.1:ECX: the VEX moves and VZEROUPPER
	cpuidAVX512F = 1 << 16 // CPUID.7.0:EBX
	cpuidVAES    = 1 << 9  // CPUID.7.0:ECX

	// xcr0ZMM is the state the OS must save for the wide kernel: SSE
	// and AVX (bits 1, 2), the opmask registers, the upper halves of
	// Z0-Z15 and all of Z16-Z31 (bits 5-7).
	xcr0ZMM = 1<<1 | 1<<2 | 1<<5 | 1<<6 | 1<<7
)

// pickKernel maps the raw words CPUID.1:ECX, CPUID.7.0:EBX, CPUID.7.0:ECX
// and XCR0 to the fastest kernel they allow. The wide kernel needs VAES
// and AVX512F from the CPU and ZMM state from the OS: a CPU with both
// under an OS that does not save the upper registers must not run it.
// It names X16-X31 only as whole ZMM registers, so AVX512VL does not
// matter.
func pickKernel(ecx1, ebx7, ecx7, xcr0 uint32) laneKernel {
	switch {
	case ecx1&cpuidAES == 0:
		return kernelPortable
	case ecx1&(cpuidOSXSAVE|cpuidAVX) != cpuidOSXSAVE|cpuidAVX,
		xcr0&xcr0ZMM != xcr0ZMM,
		ebx7&cpuidAVX512F == 0,
		ecx7&cpuidVAES == 0:
		return kernelXMM
	}
	return kernelWide
}

// schedule is one chain's expanded AES key. Where a kernel runs, an
// AES-128 key is expanded into rk and sw stays nil; everywhere else (no
// AES-NI, the purego build, a 24- or 32-byte key) sw holds a crypto/aes
// block and rk is unused.
type schedule struct {
	rk [11][aes.BlockSize]byte
	sw *swChain
}

// swChain is the portable chaining step: a crypto/aes block. It is only
// read once keyed, like the kernels' round keys, so one schedule serves
// any number of goroutines at once.
type swChain struct {
	block cipher.Block
}

func (s *schedule) initPortable(key []byte) error {
	block, err := aes.NewCipher(key)
	if err != nil {
		return fmt.Errorf("crypto: cmac key: %w", err)
	}
	s.sw = &swChain{block: block}
	return nil
}

// absorb chains the first n blocks of src into state, in a block
// borrowed from swBlocks.
func (s *swChain) absorb(state *[aes.BlockSize]byte, src []byte, n int) {
	x := takeSWBlock()
	*x = *state
	for ; n > 0; n-- {
		xorBlock(x, src)
		s.block.Encrypt(x[:], x[:])
		src = src[aes.BlockSize:]
	}
	*state = *x
	putSWBlock(x)
}

// swBlocks lends the portable path a heap block to encrypt in:
// arguments of a cipher.Block interface call escape, and routing them
// through here is what keeps the callers' blocks — a CMAC's chain
// state, BlockPair.Encrypt's blocks — on their stacks. It is a fixed set
// of slots emptied and refilled by atomic swaps, not a sync.Pool: the
// race detector drops Pool Puts at random, which would make the callers
// allocate under -race, and the forwarding plane takes no locks or
// channel operations.
var swBlocks [64]atomic.Pointer[[aes.BlockSize]byte]

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

// putSWBlock hands x back to the first empty slot of swBlocks, or drops
// it when every slot is full.
func putSWBlock(x *[aes.BlockSize]byte) {
	for i := range swBlocks {
		if swBlocks[i].CompareAndSwap(nil, x) {
			return
		}
	}
}

// lane is one of the CBC chains absorbLanes advances: state = E(key,
// state ^ block) for each block of src. The 8-lane kernels address
// state, key and src by offset (absorb_amd64.go asserts the layout).
type lane struct {
	state [aes.BlockSize]byte
	key   *schedule
	src   []byte // whole blocks to absorb next
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
