//go:build amd64 && !purego

package crypto

import (
	"crypto/aes"
	"unsafe"
)

// best is the fastest kernel the CPU and OS run, read from CPUID once;
// kernel is the one absorbLanes runs: best, unless this package's own
// tests and benchmarks swap it to compare the bodies.
var (
	best   = pickKernel(cpuid())
	kernel = best
)

// The kernels address lane fields by these offsets; a layout change
// must break the build, not the MAC.
var (
	_ = [1]struct{}{}[unsafe.Offsetof(lane{}.state)-0]
	_ = [1]struct{}{}[unsafe.Offsetof(lane{}.key)-16]
	_ = [1]struct{}{}[unsafe.Offsetof(lane{}.src)-24]
	_ = [1]struct{}{}[unsafe.Sizeof(lane{})-48]
	_ = [1]struct{}{}[unsafe.Offsetof(schedule{}.rk)-0]
)

// cpuid returns the raw words pickKernel reads.
func cpuid() (ecx1, ebx7, ecx7, xcr0 uint32)

// expandKey128 writes the 11 AES-128 round keys of key into rk
// (AESKEYGENASSIST; no table lookup).
//
//go:noescape
func expandKey128(rk *[11][aes.BlockSize]byte, key *[SymKeySize]byte)

// absorb1 chains the n blocks at src into state under the round keys
// rk. n must be at least 1.
//
//go:noescape
func absorb1(state *[aes.BlockSize]byte, rk *[11][aes.BlockSize]byte, src *byte, n int)

// absorb8 is absorb1 over eight lanes at once, one chain per XMM
// register, every lane under its own round keys. n must be at least 1
// and every lane must hold n blocks.
//
//go:noescape
func absorb8(lanes *[maxLanes]lane, n int)

// absorbWide is absorb8 with the eight chains as two ZMM registers of
// four, under VAES. Same contract; only a kernelWide CPU may call it.
//
//go:noescape
func absorbWide(lanes *[maxLanes]lane, n int)

func (s *schedule) init(key []byte) error {
	if kernel == kernelPortable || len(key) != SymKeySize {
		return s.initPortable(key)
	}
	s.sw = nil
	expandKey128(&s.rk, (*[SymKeySize]byte)(key))
	return nil
}

// absorb chains the first n blocks of src into state. n must be at
// least 1.
func (s *schedule) absorb(state *[aes.BlockSize]byte, src []byte, n int) {
	if s.sw != nil {
		s.sw.absorb(state, src, n)
		return
	}
	absorb1(state, &s.rk, &src[0], n)
}

// absorbLanes chains the first n blocks of every lanes[:live] into its
// state. lanes[live:] are scratch: both 8-lane kernels always run eight
// chains, so idle lanes repeat lane 0's input and their output is never
// read.
func absorbLanes(lanes *[maxLanes]lane, live, n int) {
	batched := live > 1
	for i := range lanes[:live] {
		batched = batched && lanes[i].key.sw == nil
	}
	if !batched {
		absorbEach(lanes, live, n)
		return
	}
	for i := live; i < maxLanes; i++ {
		lanes[i].key, lanes[i].src = lanes[0].key, lanes[0].src
	}
	if kernel == kernelWide {
		absorbWide(lanes, n)
		return
	}
	absorb8(lanes, n)
}

// encryptLanes is BlockPair.Encrypt on the kernel: one-block CBC from a
// zero state is the block cipher itself, so the eight blocks are eight
// lanes. It reports false, having done nothing, when a key has no round
// keys for it. It calls the kernel itself, not absorbLanes, whose
// portable branch would make escape analysis move a and b to the heap.
func (p *BlockPair) encryptLanes(a, b *[PairLanes][aes.BlockSize]byte) bool {
	if p.a.sw != nil || p.b.sw != nil {
		return false
	}
	var lanes [maxLanes]lane
	for i := range a {
		lanes[i].key, lanes[i].src = &p.a, a[i][:]
		lanes[PairLanes+i].key, lanes[PairLanes+i].src = &p.b, b[i][:]
	}
	absorb8(&lanes, 1)
	for i := range a {
		a[i], b[i] = lanes[i].state, lanes[PairLanes+i].state
	}
	return true
}
