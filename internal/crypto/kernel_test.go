package crypto

import (
	"crypto/aes"
	"fmt"
	"math/rand"
	"testing"
)

// forEachKernel runs f once per absorbLanes body, as a subtest named
// after it, with kernel set to that body. A body this CPU or build lacks
// is skipped with a log line that names it.
func forEachKernel(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	defer func(k laneKernel) { kernel = k }(kernel)
	for k := kernelPortable; k <= kernelWide; k++ {
		t.Run(k.String(), func(t *testing.T) {
			if k > best {
				t.Skipf("no %s kernel on this CPU or build (best: %s)", k, best)
			}
			kernel = k
			f(t)
		})
	}
}

// TestKernelSelection logs the body the batched MAC runs here, so a CI
// log says whether the wide kernel ran on its runner.
func TestKernelSelection(t *testing.T) {
	if kernel != best {
		t.Fatalf("absorbLanes runs %s, CPUID picked %s", kernel, best)
	}
	t.Logf("absorbLanes kernel: %s", best)
}

func TestPickKernel(t *testing.T) {
	const (
		ecx1 = cpuidAES | cpuidOSXSAVE | cpuidAVX
		ebx7 = cpuidAVX512F
		ecx7 = cpuidVAES
		vl   = 1 << 31 // CPUID.7.0:EBX.AVX512VL
	)
	for _, c := range []struct {
		name                   string
		ecx1, ebx7, ecx7, xcr0 uint32
		want                   laneKernel
	}{
		{"nothing", 0, 0, 0, 0, kernelPortable},
		{"no AES-NI", ecx1 &^ cpuidAES, ebx7 | vl, ecx7, xcr0ZMM, kernelPortable},
		{"AES-NI only", cpuidAES, 0, 0, 0, kernelXMM},
		{"AES-NI and AVX, no AVX-512", ecx1, 0, 0, 1<<1 | 1<<2, kernelXMM},
		{"VAES without AVX512F", ecx1, vl, ecx7, xcr0ZMM, kernelXMM},
		{"AVX512F without VAES", ecx1, ebx7 | vl, 0, xcr0ZMM, kernelXMM},
		{"no OSXSAVE", ecx1 &^ cpuidOSXSAVE, ebx7, ecx7, xcr0ZMM, kernelXMM},
		{"no AVX", ecx1 &^ cpuidAVX, ebx7, ecx7, xcr0ZMM, kernelXMM},
		{"XCR0 without opmask", ecx1, ebx7, ecx7, xcr0ZMM &^ (1 << 5), kernelXMM},
		{"XCR0 without ZMM_Hi256", ecx1, ebx7, ecx7, xcr0ZMM &^ (1 << 6), kernelXMM},
		{"XCR0 without Hi16_ZMM", ecx1, ebx7, ecx7, xcr0ZMM &^ (1 << 7), kernelXMM},
		{"XCR0 without AVX state", ecx1, ebx7, ecx7, xcr0ZMM &^ (1 << 2), kernelXMM},
		{"no AVX512VL", ecx1, ebx7, ecx7, xcr0ZMM, kernelWide},
		{"everything", ^uint32(0), ^uint32(0), ^uint32(0), ^uint32(0), kernelWide},
	} {
		if got := pickKernel(c.ecx1, c.ebx7, c.ecx7, c.xcr0); got != c.want {
			t.Errorf("%s (%#x %#x %#x %#x): %s, want %s", c.name, c.ecx1, c.ebx7, c.ecx7, c.xcr0, got, c.want)
		}
	}
}

// refChain is the CBC chain absorbLanes runs, on crypto/aes: state =
// E(key, state ^ block) for the first n blocks of src.
func refChain(t *testing.T, key []byte, state [aes.BlockSize]byte, src []byte, n int) [aes.BlockSize]byte {
	t.Helper()
	block, err := aes.NewCipher(key)
	if err != nil {
		t.Fatal(err)
	}
	for i := range n {
		refXorBlock(&state, src[i*aes.BlockSize:])
		block.Encrypt(state[:], state[:])
	}
	return state
}

// TestAbsorbLanesKernelsAgree runs absorbLanes on every body with random
// keys, states and blocks, live lanes 1 to 8 and runs of 1 to 100 blocks,
// and holds every lane's state to crypto/aes: a live lane's chain, and
// for an 8-lane kernel an idle lane's too, which must be lane 0's input
// chained from the idle lane's own state (the fill). The portable body
// leaves idle lanes as they were.
func TestAbsorbLanesKernelsAgree(t *testing.T) {
	forEachKernel(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(33))
		var keys [maxLanes][SymKeySize]byte
		var scheds [maxLanes]schedule
		var srcs [maxLanes][]byte
		for live := 1; live <= maxLanes; live++ {
			for n := 1; n <= 100; n++ {
				var lanes [maxLanes]lane
				var start [maxLanes][aes.BlockSize]byte
				for i := range keys {
					rng.Read(keys[i][:])
					if err := scheds[i].init(keys[i][:]); err != nil {
						t.Fatal(err)
					}
					srcs[i] = make([]byte, n*aes.BlockSize)
					rng.Read(srcs[i])
				}
				for i := range lanes {
					rng.Read(start[i][:])
					// Idle lanes hold a stale key and run, as a retired
					// group leaves them; the fill must replace both.
					lanes[i] = lane{state: start[i], key: &scheds[i], src: srcs[i]}
				}
				filled := live > 1 && kernel != kernelPortable
				absorbLanes(&lanes, live, n)
				for i := range lanes {
					from, want := i, start[i]
					if i >= live {
						from = 0
					}
					if i < live || filled {
						want = refChain(t, keys[from][:], start[i], srcs[from], n)
					}
					if lanes[i].state != want {
						t.Fatalf("live %d, n %d: lane %d state %x, want %x", live, n, i, lanes[i].state, want)
					}
				}
			}
		}
	})
}

// BenchmarkAbsorbLanes runs eight chains of n blocks per call on every
// body; one op is one call.
func BenchmarkAbsorbLanes(b *testing.B) {
	for _, n := range []int{1, 2, 4, 95} {
		for k := kernelPortable; k <= best; k++ {
			b.Run(fmt.Sprintf("n=%d/%s", n, k), func(b *testing.B) {
				defer func(prev laneKernel) { kernel = prev }(kernel)
				kernel = k
				var scheds [maxLanes]schedule
				var lanes [maxLanes]lane
				src := make([]byte, n*aes.BlockSize)
				for i := range lanes {
					if err := scheds[i].init(cmacKey); err != nil {
						b.Fatal(err)
					}
					lanes[i].key, lanes[i].src = &scheds[i], src
				}
				for range b.N {
					absorbLanes(&lanes, maxLanes, n)
				}
			})
		}
	}
}

// BenchmarkMACBatchVerify is the root BenchmarkPacketMACVerifyBatch one
// layer down, on every body: 64 jobs from 64 keys per Verify, each a
// frame's MAC input as wire stages it (56 header bytes and up to 8
// payload bytes in a buffer, then the rest of the payload) with an
// 8-byte tag. The mixes are the root benchmark's: uniform
// 128 B and 1518 B frames, 64 B and 1518 B alternating, and an IMIX of
// 64, 594 and 1518 B at 7:4:1 in a fixed shuffled order. One op is one
// job; `-bench MACBatchVerify/1518B` compares the bodies on one machine.
func BenchmarkMACBatchVerify(b *testing.B) {
	const batch = 64
	imix := make([]int, batch)
	for i := range imix {
		imix[i] = [12]int{64, 64, 64, 64, 64, 64, 64, 594, 594, 594, 594, 1518}[i%12]
	}
	rand.New(rand.NewSource(1)).Shuffle(batch, func(i, j int) { imix[i], imix[j] = imix[j], imix[i] })
	for _, mix := range []struct {
		name  string
		sizes []int // job i is a frame of sizes[i%len(sizes)] bytes
	}{
		{"128B", []int{128}},
		{"1518B", []int{1518}},
		{"64B+1518B", []int{64, 1518}},
		{"IMIX", imix},
	} {
		for k := kernelPortable; k <= best; k++ {
			b.Run(mix.name+"/"+k.String(), func(b *testing.B) {
				defer func(prev laneKernel) { kernel = prev }(kernel)
				kernel = k // before the keys: portable keys are crypto/aes blocks
				rng := rand.New(rand.NewSource(2))
				jobs := make([]MACJob, batch)
				macs := make([]CMAC, batch)
				for i := range jobs {
					key := make([]byte, SymKeySize)
					rng.Read(key)
					if err := macs[i].Init(key); err != nil {
						b.Fatal(err)
					}
					payload := mix.sizes[i%len(mix.sizes)] - 64
					staged := min(payload, 8)
					head, rest := make([]byte, 56+staged), make([]byte, payload-staged)
					rng.Read(head)
					rng.Read(rest)
					tag := make([]byte, 8)
					if err := macs[i].SumTruncated(tag, len(tag), head, rest); err != nil {
						b.Fatal(err)
					}
					jobs[i] = MACJob{MAC: &macs[i], Msg: [2][]byte{head, rest}, Tag: tag}
				}
				var mb MACBatch
				b.ReportAllocs()
				b.ResetTimer()
				for n := 0; n < b.N; n += batch {
					mb.Verify(jobs)
					for i := range jobs {
						if !jobs[i].OK {
							b.Fatal("verify failed")
						}
					}
				}
			})
		}
	}
}
