package crypto

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"math/rand/v2"
	"sync"
	"testing"
	"testing/quick"

	"apna/internal/spare"
)

func mustHex(t *testing.T, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatalf("bad hex %q: %v", s, err)
	}
	return b
}

// RFC 5869 Appendix A test vectors for HKDF-SHA256.
func TestHKDFRFC5869Case1(t *testing.T) {
	ikm := mustHex(t, "0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b")
	salt := mustHex(t, "000102030405060708090a0b0c")
	info := mustHex(t, "f0f1f2f3f4f5f6f7f8f9")
	wantPRK := mustHex(t, "077709362c2e32df0ddc3f0dc47bba6390b6c73bb50f9c3122ec844ad7c2b3e5")
	wantOKM := mustHex(t, "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf34007208d5b887185865")

	prk := HKDFExtract(salt, ikm)
	if !bytes.Equal(prk, wantPRK) {
		t.Errorf("PRK = %x, want %x", prk, wantPRK)
	}
	okm := HKDFExpand(prk, info, 42)
	if !bytes.Equal(okm, wantOKM) {
		t.Errorf("OKM = %x, want %x", okm, wantOKM)
	}
	if got := HKDF(ikm, salt, info, 42); !bytes.Equal(got, wantOKM) {
		t.Errorf("HKDF = %x, want %x", got, wantOKM)
	}
}

func TestHKDFRFC5869Case2(t *testing.T) {
	ikm := mustHex(t, "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f202122232425262728292a2b2c2d2e2f303132333435363738393a3b3c3d3e3f404142434445464748494a4b4c4d4e4f")
	salt := mustHex(t, "606162636465666768696a6b6c6d6e6f707172737475767778797a7b7c7d7e7f808182838485868788898a8b8c8d8e8f909192939495969798999a9b9c9d9e9fa0a1a2a3a4a5a6a7a8a9aaabacadaeaf")
	info := mustHex(t, "b0b1b2b3b4b5b6b7b8b9babbbcbdbebfc0c1c2c3c4c5c6c7c8c9cacbcccdcecfd0d1d2d3d4d5d6d7d8d9dadbdcdddedfe0e1e2e3e4e5e6e7e8e9eaebecedeeeff0f1f2f3f4f5f6f7f8f9fafbfcfdfeff")
	wantOKM := mustHex(t, "b11e398dc80327a1c8e7f78c596a49344f012eda2d4efad8a050cc4c19afa97c59045a99cac7827271cb41c65e590e09da3275600c2f09b8367793a9aca3db71cc30c58179ec3e87c14c01d5c1f3434f1d87")

	if got := HKDF(ikm, salt, info, 82); !bytes.Equal(got, wantOKM) {
		t.Errorf("HKDF = %x, want %x", got, wantOKM)
	}
}

func TestHKDFRFC5869Case3(t *testing.T) {
	ikm := mustHex(t, "0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b")
	wantOKM := mustHex(t, "8da4e775a563c18f715f802a063c5a31b8a11f5c5ee1879ec3454e5f3c738d2d9d201395faa4b61a96c8")

	if got := HKDF(ikm, nil, nil, 42); !bytes.Equal(got, wantOKM) {
		t.Errorf("HKDF = %x, want %x", got, wantOKM)
	}
}

func TestHKDFExpandMaxLength(t *testing.T) {
	prk := HKDFExtract(nil, []byte("ikm"))
	out := HKDFExpand(prk, nil, 255*hashLen)
	if len(out) != 255*hashLen {
		t.Fatalf("len = %d, want %d", len(out), 255*hashLen)
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic for over-long expand")
		}
	}()
	HKDFExpand(prk, nil, 255*hashLen+1)
}

func TestDeriveKeyLabelsIndependent(t *testing.T) {
	secret := []byte("0123456789abcdef")
	a := DeriveKey(secret, "label-a", 32)
	b := DeriveKey(secret, "label-b", 32)
	if bytes.Equal(a, b) {
		t.Error("different labels produced identical keys")
	}
	a2 := DeriveKey(secret, "label-a", 32)
	if !bytes.Equal(a, a2) {
		t.Error("derivation is not deterministic")
	}
}

// TestDeriveHostASKeysIsDeriveKey pins that the resumed pad states
// change no byte of either key: both are DeriveKey's under their
// labels, for every secret length from 0 to 64 — the population's
// 12-byte seeds and the registry's 32-byte DH secret among them — on
// either side of the lengths where the extract's inner hash needs
// another SHA-256 block (55, 119 and 183 bytes still fit their last
// block with its padding), and for secrets of several blocks.
func TestDeriveHostASKeysIsDeriveKey(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	lengths := []int{119, 120, 121, 183, 184, 185, 200, 1000}
	for n := 0; n <= 64; n++ {
		lengths = append(lengths, n)
	}
	for _, n := range lengths {
		for range 4 {
			secret := make([]byte, n)
			for i := range secret {
				secret[i] = byte(rng.Uint32())
			}
			k := DeriveHostASKeys(secret)
			if enc := DeriveKey(secret, labelHostEnc, SymKeySize); !bytes.Equal(k.Enc[:], enc) {
				t.Fatalf("%d-byte secret %x: Enc = %x, DeriveKey gives %x", n, secret, k.Enc, enc)
			}
			if mac := DeriveKey(secret, labelHostMAC, SymKeySize); !bytes.Equal(k.MAC[:], mac) {
				t.Fatalf("%d-byte secret %x: MAC = %x, DeriveKey gives %x", n, secret, k.MAC, mac)
			}
		}
	}
}

// TestDeriveHostASKeysAllocs: a host registration's keys cost no heap,
// for the population's 12-byte secrets, the registry's 32-byte ones and
// a 200-byte one that spans four blocks. The secret is built inside the
// measured call in a stack array, as population.hostKeys builds it, so
// a secret that escapes into the digest counts as an allocation. Each
// run derives twice: AllocsPerRun rounds down, and one allocation per
// derivation has been seen to read 0 when the count came up short.
func TestDeriveHostASKeysAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("under -race the digest's AppendBinary allocates and sync.Pool drops scratch at random")
	}
	for _, n := range []int{12, 32, 200} {
		spare.Idle()
		var i byte
		allocs := testing.AllocsPerRun(100, func() {
			for range 2 {
				var b [200]byte
				b[0], b[n-1] = i, 7
				i++
				DeriveHostASKeys(b[:n])
			}
		})
		if allocs != 0 {
			t.Errorf("DeriveHostASKeys(%d-byte secret) allocates %.0f times, want 0", n, allocs)
		}
	}
}

// TestDeriveHostASKeysConcurrent derives overlapping secrets from
// several goroutines at once, so the pooled scratch is taken and
// handed back under contention; every pair must still be DeriveKey's.
// Run it under -race.
func TestDeriveHostASKeysConcurrent(t *testing.T) {
	secrets := make([][]byte, 16)
	for i := range secrets {
		secrets[i] = bytes.Repeat([]byte{byte(i)}, 12+13*i) // 12 … 207 bytes
	}
	want := make([]HostASKeys, len(secrets))
	for i, s := range secrets {
		want[i].Enc = [SymKeySize]byte(DeriveKey(s, labelHostEnc, SymKeySize))
		want[i].MAC = [SymKeySize]byte(DeriveKey(s, labelHostMAC, SymKeySize))
	}
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range 500 {
				i := (g + j) % len(secrets)
				if k := DeriveHostASKeys(secrets[i]); k != want[i] {
					t.Errorf("goroutine %d: %d-byte secret: got %x, want %x", g, len(secrets[i]), k, want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
}

// BenchmarkDeriveHostASKeys prices one host registration's key pair for
// the population's and ctl world's 12-byte secrets and the registry's
// and NAT's 32-byte DH secrets.
func BenchmarkDeriveHostASKeys(b *testing.B) {
	for _, n := range []int{12, 32} {
		b.Run(fmt.Sprintf("%dB", n), func(b *testing.B) {
			secret := bytes.Repeat([]byte{7}, n)
			b.ReportAllocs()
			for i := 0; b.Loop(); i++ {
				secret[0] = byte(i)
				DeriveHostASKeys(secret)
			}
		})
	}
}

func TestDeriveKeyPrefixProperty(t *testing.T) {
	// Deriving a shorter key must be a prefix of the longer derivation
	// (consequence of HKDF expand) — protocol code relies on truncation
	// stability when sizing keys.
	f := func(secret []byte, n uint8) bool {
		long := DeriveKey(secret, "l", 64)
		short := DeriveKey(secret, "l", int(n%64)+1)
		return bytes.Equal(short, long[:len(short)])
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
