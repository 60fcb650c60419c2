package crypto

import (
	"crypto/aes"
	"math/rand"
	"sync"
	"testing"
)

// TestBlockPairMatchesAES checks Encrypt against crypto/aes for every
// pairing of key sizes (only two 16-byte keys take the lane kernel) and
// every count of live blocks, from several goroutines at once: a
// BlockPair is shared by everything that opens EphIDs for one AS.
func TestBlockPairMatchesAES(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, sizes := range [][2]int{{16, 16}, {16, 32}, {24, 16}, {32, 32}} {
		keyA, keyB := make([]byte, sizes[0]), make([]byte, sizes[1])
		rng.Read(keyA)
		rng.Read(keyB)
		p, err := NewBlockPair(keyA, keyB)
		if err != nil {
			t.Fatal(err)
		}
		refA, _ := aes.NewCipher(keyA)
		refB, _ := aes.NewCipher(keyB)
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				for round := 0; round < 200; round++ {
					var a, b, wantA, wantB [PairLanes][aes.BlockSize]byte
					n := round % (PairLanes + 1)
					for i := range a {
						rng.Read(a[i][:])
						rng.Read(b[i][:])
						refA.Encrypt(wantA[i][:], a[i][:])
						refB.Encrypt(wantB[i][:], b[i][:])
					}
					p.Encrypt(&a, &b, n)
					for i := 0; i < n; i++ {
						if a[i] != wantA[i] || b[i] != wantB[i] {
							t.Errorf("keys of %d and %d bytes, %d live, block %d: Encrypt disagrees with crypto/aes", sizes[0], sizes[1], n, i)
							return
						}
					}
				}
			}(int64(g))
		}
		wg.Wait()
	}
	if _, err := NewBlockPair(make([]byte, 16), make([]byte, 5)); err == nil {
		t.Error("NewBlockPair accepted a 5-byte key")
	}
}
