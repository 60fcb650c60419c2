package crypto

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"math/rand"
	"testing"
)

// refCMAC is the CMAC this package shipped before the multi-lane
// kernel: byte-wise XOR, every block copied through a 16-byte staging
// buffer, one cipher.Block call per block. It is slow and obviously
// RFC 4493, which is what makes it the oracle the fast paths are
// compared against. sum is kept verbatim.
type refCMAC struct {
	block cipher.Block
	k1    [aes.BlockSize]byte
	k2    [aes.BlockSize]byte
	x     [aes.BlockSize]byte
	buf   [aes.BlockSize]byte
}

func newRefCMAC(t testing.TB, key []byte) *refCMAC {
	t.Helper()
	block, err := aes.NewCipher(key)
	if err != nil {
		t.Fatal(err)
	}
	c := &refCMAC{block: block}
	var l [aes.BlockSize]byte
	block.Encrypt(l[:], l[:])
	dbl(&c.k1, &l)
	dbl(&c.k2, &c.k1)
	return c
}

func (c *refCMAC) sum(msg ...[]byte) {
	clear(c.x[:])
	fill := 0 // number of pending bytes in c.buf
	total := 0
	for _, seg := range msg {
		total += len(seg)
		for len(seg) > 0 {
			if fill == aes.BlockSize {
				// Flush a full, definitely-not-final block.
				refXorBlock(&c.x, c.buf[:])
				c.block.Encrypt(c.x[:], c.x[:])
				fill = 0
			}
			n := copy(c.buf[fill:], seg)
			fill += n
			seg = seg[n:]
		}
	}
	if total > 0 && fill == aes.BlockSize {
		// Final complete block: XOR with K1.
		refXorBlock(&c.x, c.buf[:])
		refXorBlock(&c.x, c.k1[:])
	} else {
		// Final incomplete (or empty) block: pad with 10* and XOR K2.
		c.buf[fill] = 0x80
		clear(c.buf[fill+1:])
		refXorBlock(&c.x, c.buf[:])
		refXorBlock(&c.x, c.k2[:])
	}
	c.block.Encrypt(c.x[:], c.x[:])
}

func refXorBlock(x *[aes.BlockSize]byte, b []byte) {
	for i := 0; i < aes.BlockSize; i++ {
		x[i] ^= b[i]
	}
}

// tag returns the reference CMAC of the segments.
func (c *refCMAC) tag(msg ...[]byte) [aes.BlockSize]byte {
	c.sum(msg...)
	return c.x
}

// TestMACBatchRFC4493 drives the RFC vectors through the batch at every
// lane occupancy from one job to two full rounds and one over, so each
// of the kernel's eight lanes, the idle-lane fill and the refill after a
// lane retires all see a known answer.
func TestMACBatchRFC4493(t *testing.T) {
	c, err := NewCMAC(cmacKey)
	if err != nil {
		t.Fatal(err)
	}
	var b MACBatch
	for jobs := 1; jobs <= 2*maxLanes+1; jobs++ {
		// Job j carries vector j mod 4, so every occupancy mixes all
		// four lengths; every third job has one tag bit flipped.
		batch := make([]MACJob, jobs)
		for j := range batch {
			v := rfc4493[j%len(rfc4493)]
			tag := bytes.Clone(v.want)
			if j%3 == 2 {
				tag[j%8] ^= 1 << (j % 8) // inside even the shortest truncation
			}
			// Split the message at a point that moves with j, so lanes
			// also differ in how their runs are cut.
			cut := min(j, len(v.msg))
			batch[j] = MACJob{MAC: c, Msg: [2][]byte{v.msg[:cut], v.msg[cut:]}, Tag: tag[:8+j%9]}
			batch[j].OK = j%3 == 2 // must be overwritten either way
		}
		b.Verify(batch)
		for j := range batch {
			if want := j%3 != 2; batch[j].OK != want {
				t.Errorf("%d jobs: job %d (%s) OK = %v, want %v", jobs, j, rfc4493[j%len(rfc4493)].name, batch[j].OK, want)
			}
		}
	}
}

// TestKeyScheduleMatchesCryptoAES checks the package's own key
// expansion and 1-lane kernel against crypto/aes: absorbing one block
// into a zero state is a single-block encryption.
func TestKeyScheduleMatchesCryptoAES(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		var key, in, got, want [aes.BlockSize]byte
		rng.Read(key[:])
		rng.Read(in[:])
		var s schedule
		if err := s.init(key[:]); err != nil {
			t.Fatal(err)
		}
		s.absorb(&got, in[:], 1)
		block, err := aes.NewCipher(key[:])
		if err != nil {
			t.Fatal(err)
		}
		block.Encrypt(want[:], in[:])
		if got != want {
			t.Fatalf("key %x block %x: got %x, crypto/aes %x", key, in, got, want)
		}
	}
}

// segment cuts msg at random points into up to max pieces, some empty.
func segment(rng *rand.Rand, msg []byte, max int) [][]byte {
	segs := make([][]byte, 1+rng.Intn(max))
	for i := range segs[:len(segs)-1] {
		n := 0
		if rng.Intn(4) > 0 {
			n = rng.Intn(len(msg) + 1)
		}
		segs[i], msg = msg[:n], msg[n:]
	}
	segs[len(segs)-1] = msg
	if rng.Intn(4) == 0 {
		segs = append(segs, nil)
	}
	return segs
}

// checkDifferential compares every entry point with the reference on
// inputs drawn from rng: one message of msgLen bytes under a key of
// keyLen bytes, cut at random, and one batch of mixed lengths and keys
// in which some tags have one bit flipped.
func checkDifferential(t *testing.T, rng *rand.Rand, keyLen, msgLen int) {
	t.Helper()
	key := make([]byte, keyLen)
	rng.Read(key)
	msg := make([]byte, msgLen)
	rng.Read(msg)
	c, err := NewCMAC(key)
	if err != nil {
		t.Fatal(err)
	}
	want := newRefCMAC(t, key).tag(msg)
	segs := segment(rng, msg, 5)
	if got := c.Sum(nil, segs...); !bytes.Equal(got, want[:]) {
		t.Fatalf("key %x len %d segments %d: Sum = %x, reference %x", key, msgLen, len(segs), got, want)
	}
	n := 1 + rng.Intn(aes.BlockSize)
	if !c.Verify(want[:n], segs...) {
		t.Fatalf("key %x len %d: Verify rejected the reference's %d-byte tag", key, msgLen, n)
	}
	bad := want
	bad[rng.Intn(n)] ^= 1 << rng.Intn(8)
	if c.Verify(bad[:n], segs...) {
		t.Fatalf("key %x len %d: Verify accepted a tag with one bit flipped", key, msgLen)
	}

	// The batch: mostly AES-128 keys like the data plane's, now and then
	// the message's own key (any size), lengths from empty to 4096 with
	// block boundaries and their neighbours over-represented.
	jobs := make([]MACJob, 1+rng.Intn(3*maxLanes))
	flipped := make([]bool, len(jobs))
	for j := range jobs {
		jc, jkey := c, key
		if rng.Intn(4) > 0 {
			jkey = make([]byte, SymKeySize)
			rng.Read(jkey)
			if jc, err = NewCMAC(jkey); err != nil {
				t.Fatal(err)
			}
		}
		var jlen int
		switch rng.Intn(3) {
		case 0:
			jlen = rng.Intn(4097)
		case 1:
			jlen = aes.BlockSize*rng.Intn(8) + rng.Intn(3) - 1
		default:
			jlen = msgLen
		}
		jmsg := make([]byte, max(jlen, 0))
		rng.Read(jmsg)
		tag := newRefCMAC(t, jkey).tag(jmsg)
		tn := 1 + rng.Intn(aes.BlockSize)
		if flipped[j] = rng.Intn(3) == 0; flipped[j] {
			tag[rng.Intn(tn)] ^= 1 << rng.Intn(8)
		}
		cut := rng.Intn(len(jmsg) + 1)
		jobs[j] = MACJob{MAC: jc, Msg: [2][]byte{jmsg[:cut], jmsg[cut:]}, Tag: tag[:tn], OK: flipped[j]}
	}
	var b MACBatch
	b.Verify(jobs)
	for j := range jobs {
		if jobs[j].OK == flipped[j] {
			t.Fatalf("batch of %d, job %d (len %d+%d, tag %d bytes): OK = %v with flipped = %v",
				len(jobs), j, len(jobs[j].Msg[0]), len(jobs[j].Msg[1]), len(jobs[j].Tag), jobs[j].OK, flipped[j])
		}
	}
}

func TestCMACDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(4493))
	for i := 0; i < 300; i++ {
		keyLen := []int{16, 16, 16, 24, 32}[rng.Intn(5)]
		checkDifferential(t, rng, keyLen, rng.Intn(300))
	}
	// Every length around the first few block boundaries, every key
	// size: K1 against K2, and the kernel against crypto/aes where a
	// 24- or 32-byte key takes a lane of an AES-128 batch.
	for _, keyLen := range []int{16, 24, 32} {
		for n := 0; n <= 4*aes.BlockSize+1; n++ {
			checkDifferential(t, rng, keyLen, n)
		}
	}
}

// FuzzCMACDifferential lets the fuzzer pick the seed, the key size and
// the message length of checkDifferential.
func FuzzCMACDifferential(f *testing.F) {
	f.Add(int64(1), uint8(0), uint16(0))
	f.Add(int64(2), uint8(1), uint16(16))
	f.Add(int64(3), uint8(2), uint16(17))
	f.Add(int64(4), uint8(0), uint16(1454))
	f.Add(int64(5), uint8(0), uint16(4096))
	f.Fuzz(func(t *testing.T, seed int64, keySel uint8, msgLen uint16) {
		keyLen := []int{16, 16, 24, 32}[keySel%4]
		checkDifferential(t, rand.New(rand.NewSource(seed)), keyLen, int(msgLen)%4097)
	})
}

// TestCMACOnStackZeroAllocs pins the property the routers' slow path
// relies on: where the kernel runs, keying a CMAC value and verifying
// with it touches no heap.
func TestCMACOnStackZeroAllocs(t *testing.T) {
	var probe schedule
	if err := probe.init(cmacKey); err != nil {
		t.Fatal(err)
	}
	if probe.sw != nil {
		t.Skip("portable build: crypto/aes allocates its key schedule")
	}
	want := newRefCMAC(t, cmacKey).tag(cmacMsg)
	allocs := testing.AllocsPerRun(100, func() {
		var c CMAC
		var head [24]byte
		copy(head[:], cmacMsg)
		if err := c.Init(cmacKey); err != nil || !c.Verify(want[:8], head[:], cmacMsg[len(head):]) {
			t.Fatal("stack CMAC rejected a valid tag")
		}
	})
	if allocs != 0 {
		t.Fatalf("Init+Verify on a stack CMAC allocates %.1f times", allocs)
	}
}
