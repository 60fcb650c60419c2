package crypto

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"math/rand"
	"testing"

	"apna/internal/spare"
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
// lane retires all see a known answer, on every kernel.
func TestMACBatchRFC4493(t *testing.T) { forEachKernel(t, macBatchRFC4493) }

func macBatchRFC4493(t *testing.T) {
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
// keyLen bytes, cut at random; one batch of mixed lengths and keys, and
// one of runs of same-length, same-cut messages (the groups whose runs
// line up), both with some tags one bit off, verified and then summed;
// and that batch once more in another order, which must permute the
// verdicts and nothing else.
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

	// The batches: mostly AES-128 keys like the data plane's, now and
	// then the message's own key (any size), lengths from empty to 4096
	// with block boundaries and their neighbours over-represented.
	length := func() int {
		switch rng.Intn(3) {
		case 0:
			return rng.Intn(4097)
		case 1:
			return max(aes.BlockSize*rng.Intn(8)+rng.Intn(3)-1, 0)
		}
		return msgLen
	}
	var jobs []MACJob
	var flipped []bool
	add := func(jlen, cut int) {
		jc, jkey := c, key
		if rng.Intn(4) > 0 {
			jkey = make([]byte, SymKeySize)
			rng.Read(jkey)
			if jc, err = NewCMAC(jkey); err != nil {
				t.Fatal(err)
			}
		}
		jmsg := make([]byte, jlen)
		rng.Read(jmsg)
		tag := newRefCMAC(t, jkey).tag(jmsg)
		tn := 1 + rng.Intn(aes.BlockSize)
		flip := rng.Intn(3) == 0
		if flip {
			tag[rng.Intn(tn)] ^= 1 << rng.Intn(8)
		}
		jobs = append(jobs, MACJob{MAC: jc, Msg: [2][]byte{jmsg[:cut], jmsg[cut:]}, Tag: tag[:tn], OK: flip})
		flipped = append(flipped, flip)
	}
	check := func(what string) {
		t.Helper()
		var b MACBatch
		b.Verify(jobs)
		for j := range jobs {
			if jobs[j].OK == flipped[j] {
				t.Fatalf("%s of %d, job %d (len %d+%d, tag %d bytes): OK = %v with flipped = %v",
					what, len(jobs), j, len(jobs[j].Msg[0]), len(jobs[j].Msg[1]), len(jobs[j].Tag), jobs[j].OK, flipped[j])
			}
		}
	}
	// sum runs the tag-writing pass over the batch's messages into
	// fresh tags of the same lengths: every tag must be what
	// SumTruncated writes, and Verify must then accept every one.
	sum := func(what string) {
		t.Helper()
		summed := make([]MACJob, len(jobs))
		for j := range jobs {
			summed[j] = jobs[j]
			summed[j].Tag = make([]byte, len(jobs[j].Tag))
			rng.Read(summed[j].Tag)
			summed[j].OK = j%2 == 0 // Sum must leave it alone
		}
		var b MACBatch
		b.Sum(summed)
		var want [aes.BlockSize]byte
		for j := range summed {
			job := &summed[j]
			if err := job.MAC.SumTruncated(want[:], len(job.Tag), job.Msg[0], job.Msg[1]); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(job.Tag, want[:len(job.Tag)]) || job.OK != (j%2 == 0) {
				t.Fatalf("%s of %d, Sum job %d (len %d+%d): tag %x, OK %v; SumTruncated %x",
					what, len(summed), j, len(job.Msg[0]), len(job.Msg[1]), job.Tag, job.OK, want[:len(job.Tag)])
			}
		}
		b.Verify(summed)
		for j := range summed {
			if !summed[j].OK {
				t.Fatalf("%s of %d: Verify rejected the tag Sum wrote for job %d", what, len(summed), j)
			}
		}
	}
	for range 1 + rng.Intn(3*maxLanes) {
		jlen := length()
		add(jlen, rng.Intn(jlen+1))
	}
	check("mixed batch")
	sum("mixed batch")

	jobs, flipped = nil, nil
	for range 1 + rng.Intn(4) {
		jlen := length()
		cut := rng.Intn(jlen + 1)
		for range 1 + rng.Intn(3*maxLanes) {
			add(jlen, cut)
		}
	}
	check("batch of runs")
	sum("batch of runs")
	verdicts := make([]bool, len(jobs))
	for j := range jobs {
		verdicts[j] = jobs[j].OK
	}
	perm := rng.Perm(len(jobs))
	moved := make([]MACJob, len(jobs))
	for j, from := range perm {
		moved[j] = jobs[from]
		moved[j].OK = !verdicts[from]
	}
	var b MACBatch
	b.Verify(moved)
	for j, from := range perm {
		if moved[j].OK != verdicts[from] {
			t.Fatalf("batch of runs, permuted: job %d (was %d of %d) OK = %v, in order %v",
				j, from, len(jobs), moved[j].OK, verdicts[from])
		}
	}
}

func TestCMACDifferential(t *testing.T) { forEachKernel(t, cmacDifferential) }

func cmacDifferential(t *testing.T) {
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
// the message length of checkDifferential, and runs it on every kernel
// the CPU has.
func FuzzCMACDifferential(f *testing.F) {
	if best < kernelWide {
		f.Logf("kernels above %s skipped: not on this CPU or build", best)
	}
	defer func(k laneKernel) { kernel = k }(kernel)
	f.Add(int64(1), uint8(0), uint16(0))
	f.Add(int64(2), uint8(1), uint16(16))
	f.Add(int64(3), uint8(2), uint16(17))
	f.Add(int64(4), uint8(0), uint16(1454))
	f.Add(int64(5), uint8(0), uint16(4096))
	f.Fuzz(func(t *testing.T, seed int64, keySel uint8, msgLen uint16) {
		keyLen := []int{16, 16, 24, 32}[keySel%4]
		defer func() {
			if t.Failed() {
				t.Logf("on the %s kernel", kernel)
			}
		}()
		for k := kernelPortable; k <= best; k++ {
			kernel = k
			checkDifferential(t, rand.New(rand.NewSource(seed)), keyLen, int(msgLen)%4097)
		}
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
	spare.Idle()
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
