package crypto

import (
	"crypto/aes"
	"crypto/subtle"
	"errors"
)

// cmacRb is the constant used in CMAC subkey generation for 128-bit block
// ciphers (RFC 4493, Section 2.3).
const cmacRb = 0x87

// ErrTagSize means a truncated tag was requested that is empty, longer
// than the 16-byte CMAC, or longer than the buffer it should go to.
var ErrTagSize = errors.New("crypto: cmac tag size out of range")

// CMAC computes AES-CMAC (RFC 4493) message authentication codes. It is
// used for the per-packet MAC that cryptographically links every APNA
// packet to its sender. A CMAC value is safe for variable-length
// messages, unlike raw CBC-MAC.
//
// A CMAC is a self-contained value: with an AES-128 key on a CPU with
// AES-NI, Init expands the round keys in place and touches no heap, so a
// CMAC can be keyed and used on the stack. It is not safe for concurrent
// use; each goroutine should own its instance (the border router
// pipeline keeps its own per worker).
type CMAC struct {
	key schedule
	k1  [aes.BlockSize]byte
	k2  [aes.BlockSize]byte
}

// NewCMAC returns a CMAC keyed with the given AES key (16, 24 or 32
// bytes).
func NewCMAC(key []byte) (*CMAC, error) {
	c := new(CMAC)
	if err := c.Init(key); err != nil {
		return nil, err
	}
	return c, nil
}

// Init keys c with the given AES key (16, 24 or 32 bytes), replacing
// any earlier key.
func (c *CMAC) Init(key []byte) error {
	if err := c.key.init(key); err != nil {
		return err
	}
	var l, zero [aes.BlockSize]byte
	c.key.absorb(&l, zero[:], 1)
	dbl(&c.k1, &l)
	dbl(&c.k2, &c.k1)
	return nil
}

// dbl sets dst to the left-shift-by-one of src in GF(2^128), the subkey
// doubling operation of RFC 4493.
func dbl(dst, src *[aes.BlockSize]byte) {
	var carry byte
	for i := aes.BlockSize - 1; i >= 0; i-- {
		b := src[i]
		dst[i] = b<<1 | carry
		carry = b >> 7
	}
	// Constant-time conditional XOR of Rb into the last byte.
	dst[aes.BlockSize-1] ^= carry * cmacRb
}

// chain walks one message, given as segments, as the sequence of
// whole-block runs its CBC chain absorbs. Runs are slices of the
// caller's segments wherever a segment holds whole blocks; only a block
// that straddles two segments, and the message's last block — which is
// padded or not and XORed with K2 or K1 only once the walk knows
// nothing follows it — go through the 16-byte buf.
//
// The position is kept as indices, and newChain returns a value rather
// than filling in a pointer, because escape analysis treats a pointer
// stored through a pointer as leaked: written this way a chain on the
// stack keeps c and msg on their owners' stacks.
type chain struct {
	c    *CMAC
	msg  [][]byte // the last segment is not empty
	seg  int      // the unread rest of the message starts at msg[seg][off]
	off  int
	buf  [aes.BlockSize]byte
	fill int  // bytes held in buf
	done bool // the last block has been handed out
	job  *MACJob
}

func newChain(c *CMAC, msg [][]byte) chain {
	// The walk takes the end of the last segment for the end of the
	// message, so trailing empty segments go.
	for len(msg) > 0 && len(msg[len(msg)-1]) == 0 {
		msg = msg[:len(msg)-1]
	}
	return chain{c: c, msg: msg}
}

// next returns the message's next run of whole blocks, or nil once the
// finalised last block has been returned. A run that is buf is valid
// until the following call.
func (ch *chain) next() []byte {
	for ch.seg < len(ch.msg) {
		cur := ch.msg[ch.seg][ch.off:]
		if len(cur) == 0 {
			ch.seg, ch.off = ch.seg+1, 0
			continue
		}
		// cur is not empty, so whatever buf holds is not the end of
		// the message.
		if ch.fill == aes.BlockSize {
			ch.fill = 0
			return ch.buf[:]
		}
		if ch.fill > 0 {
			n := copy(ch.buf[ch.fill:], cur)
			ch.fill += n
			ch.off += n
			continue
		}
		// buf is empty: cur's whole blocks are absorbed where they lie,
		// except the block that may be the message's last.
		n := len(cur) &^ (aes.BlockSize - 1)
		if n == len(cur) && ch.seg == len(ch.msg)-1 {
			n -= aes.BlockSize
		}
		if n == 0 {
			ch.fill = copy(ch.buf[:], cur)
			ch.off += ch.fill
			continue
		}
		ch.off += n
		return cur[:n]
	}
	if ch.done {
		return nil
	}
	ch.done = true
	if ch.fill == aes.BlockSize {
		// Final complete block: XOR with K1.
		xorBlock(&ch.buf, ch.c.k1[:])
	} else {
		// Final incomplete (or empty) block: pad with 10* and XOR K2.
		ch.buf[ch.fill] = 0x80
		clear(ch.buf[ch.fill+1:])
		xorBlock(&ch.buf, ch.c.k2[:])
	}
	return ch.buf[:]
}

// sum returns the CMAC of the concatenated segments without allocating
// — the router verifies one MAC per packet and must not allocate per
// packet.
func (c *CMAC) sum(msg [][]byte) [aes.BlockSize]byte {
	var x [aes.BlockSize]byte
	ch := newChain(c, msg)
	for run := ch.next(); run != nil; run = ch.next() {
		c.key.absorb(&x, run, len(run)/aes.BlockSize)
	}
	return x
}

// Sum appends the full 16-byte CMAC of the concatenation of the msg
// segments to out and returns the extended slice. Accepting the message
// as segments lets callers MAC a packet header and payload without
// copying them into one buffer.
func (c *CMAC) Sum(out []byte, msg ...[]byte) []byte {
	tag := c.sum(msg)
	return append(out, tag[:]...)
}

// SumTruncated computes the CMAC of the message segments truncated to n
// bytes, written into dst[:n]. It does not allocate. n must be between
// 1 and 16 and no longer than dst; otherwise nothing is written and
// ErrTagSize is returned.
func (c *CMAC) SumTruncated(dst []byte, n int, msg ...[]byte) error {
	if n <= 0 || n > aes.BlockSize || n > len(dst) {
		return ErrTagSize
	}
	tag := c.sum(msg)
	copy(dst[:n], tag[:n])
	return nil
}

// Verify reports whether tag is a valid (possibly truncated) CMAC for the
// message segments. The comparison is constant time and the check does
// not allocate.
func (c *CMAC) Verify(tag []byte, msg ...[]byte) bool {
	full := c.sum(msg)
	return tagMatches(tag, &full)
}

// tagMatches reports whether tag, of 1 to 16 bytes, is the start of the
// full CMAC. The comparison is constant time.
func tagMatches(tag []byte, full *[aes.BlockSize]byte) bool {
	return len(tag) > 0 && len(tag) <= aes.BlockSize &&
		subtle.ConstantTimeCompare(tag, full[:len(tag)]) == 1
}

// MACJob is one message of a batch: Tag is checked against the CMAC of
// the two Msg segments under MAC, and OK receives the answer.
type MACJob struct {
	MAC *CMAC
	Msg [2][]byte
	Tag []byte
	OK  bool
}

// MACBatch verifies the tags of many independent messages at once. The
// CBC chain of one message is bound by AES latency; the chains of
// different messages do not depend on each other, so up to maxLanes of
// them run interleaved and the AES unit stays full. A MACBatch is
// scratch for that, reused across calls; it is not safe for concurrent
// use.
type MACBatch struct {
	lanes  [maxLanes]lane
	chains [maxLanes]chain
}

// Verify sets every job's OK to what jobs[i].MAC.Verify(jobs[i].Tag,
// jobs[i].Msg[0], jobs[i].Msg[1]) reports. Messages may have any mix of
// lengths. It does not allocate.
//
// Jobs are started in order, one per lane. All busy lanes then advance
// in lock-step by the shortest run any of them holds; a lane whose
// message ends hands back its verdict and takes the next job, and once
// the jobs run out the last busy lane is moved into its place, so the
// busy lanes are always lanes[:live].
func (b *MACBatch) Verify(jobs []MACJob) {
	if len(jobs) == 1 {
		// One chain has nothing to interleave with; skip the lanes.
		jobs[0].OK = jobs[0].MAC.Verify(jobs[0].Tag, jobs[0].Msg[:]...)
		return
	}
	live := 0
	for live < maxLanes && live < len(jobs) {
		b.lanes[live].ch = &b.chains[live]
		b.lanes[live].start(&jobs[live])
		live++
	}
	next := live // the first job no lane has taken
	for live > 0 {
		n := len(b.lanes[0].src)
		for i := range b.lanes[1:live] {
			n = min(n, len(b.lanes[1+i].src))
		}
		absorbLanes(&b.lanes, live, n/aes.BlockSize)
		for i := 0; i < live; {
			l := &b.lanes[i]
			if l.src = l.src[n:]; len(l.src) > 0 {
				i++
				continue
			}
			if l.src = l.ch.next(); l.src != nil {
				i++
				continue
			}
			l.ch.job.OK = tagMatches(l.ch.job.Tag, &l.state)
			if next < len(jobs) {
				l.start(&jobs[next])
				next++
				i++
				continue
			}
			live--
			*l = b.lanes[live]
		}
	}
}

// start points the lane at a fresh job's first run.
func (l *lane) start(job *MACJob) {
	l.state = [aes.BlockSize]byte{}
	l.key = &job.MAC.key
	*l.ch = newChain(job.MAC, job.Msg[:])
	l.ch.job = job
	l.src = l.ch.next()
}
