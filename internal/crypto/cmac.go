package crypto

import (
	"crypto/aes"
	"crypto/subtle"
	"encoding/binary"
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
// CMAC can be keyed and used on the stack. Once keyed it is only read,
// so one CMAC may serve any number of goroutines (the border routers'
// workers share each host's); Init must not race with its use.
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
// full CMAC. The comparison is constant time: which bytes are read and
// what is done with them depends on the tag's length alone, and every
// difference is ORed into one word before anything is decided. It goes a
// word at a time where the tag has whole words, where
// subtle.ConstantTimeCompare goes a byte at a time: a batch compares one
// tag per frame, and on short frames that loop showed in its profile.
func tagMatches(tag []byte, full *[aes.BlockSize]byte) bool {
	if len(tag) == 0 || len(tag) > aes.BlockSize {
		return false
	}
	le := binary.LittleEndian
	var d uint64
	i := 0
	for ; i+8 <= len(tag); i += 8 {
		d |= le.Uint64(tag[i:]) ^ le.Uint64(full[i:])
	}
	for ; i < len(tag); i++ {
		d |= uint64(tag[i] ^ full[i])
	}
	return subtle.ConstantTimeEq(int32(uint32(d)|uint32(d>>32)), 0) == 1
}

// MACJob is one message of a batch: Tag is checked against the CMAC of
// the two Msg segments under MAC, and OK receives the answer — or, under
// MACBatch.Sum, Tag receives the CMAC.
type MACJob struct {
	MAC *CMAC
	Msg [2][]byte
	Tag []byte
	OK  bool
}

// MACBatch verifies (Verify) or computes (Sum) the tags of many
// independent messages at once. The CBC chain of one message is bound
// by AES latency; the chains of different messages do not depend on
// each other, so up to maxLanes of them run interleaved and the AES
// unit stays full. A MACBatch is scratch for that, reused across calls;
// it is not safe for concurrent use.
type MACBatch struct {
	lanes [maxLanes]lane
	plans [maxLanes]plan // lanes[i]'s message
	steps [maxSteps]int  // the group's steps, in blocks
	order [maxJobs]uint8 // the window's jobs by kind
	kinds [maxJobs]kind  // the window's distinct segment lengths
	of    [maxJobs]uint8 // the kind of each job
}

// maxJobs is how many jobs Verify orders at once; the border pipelines
// hand over at most this many. maxSteps bounds a group's steps: a step
// ends where any of its messages' runs ends, and a message has at most
// four runs.
const (
	maxJobs  = 64
	maxSteps = 4 * maxLanes
)

// kind is the segment lengths some of a window's jobs share, how many
// jobs have them and where in order the next of them goes. Jobs of one
// kind have equal plans, so their lanes leave every run at the same step.
type kind struct {
	len0, len1 int
	n, at      int
}

// before reports whether k goes before o in the batch order: longer
// messages first, so that in a group the lanes whose messages end first
// are the last lanes.
func (k *kind) before(o *kind) bool {
	if s, t := k.len0+k.len1, o.len0+o.len1; s != t {
		return s > t
	}
	return k.len0 > o.len0
}

// plan is one message cut into the whole-block runs its CBC chain
// absorbs, one run per step of its group: the first segment's whole
// blocks and the second's, read where they lie, a staged block where a
// block straddles the two, and the staged last block, already padded (or
// not) and XORed with K2 (or K1).
type plan struct {
	runs  [maxSteps][]byte
	n     int // runs[:n] are the message
	stage [2][aes.BlockSize]byte
	job   *MACJob
}

// plan cuts job into its runs; empty runs are left out.
func (p *plan) plan(job *MACJob) {
	m0, m1 := job.Msg[0], job.Msg[1]
	size := len(m0) + len(m1)
	last := max(size-1, 0) &^ (aes.BlockSize - 1) // where the last block starts
	a := min(len(m0), last) &^ (aes.BlockSize - 1)
	n := 0
	if a > 0 {
		p.runs[n] = m0[:a]
		n++
	}
	if a < min(len(m0), last) {
		k := copy(p.stage[0][:], m0[a:])
		copy(p.stage[0][k:], m1)
		p.runs[n] = p.stage[0][:]
		n++
		a += aes.BlockSize
	}
	if a < last {
		p.runs[n] = m1[a-len(m0) : last-len(m0)]
		n++
	}
	// The last block is put together in two words: read back as words
	// right after a byte-wise copy, it would stall the loads. Where the
	// last segment holds a whole block, the block that ends the message
	// is loaded and shifted down to the k bytes that are the last block.
	le := binary.LittleEndian
	k := uint(size - last)
	end := m1
	if len(m1) == 0 {
		end = m0
	}
	var lo, hi uint64
	if len(end) >= aes.BlockSize && last >= size-len(end) {
		lo, hi = le.Uint64(end[len(end)-16:]), le.Uint64(end[len(end)-8:])
		sh := (aes.BlockSize - k) * 8 // a shift by 64 or more is 0
		lo, hi = lo>>sh|hi<<(64-sh)|hi>>(sh-64), hi>>sh
	} else {
		var buf [aes.BlockSize]byte
		copy(buf[copy(buf[:], m0[min(last, len(m0)):]):], m1[max(last-len(m0), 0):])
		lo, hi = le.Uint64(buf[:8]), le.Uint64(buf[8:])
	}
	key := &job.MAC.k1
	if k < aes.BlockSize {
		lo |= 0x80 << (k * 8)
		hi |= 0x80 << (k*8 - 64)
		key = &job.MAC.k2
	}
	fin := &p.stage[1]
	le.PutUint64(fin[:8], lo^le.Uint64(key[:8]))
	le.PutUint64(fin[8:], hi^le.Uint64(key[8:]))
	p.runs[n] = fin[:]
	p.n, p.job = n+1, job
}

// Verify sets every job's OK to what jobs[i].MAC.Verify(jobs[i].Tag,
// jobs[i].Msg[0], jobs[i].Msg[1]) reports. Messages may have any mix of
// lengths. It does not allocate.
//
// Up to maxJobs jobs at a time are ordered by their segment lengths and
// cut into groups of up to maxLanes, one message per lane, and a group
// goes through absorbLanes step by step: every busy lane stores its next
// run as src, then one kernel call absorbs them all. The runs of a group
// of one kind line up as planned; a mixed group's plans are first cut
// wherever any of them has a run end, so the group steps by the shortest
// run any lane holds. The order puts the lanes whose messages end first
// last, so a lane whose message ends hands back its verdict and drops
// out, and the busy lanes are always lanes[:live].
func (b *MACBatch) Verify(jobs []MACJob) { b.run(jobs, false) }

// Sum writes the leading len(jobs[i].Tag) bytes of every job's CMAC into
// jobs[i].Tag, what jobs[i].MAC.SumTruncated(jobs[i].Tag,
// len(jobs[i].Tag), jobs[i].Msg[0], jobs[i].Msg[1]) writes; a Tag longer
// than 16 bytes gets the whole CMAC. OK is left alone. A job's Tag must
// not overlap any job's message. It runs Verify's loop, and does not
// allocate.
func (b *MACBatch) Sum(jobs []MACJob) { b.run(jobs, true) }

// run is Verify, or Sum when sum is set: the two differ only in what a
// lane whose message has ended hands back.
func (b *MACBatch) run(jobs []MACJob, sum bool) {
	for len(jobs) > 0 {
		w := jobs[:min(len(jobs), maxJobs)]
		jobs = jobs[len(w):]
		order := b.sort(w)
		for g := 0; g < len(w); g += maxLanes {
			group := order[g:min(g+maxLanes, len(w))]
			live := len(group)
			for s, n := range b.start(w, group) {
				for i := range b.lanes[:live] {
					b.lanes[i].src = b.plans[i].runs[s]
				}
				absorbLanes(&b.lanes, live, n)
				for live > 0 && b.plans[live-1].n == s+1 {
					live--
					job := b.plans[live].job
					if sum {
						copy(job.Tag, b.lanes[live].state[:])
					} else {
						job.OK = tagMatches(job.Tag, &b.lanes[live].state)
					}
				}
			}
		}
	}
}

// start plans the group's messages, keys a lane for each and returns
// the group's steps.
func (b *MACBatch) start(jobs []MACJob, group []uint8) []int {
	for i, j := range group {
		b.plans[i].plan(&jobs[j])
		l := &b.lanes[i]
		l.state, l.key = [aes.BlockSize]byte{}, &jobs[j].MAC.key
	}
	if b.of[group[0]] != b.of[group[len(group)-1]] {
		return b.align(len(group))
	}
	p := &b.plans[0]
	for s, run := range p.runs[:p.n] {
		b.steps[s] = len(run) / aes.BlockSize
	}
	return b.steps[:p.n]
}

// align cuts the plans of a group of several kinds wherever any of them
// has a run end, so that their runs line up, and returns the group's
// steps.
func (b *MACBatch) align(lanes int) []int {
	// Every run end, in blocks into the message, ascending and once.
	var ends [maxSteps]int
	m := 0
	for i := range b.plans[:lanes] {
		at := 0
		for _, run := range b.plans[i].runs[:b.plans[i].n] {
			at += len(run) / aes.BlockSize
			k := m
			for k > 0 && ends[k-1] > at {
				k--
			}
			if k > 0 && ends[k-1] == at {
				continue
			}
			copy(ends[k+1:m+1], ends[k:m])
			ends[k] = at
			m++
		}
	}
	for i := range b.plans[:lanes] {
		p := &b.plans[i]
		var runs [4][]byte
		nr := copy(runs[:], p.runs[:p.n])
		cur, r, at := runs[0], 0, 0
		p.n = 0
		for _, end := range ends[:m] {
			if r == nr {
				break
			}
			take := (end - at) * aes.BlockSize
			p.runs[p.n], cur = cur[:take], cur[take:]
			p.n++
			at = end
			if len(cur) == 0 {
				if r++; r < nr {
					cur = runs[r]
				}
			}
		}
	}
	for s := range ends[:m] {
		b.steps[s] = ends[s]
		if s > 0 {
			b.steps[s] -= ends[s-1]
		}
	}
	return b.steps[:m]
}

// sort returns the jobs' indices with kinds in batch order and each
// kind's jobs in input order: a counting sort over the distinct kinds,
// one pass when there is only one.
func (b *MACBatch) sort(jobs []MACJob) []uint8 {
	d := 0
	for j := range jobs {
		len0, len1 := len(jobs[j].Msg[0]), len(jobs[j].Msg[1])
		k := 0
		for k < d && (b.kinds[k].len0 != len0 || b.kinds[k].len1 != len1) {
			k++
		}
		if k == d {
			b.kinds[d] = kind{len0: len0, len1: len1}
			d++
		}
		b.kinds[k].n++
		b.of[j] = uint8(k)
	}
	if d == 1 {
		return inputOrder[:len(jobs)]
	}
	// A kind's jobs go after those of every kind that goes before it.
	for k := range b.kinds[:d] {
		b.kinds[k].at = 0
		for t := range b.kinds[:d] {
			if b.kinds[t].before(&b.kinds[k]) {
				b.kinds[k].at += b.kinds[t].n
			}
		}
	}
	for j := range jobs {
		k := &b.kinds[b.of[j]]
		b.order[k.at] = uint8(j)
		k.at++
	}
	return b.order[:len(jobs)]
}

// inputOrder is the order of a window whose jobs are all of one kind.
var inputOrder = func() (o [maxJobs]uint8) {
	for i := range o {
		o[i] = uint8(i)
	}
	return o
}()
