package wire

import (
	"apna/internal/crypto"
)

// Per-packet MAC computation (Section IV-D2): every packet a host sends
// carries an 8-byte MAC computed with the key it shares with its AS, so
// the AS can link the packet to the host and drop spoofed traffic.
//
// The MAC covers the whole header except the MAC field itself and the
// mutable HopLimit byte (zeroed in the MAC input so transit decrements
// do not invalidate the shutoff-evidence check of Figure 5), followed by
// the payload.

// macHeadSize is how much of the MAC input is staged in a buffer: the
// 56 header bytes before the MAC field, HopLimit zeroed, and the first
// 8 payload bytes. That is four whole AES blocks, so the rest of the
// payload is MACed where it lies in the frame.
const macHeadSize = offMAC + 8

// macInput stages the head of frame's MAC input in head and returns the
// MAC input as two segments: the staged bytes (fewer than macHeadSize
// when the payload is shorter than 8 bytes) and the rest of the payload.
func macInput(head *[macHeadSize]byte, frame []byte) (staged, rest []byte) {
	copy(head[:offMAC], frame)
	head[offHopLimit] = 0
	n := copy(head[offMAC:], frame[HeaderSize:])
	return head[:offMAC+n], frame[HeaderSize+n:]
}

// PacketMAC computes and verifies per-packet MACs for one host<->AS key.
// It is a self-contained value wrapping an AES-CMAC. Once keyed it is
// only read, so one PacketMAC may serve many goroutines at once: hostdb
// keeps one per host for every forwarding worker.
type PacketMAC struct {
	cmac crypto.CMAC
}

// NewPacketMAC builds a PacketMAC from the host<->AS MAC key (the MAC
// half of kHA).
func NewPacketMAC(key []byte) (*PacketMAC, error) {
	m := new(PacketMAC)
	if err := m.Init(key); err != nil {
		return nil, err
	}
	return m, nil
}

// Init keys m with the host<->AS MAC key, replacing any earlier key. A
// PacketMAC declared as a local variable and keyed with Init stays on
// the stack.
func (m *PacketMAC) Init(key []byte) error { return m.cmac.Init(key) }

// Apply computes the MAC over the frame (header plus payload) and writes
// it into the frame's MAC field. The frame must be a serialized packet
// of at least HeaderSize bytes.
func (m *PacketMAC) Apply(frame []byte) {
	var head [macHeadSize]byte
	staged, rest := macInput(&head, frame)
	// MACSize is a valid tag size, the only error SumTruncated has.
	_ = m.cmac.SumTruncated(frame[offMAC:offMAC+MACSize], MACSize, staged, rest)
}

// Verify reports whether the frame's MAC field matches its contents.
func (m *PacketMAC) Verify(frame []byte) bool {
	var head [macHeadSize]byte
	staged, rest := macInput(&head, frame)
	return m.cmac.Verify(frame[offMAC:offMAC+MACSize], staged, rest)
}

// MACBatch verifies (Verify) or applies (Apply) the packet MACs of many
// frames together, so that their independent CMAC chains run
// interleaved (crypto.MACBatch) rather than one after the other. It is
// scratch, reused from batch to batch, and not safe for concurrent use.
type MACBatch struct {
	jobs  []crypto.MACJob
	heads [][macHeadSize]byte
	lanes crypto.MACBatch
}

// Reset empties the batch and makes room for n frames, so that the Adds
// that follow do not allocate.
func (b *MACBatch) Reset(n int) {
	if cap(b.jobs) < n { //apna:coldpath
		b.jobs = make([]crypto.MACJob, 0, n)
		b.heads = make([][macHeadSize]byte, 0, n)
	}
	b.jobs, b.heads = b.jobs[:0], b.heads[:0]
}

// Add queues frame to be verified, or MACed, under m. Neither may
// change until Verify or Apply has returned.
func (b *MACBatch) Add(m *PacketMAC, frame []byte) {
	i := len(b.jobs)
	if i == cap(b.jobs) || i == cap(b.heads) { //apna:coldpath
		b.jobs = append(b.jobs, crypto.MACJob{})       //apna:alloc-ok
		b.heads = append(b.heads, [macHeadSize]byte{}) //apna:alloc-ok
	}
	// The fields are set one by one: a MACJob literal is copied in whole,
	// and the head's bytes past what macInput stages are never read.
	b.jobs, b.heads = b.jobs[:i+1], b.heads[:i+1]
	job := &b.jobs[i]
	job.MAC = &m.cmac
	job.Msg[0], job.Msg[1] = macInput(&b.heads[i], frame)
	job.Tag = frame[offMAC : offMAC+MACSize]
}

// Verify checks every queued frame; OK then reports the outcomes.
func (b *MACBatch) Verify() { b.lanes.Verify(b.jobs) }

// Apply writes every queued frame's MAC into its MAC field, as
// PacketMAC.Apply does frame by frame.
func (b *MACBatch) Apply() { b.lanes.Sum(b.jobs) }

// OK reports whether the i-th frame added since Reset carried a valid
// MAC. It is meaningful only after Verify.
func (b *MACBatch) OK(i int) bool { return b.jobs[i].OK }
