package session

// Window is a sliding anti-replay window over 64-bit sequence numbers,
// in the style of the IPsec anti-replay algorithm: it accepts each
// sequence number at most once and rejects numbers older than the window
// span. The destination host runs one per flow to discard duplicate
// packets (Section VIII-D).
type Window struct {
	bitmap  []uint64
	span    uint64
	highest uint64 // highest accepted sequence number; 0 = none yet
}

// NewWindow creates a window tracking the most recent span sequence
// numbers (rounded up to a multiple of 64, minimum 64).
func NewWindow(span int) Window {
	if span < 64 {
		span = 64
	}
	words := (span + 63) / 64
	return Window{bitmap: make([]uint64, words), span: uint64(words * 64)}
}

// Accept reports whether seq is fresh, and records it if so. Sequence
// number 0 is never valid (senders start at 1), which lets the zero
// window value mean "nothing received".
func (w *Window) Accept(seq uint64) bool {
	if seq == 0 {
		return false
	}
	switch {
	case seq > w.highest:
		// Slide forward, clearing the bits the window skips over.
		delta := seq - w.highest
		if delta >= w.span {
			clear(w.bitmap)
		} else {
			for i := w.highest + 1; i <= seq; i++ {
				w.clearBit(i)
			}
		}
		w.highest = seq
		w.setBit(seq)
		return true
	case w.highest-seq >= w.span:
		return false // too old to track
	default:
		if w.getBit(seq) {
			return false // duplicate
		}
		w.setBit(seq)
		return true
	}
}

func (w *Window) setBit(seq uint64) {
	idx := seq % w.span
	w.bitmap[idx/64] |= 1 << (idx % 64)
}

func (w *Window) clearBit(seq uint64) {
	idx := seq % w.span
	w.bitmap[idx/64] &^= 1 << (idx % 64)
}

func (w *Window) getBit(seq uint64) bool {
	idx := seq % w.span
	return w.bitmap[idx/64]&(1<<(idx%64)) != 0
}
