package wire

import (
	"bytes"
	"testing"

	"apna/internal/ephid"
)

// TestHeaderAppendToMatchesSerializeTo pins the append encoder to the
// existing one bit for bit.
func TestHeaderAppendToMatchesSerializeTo(t *testing.T) {
	h := sampleHeader()
	want := make([]byte, HeaderSize)
	if err := h.SerializeTo(want); err != nil {
		t.Fatal(err)
	}
	got := h.AppendTo(nil)
	if !bytes.Equal(got, want) {
		t.Fatalf("AppendTo != SerializeTo\n%x\n%x", got, want)
	}

	// Appending after a prefix must leave the prefix intact.
	withPrefix := h.AppendTo([]byte{1, 2, 3})
	if !bytes.Equal(withPrefix[:3], []byte{1, 2, 3}) || !bytes.Equal(withPrefix[3:], want) {
		t.Fatal("AppendTo corrupted the prefix")
	}
}

func TestPacketAppendToMatchesEncode(t *testing.T) {
	p := Packet{Header: sampleHeader(), Payload: []byte("hello")}
	want, err := p.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.AppendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("Packet.AppendTo != Encode")
	}
	if _, err := DecodePacket(got); err != nil {
		t.Fatal(err)
	}
}

func TestPacketAppendToRejectsOversize(t *testing.T) {
	p := Packet{Payload: make([]byte, MaxPayload+1)}
	prefix := []byte{9}
	out, err := p.AppendTo(prefix)
	if err == nil {
		t.Fatal("expected ErrTooLarge")
	}
	if len(out) != 1 || out[0] != 9 {
		t.Fatal("failed AppendTo must return dst unchanged")
	}
}

// Allocation regression: the append encoders must not allocate when
// the destination has capacity (satellite of the zero-allocation data
// plane refactor).

func TestHeaderAppendToZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are unreliable under the race detector")
	}
	h := sampleHeader()
	buf := make([]byte, 0, HeaderSize)
	allocs := testing.AllocsPerRun(100, func() {
		buf = h.AppendTo(buf[:0])
	})
	if allocs != 0 {
		t.Fatalf("Header.AppendTo allocates %.1f times per op", allocs)
	}
}

func TestPacketAppendToZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are unreliable under the race detector")
	}
	p := Packet{Header: sampleHeader(), Payload: bytes.Repeat([]byte("x"), 192)}
	buf := make([]byte, 0, HeaderSize+192)
	allocs := testing.AllocsPerRun(100, func() {
		var err error
		buf, err = p.AppendTo(buf[:0])
		if err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Packet.AppendTo allocates %.1f times per op", allocs)
	}
}

// Guard the EphID size assumption the frame accessors rely on.
func TestFrameAccessorOffsets(t *testing.T) {
	h := sampleHeader()
	frame := h.AppendTo(nil)
	if FrameSrcAID(frame) != 100 || FrameDstAID(frame) != 200 {
		t.Fatal("AID accessors disagree with AppendTo layout")
	}
	if FrameSrcEphID(frame) != h.SrcEphID || FrameDstEphID(frame) != h.DstEphID {
		t.Fatal("EphID accessors disagree with AppendTo layout")
	}
	if ephid.Size != 16 {
		t.Fatalf("EphID size changed: %d", ephid.Size)
	}
}
