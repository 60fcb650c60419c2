package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

func TestIPv4HeaderRoundTrip(t *testing.T) {
	h := IPv4Header{
		TOS: 0x10, TotalLen: 1500, ID: 42, TTL: 63,
		Protocol: 47, SrcIP: 0x0A000001, DstIP: 0xC0A80101,
	}
	buf := make([]byte, IPv4HeaderSize)
	if err := h.SerializeTo(buf); err != nil {
		t.Fatal(err)
	}
	if !ChecksumValid(buf) {
		t.Error("serialized header checksum invalid")
	}
	var got IPv4Header
	if err := got.DecodeFromBytes(buf); err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Errorf("roundtrip mismatch:\n got %+v\nwant %+v", got, h)
	}
}

func TestIPv4DecodeErrors(t *testing.T) {
	var h IPv4Header
	if err := h.DecodeFromBytes(make([]byte, 19)); !errors.Is(err, ErrIPTruncated) {
		t.Errorf("short: %v", err)
	}
	buf := make([]byte, IPv4HeaderSize)
	buf[0] = 6 << 4
	if err := h.DecodeFromBytes(buf); !errors.Is(err, ErrNotIPv4) {
		t.Errorf("v6: %v", err)
	}
	buf[0] = 4<<4 | 6 // options present
	if err := h.DecodeFromBytes(buf); !errors.Is(err, ErrNotIPv4) {
		t.Errorf("options: %v", err)
	}
}

// TestIPv4RejectsFragmentsAndBadChecksums: what follows a non-first
// fragment's header is the middle of a datagram, and a header whose
// checksum fails is not to be read at all; both are typed errors. DF
// alone is a whole datagram and survives the round trip.
func TestIPv4RejectsFragmentsAndBadChecksums(t *testing.T) {
	h := IPv4Header{TotalLen: 100, ID: 7, TTL: 64, Protocol: 17, SrcIP: 1, DstIP: 2}
	buf := make([]byte, IPv4HeaderSize)
	if err := h.SerializeTo(buf); err != nil {
		t.Fatal(err)
	}
	withFlags := func(flags uint16) []byte {
		b := bytes.Clone(buf)
		binary.BigEndian.PutUint16(b[6:], flags)
		binary.BigEndian.PutUint16(b[10:], 0)
		binary.BigEndian.PutUint16(b[10:], ipv4Checksum(b))
		return b
	}
	var got IPv4Header
	for _, c := range []struct {
		name  string
		flags uint16
		want  error
	}{
		{"first fragment (MF)", ipv4MF, ErrIPFragment},
		{"last fragment (offset)", 185, ErrIPFragment},
		{"middle fragment", ipv4MF | 1, ErrIPFragment},
		{"DF and offset", ipv4DF | 2, ErrIPFragment},
		{"reserved flag", ipv4Reserved, ErrNotIPv4},
	} {
		if err := got.DecodeFromBytes(withFlags(c.flags)); !errors.Is(err, c.want) {
			t.Errorf("%s: %v, want %v", c.name, err, c.want)
		}
	}
	bad := bytes.Clone(buf)
	bad[15] ^= 1 // source address, checksum left as it was
	if err := got.DecodeFromBytes(bad); !errors.Is(err, ErrIPChecksum) {
		t.Errorf("bad checksum: %v", err)
	}
	df := withFlags(ipv4DF)
	if err := got.DecodeFromBytes(df); err != nil || !got.DontFragment {
		t.Fatalf("DF: %v, DontFragment %v", err, got.DontFragment)
	}
	again := make([]byte, IPv4HeaderSize)
	if err := got.SerializeTo(again); err != nil || !bytes.Equal(again, df) {
		t.Errorf("DF header %x re-encodes to %x (%v)", df, again, err)
	}
}

func TestChecksumDetectsCorruption(t *testing.T) {
	h := IPv4Header{TotalLen: 100, TTL: 64, Protocol: 47, SrcIP: 1, DstIP: 2}
	buf := make([]byte, IPv4HeaderSize)
	if err := h.SerializeTo(buf); err != nil {
		t.Fatal(err)
	}
	for i := range buf {
		buf[i] ^= 0x40
		if ChecksumValid(buf) {
			t.Fatalf("corruption at byte %d not detected", i)
		}
		buf[i] ^= 0x40
	}
	if ChecksumValid(buf[:10]) {
		t.Error("short buffer accepted")
	}
}
