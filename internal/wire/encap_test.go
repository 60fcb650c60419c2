package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
	"testing/quick"
)

func TestIPv4HeaderRoundTrip(t *testing.T) {
	h := IPv4Header{
		TOS: 0x10, TotalLen: 1500, ID: 42, TTL: 63,
		Protocol: IPProtoGRE, SrcIP: 0x0A000001, DstIP: 0xC0A80101,
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
	h := IPv4Header{TotalLen: 100, TTL: 64, Protocol: IPProtoGRE, SrcIP: 1, DstIP: 2}
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

func TestEncapsulateDecapsulate(t *testing.T) {
	p := Packet{Header: sampleHeader(), Payload: []byte("tunnel me")}
	frame, _ := p.Encode()
	tun, err := Encapsulate(0x0A000001, 0x0A000002, frame)
	if err != nil {
		t.Fatal(err)
	}
	ip, inner, err := Decapsulate(tun)
	if err != nil {
		t.Fatal(err)
	}
	if ip.SrcIP != 0x0A000001 || ip.DstIP != 0x0A000002 {
		t.Errorf("outer addresses %x -> %x", ip.SrcIP, ip.DstIP)
	}
	if !bytes.Equal(inner, frame) {
		t.Error("inner frame mismatch")
	}
	if _, err := DecodePacket(inner); err != nil {
		t.Errorf("inner frame does not decode: %v", err)
	}
}

func TestDecapsulateErrors(t *testing.T) {
	p := Packet{Header: sampleHeader()}
	frame, _ := p.Encode()
	tun, _ := Encapsulate(1, 2, frame)

	// Wrong IP protocol.
	bad := append([]byte(nil), tun...)
	bad[9] = 6 // TCP
	var ip IPv4Header
	_ = ip // recompute checksum so only the protocol check fires
	h := IPv4Header{TotalLen: uint16(len(bad)), TTL: DefaultHopLimit, Protocol: 6, SrcIP: 1, DstIP: 2}
	_ = h.SerializeTo(bad)
	if _, _, err := Decapsulate(bad); !errors.Is(err, ErrNotGRE) {
		t.Errorf("wrong proto: %v", err)
	}

	// Wrong GRE ethertype.
	bad2 := append([]byte(nil), tun...)
	bad2[IPv4HeaderSize+2] = 0
	bad2[IPv4HeaderSize+3] = 0
	if _, _, err := Decapsulate(bad2); !errors.Is(err, ErrNotAPNAGRE) {
		t.Errorf("wrong ethertype: %v", err)
	}

	// GRE flags set.
	bad3 := append([]byte(nil), tun...)
	bad3[IPv4HeaderSize] = 0x80
	if _, _, err := Decapsulate(bad3); !errors.Is(err, ErrNotGRE) {
		t.Errorf("flags: %v", err)
	}

	// Truncated.
	if _, _, err := Decapsulate(tun[:len(tun)-1]); err == nil {
		t.Error("truncated tunnel packet accepted")
	}
}

func TestEncapsulateRoundTripProperty(t *testing.T) {
	f := func(src, dst uint32, payload []byte) bool {
		if len(payload) > 1400 {
			payload = payload[:1400]
		}
		p := Packet{Header: sampleHeader(), Payload: payload}
		frame, err := p.Encode()
		if err != nil {
			return false
		}
		tun, err := Encapsulate(src, dst, frame)
		if err != nil {
			return false
		}
		ip, inner, err := Decapsulate(tun)
		return err == nil && ip.SrcIP == src && ip.DstIP == dst && bytes.Equal(inner, frame)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEncapsulateTooLarge(t *testing.T) {
	if _, err := Encapsulate(1, 2, make([]byte, 0x10000)); !errors.Is(err, ErrTooLarge) {
		t.Errorf("err = %v", err)
	}
}
