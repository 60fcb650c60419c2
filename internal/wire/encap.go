package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// The IPv4 header the gateway reads and writes when it translates
// legacy traffic (Section VII-D).
const (
	IPv4HeaderSize = 20 // no options

	ipv4Version = 4
	ipv4IHL     = 5 // 20 bytes, no options

	// The flags/fragment-offset word (bytes 6-7).
	ipv4Reserved   = 0x8000
	ipv4DF         = 0x4000
	ipv4MF         = 0x2000
	ipv4OffsetMask = 0x1fff
)

// IPv4 decoding errors.
var (
	ErrNotIPv4     = errors.New("wire: not an IPv4 packet")
	ErrIPTruncated = errors.New("wire: truncated IPv4 packet")
	ErrIPFragment  = errors.New("wire: IPv4 fragment")
	ErrIPChecksum  = errors.New("wire: bad IPv4 header checksum")
)

// IPv4Header is the 20-byte IPv4 header of a legacy packet.
type IPv4Header struct {
	TOS          uint8
	TotalLen     uint16
	ID           uint16
	DontFragment bool
	TTL          uint8
	Protocol     uint8
	Checksum     uint16
	SrcIP        uint32
	DstIP        uint32
}

// DecodeFromBytes parses an IPv4 header (without options support; IHL
// must be 5). It takes only whole datagrams under a correct header
// checksum: a fragment (MF set or a non-zero offset) is ErrIPFragment,
// since what follows its header is not the start of a segment, and a
// bad checksum is ErrIPChecksum. A header it accepts re-serializes to
// the same 20 bytes.
func (h *IPv4Header) DecodeFromBytes(data []byte) error {
	if len(data) < IPv4HeaderSize {
		return fmt.Errorf("%w: %d bytes", ErrIPTruncated, len(data))
	}
	if data[0]>>4 != ipv4Version {
		return fmt.Errorf("%w: version %d", ErrNotIPv4, data[0]>>4)
	}
	if data[0]&0x0f != ipv4IHL {
		return fmt.Errorf("%w: IHL %d unsupported", ErrNotIPv4, data[0]&0x0f)
	}
	if !ChecksumValid(data) {
		return fmt.Errorf("%w: %#04x", ErrIPChecksum, binary.BigEndian.Uint16(data[10:]))
	}
	flags := binary.BigEndian.Uint16(data[6:])
	if flags&ipv4Reserved != 0 {
		return fmt.Errorf("%w: reserved flag set", ErrNotIPv4)
	}
	if flags&(ipv4MF|ipv4OffsetMask) != 0 {
		return fmt.Errorf("%w: flags/offset %#04x", ErrIPFragment, flags)
	}
	h.TOS = data[1]
	h.TotalLen = binary.BigEndian.Uint16(data[2:])
	h.ID = binary.BigEndian.Uint16(data[4:])
	h.DontFragment = flags&ipv4DF != 0
	h.TTL = data[8]
	h.Protocol = data[9]
	h.Checksum = binary.BigEndian.Uint16(data[10:])
	h.SrcIP = binary.BigEndian.Uint32(data[12:])
	h.DstIP = binary.BigEndian.Uint32(data[16:])
	return nil
}

// SerializeTo writes the header into buf, computing the checksum.
func (h *IPv4Header) SerializeTo(buf []byte) error {
	if len(buf) < IPv4HeaderSize {
		return fmt.Errorf("%w: %d bytes", ErrIPTruncated, len(buf))
	}
	buf[0] = ipv4Version<<4 | ipv4IHL
	buf[1] = h.TOS
	binary.BigEndian.PutUint16(buf[2:], h.TotalLen)
	binary.BigEndian.PutUint16(buf[4:], h.ID)
	var flags uint16 // never a fragment
	if h.DontFragment {
		flags = ipv4DF
	}
	binary.BigEndian.PutUint16(buf[6:], flags)
	buf[8] = h.TTL
	buf[9] = h.Protocol
	binary.BigEndian.PutUint16(buf[10:], 0) // checksum placeholder
	binary.BigEndian.PutUint32(buf[12:], h.SrcIP)
	binary.BigEndian.PutUint32(buf[16:], h.DstIP)
	h.Checksum = ipv4Checksum(buf[:IPv4HeaderSize])
	binary.BigEndian.PutUint16(buf[10:], h.Checksum)
	return nil
}

// ipv4Checksum is the RFC 1071 ones-complement sum over the header.
func ipv4Checksum(hdr []byte) uint16 {
	var sum uint32
	for i := 0; i+1 < len(hdr); i += 2 {
		sum += uint32(binary.BigEndian.Uint16(hdr[i:]))
	}
	for sum>>16 != 0 {
		sum = sum&0xffff + sum>>16
	}
	return ^uint16(sum)
}

// ChecksumValid reports whether the header bytes carry a correct
// checksum.
func ChecksumValid(hdr []byte) bool {
	if len(hdr) < IPv4HeaderSize {
		return false
	}
	var sum uint32
	for i := 0; i+1 < IPv4HeaderSize; i += 2 {
		sum += uint32(binary.BigEndian.Uint16(hdr[i:]))
	}
	for sum>>16 != 0 {
		sum = sum&0xffff + sum>>16
	}
	return uint16(sum) == 0xffff
}
