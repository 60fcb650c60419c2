package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// IPv4 + GRE encapsulation for deploying APNA in today's Internet
// (Section VII-D, Figure 9): an APNA frame travels inside a GRE tunnel
// between two APNA entities, whose IPv4 addresses appear in the outer
// header. Host IPv4 addresses double as HIDs and APNA-router addresses
// double as AIDs.

// Sizes of the encapsulation headers.
const (
	IPv4HeaderSize = 20 // no options
	GREHeaderSize  = 4

	// EtherTypeAPNA identifies APNA inside GRE. The paper notes a
	// dedicated EtherType would be requested from IANA; we use a value
	// from the experimental range.
	EtherTypeAPNA = 0x88B5

	// IPProtoGRE is the IPv4 protocol number for GRE (RFC 2784).
	IPProtoGRE = 47

	ipv4Version = 4
	ipv4IHL     = 5 // 20 bytes, no options

	// The flags/fragment-offset word (bytes 6-7).
	ipv4Reserved   = 0x8000
	ipv4DF         = 0x4000
	ipv4MF         = 0x2000
	ipv4OffsetMask = 0x1fff
)

// Encapsulation errors.
var (
	ErrNotIPv4     = errors.New("wire: not an IPv4 packet")
	ErrNotGRE      = errors.New("wire: not a GRE packet")
	ErrNotAPNAGRE  = errors.New("wire: GRE payload is not APNA")
	ErrIPTruncated = errors.New("wire: truncated IPv4 packet")
	ErrIPFragment  = errors.New("wire: IPv4 fragment")
	ErrIPChecksum  = errors.New("wire: bad IPv4 header checksum")
)

// IPv4Header is the 20-byte outer header used for tunneling (and by the
// gateway when translating legacy traffic).
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
// must be 5, which is all the tunnel path ever produces). It takes only
// whole datagrams under a correct header checksum: a fragment (MF set or
// a non-zero offset) is ErrIPFragment, since what follows its header is
// not the start of a segment, and a bad checksum is ErrIPChecksum. A
// header it accepts re-serializes to the same 20 bytes.
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

// AppendEncapsulate appends the IPv4+GRE encapsulation of an APNA frame
// to dst and returns the extended slice (Figure 9). With enough spare
// capacity in dst the call does not allocate, so gateways can
// encapsulate into pooled buffers.
func AppendEncapsulate(dst []byte, srcIP, dstIP uint32, apnaFrame []byte) ([]byte, error) {
	total := IPv4HeaderSize + GREHeaderSize + len(apnaFrame)
	if total > 0xffff {
		return dst, fmt.Errorf("%w: %d bytes", ErrTooLarge, total)
	}
	n := len(dst)
	dst = append(dst, make([]byte, IPv4HeaderSize+GREHeaderSize)...)
	buf := dst[n:]
	ip := IPv4Header{
		TotalLen: uint16(total),
		TTL:      DefaultHopLimit,
		Protocol: IPProtoGRE,
		SrcIP:    srcIP,
		DstIP:    dstIP,
	}
	if err := ip.SerializeTo(buf); err != nil {
		return dst[:n], err
	}
	// GRE (RFC 2784): no checksum, version 0, protocol type APNA.
	binary.BigEndian.PutUint16(buf[IPv4HeaderSize:], 0)
	binary.BigEndian.PutUint16(buf[IPv4HeaderSize+2:], EtherTypeAPNA)
	return append(dst, apnaFrame...), nil
}

// Encapsulate wraps an APNA frame in IPv4+GRE between two tunnel
// endpoints (Figure 9). It is the allocating convenience wrapper over
// AppendEncapsulate.
func Encapsulate(srcIP, dstIP uint32, apnaFrame []byte) ([]byte, error) {
	return AppendEncapsulate(
		make([]byte, 0, IPv4HeaderSize+GREHeaderSize+len(apnaFrame)),
		srcIP, dstIP, apnaFrame)
}

// Decapsulate unwraps an IPv4+GRE tunnel packet, returning the outer
// header and the inner APNA frame (aliasing data).
func Decapsulate(data []byte) (*IPv4Header, []byte, error) {
	var ip IPv4Header
	if err := ip.DecodeFromBytes(data); err != nil {
		return nil, nil, err
	}
	if ip.Protocol != IPProtoGRE {
		return nil, nil, fmt.Errorf("%w: protocol %d", ErrNotGRE, ip.Protocol)
	}
	if int(ip.TotalLen) != len(data) {
		return nil, nil, fmt.Errorf("%w: total length %d vs %d", ErrIPTruncated, ip.TotalLen, len(data))
	}
	if len(data) < IPv4HeaderSize+GREHeaderSize {
		return nil, nil, fmt.Errorf("%w: %d bytes", ErrIPTruncated, len(data))
	}
	gre := data[IPv4HeaderSize:]
	if binary.BigEndian.Uint16(gre) != 0 {
		return nil, nil, fmt.Errorf("%w: flags %#x", ErrNotGRE, binary.BigEndian.Uint16(gre))
	}
	if binary.BigEndian.Uint16(gre[2:]) != EtherTypeAPNA {
		return nil, nil, fmt.Errorf("%w: ethertype %#x", ErrNotAPNAGRE, binary.BigEndian.Uint16(gre[2:]))
	}
	return &ip, data[IPv4HeaderSize+GREHeaderSize:], nil
}
