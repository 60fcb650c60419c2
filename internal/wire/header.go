// Package wire implements the APNA packet formats: the network header of
// Figure 7, per-packet MACs, flow identifiers, and the IPv4+GRE
// encapsulation of the incremental-deployment path (Figure 9).
//
// The codec follows the gopacket decoding-layer idiom: DecodeFromBytes
// parses into a caller-owned struct without allocating, and SerializeTo
// writes into a caller-provided buffer, so the border-router fast path
// is allocation free.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"

	"apna/internal/ephid"
)

// Header layout. The 48 bytes enumerated in Figure 7 (source/destination
// AIDs and EphIDs plus the 8-byte MAC) are kept bit-compatible; the
// additional 16 bytes carry the protocol demultiplexer shown in Figure 9
// ("Protocol = UL"), flags, a hop limit, the payload length, and the
// replay nonce proposed in Section VIII-D. The full header is one cache
// line.
const (
	offVersion    = 0
	offNextProto  = 1
	offFlags      = 2
	offHopLimit   = 3
	offPayloadLen = 4
	offReserved   = 6
	offNonce      = 8
	offSrcAID     = 16
	offDstAID     = 20
	offSrcEphID   = 24
	offDstEphID   = 40
	offMAC        = 56

	// HeaderSize is the total APNA header length in bytes.
	HeaderSize = 64
	// MACSize is the per-packet MAC length (Figure 7).
	MACSize = 8
	// MaxPayload is the largest payload a header can describe.
	MaxPayload = 1<<16 - 1

	// Version is the only header version this codec understands.
	Version = 1

	// DefaultHopLimit is the initial hop limit on new packets.
	DefaultHopLimit = 64
)

// NextProto values demultiplex the payload, taking the role of the
// "Protocol = UL" field in the paper's GRE encapsulation figure.
type NextProto uint8

const (
	// ProtoSession carries encrypted session data (Section IV-D2).
	ProtoSession NextProto = iota
	// ProtoControl carries host<->AS control messages such as EphID
	// requests and replies (Section IV-C).
	ProtoControl
	// ProtoHandshake carries connection-establishment messages
	// (Section IV-D1 and the client-server variant of Section VII-A).
	ProtoHandshake
	// ProtoICMP carries ICMP messages (Section VIII-B).
	ProtoICMP
	// ProtoShutoff carries shutoff requests to accountability agents
	// (Section IV-E).
	ProtoShutoff
	// ProtoAcct carries the inter-domain accountability plane:
	// host-to-AA complaints, AA-to-AA shutoff requests and receipts,
	// and revocation-digest dissemination (Section IV-E applied across
	// AS borders).
	ProtoAcct
)

// String names the protocol number.
func (p NextProto) String() string {
	switch p {
	case ProtoSession:
		return "session"
	case ProtoControl:
		return "control"
	case ProtoHandshake:
		return "handshake"
	case ProtoICMP:
		return "icmp"
	case ProtoShutoff:
		return "shutoff"
	case ProtoAcct:
		return "acct"
	default:
		return fmt.Sprintf("proto(%d)", uint8(p))
	}
}

// Header flag bits.
const (
	// FlagControl marks packets addressed to AS-internal services;
	// border routers never let them leave the AS.
	FlagControl = 1 << 0
	// FlagZeroRTT marks a handshake packet that already carries
	// encrypted application data (the 0-RTT establishment option of
	// Section VII-C).
	FlagZeroRTT = 1 << 1
)

// Codec errors.
var (
	ErrTruncated  = errors.New("wire: buffer shorter than header")
	ErrBadVersion = errors.New("wire: unsupported header version")
	ErrBadLength  = errors.New("wire: payload length mismatch")
	ErrTooLarge   = errors.New("wire: payload exceeds maximum")
)

// Header is the decoded APNA network header. Communication end points
// are AID:EphID tuples (Section III-B).
type Header struct {
	NextProto  NextProto
	Flags      uint8
	HopLimit   uint8
	PayloadLen uint16
	// Nonce makes every packet from a sender unique, enabling replay
	// detection at the destination (Section VIII-D).
	Nonce    uint64
	SrcAID   ephid.AID
	DstAID   ephid.AID
	SrcEphID ephid.EphID
	DstEphID ephid.EphID
	// MAC is computed with the key the source host shares with its AS
	// (kHA); it is what links every packet to its sender.
	MAC [MACSize]byte
}

// DecodeFromBytes parses a header from the first HeaderSize bytes of
// data without retaining or allocating memory.
func (h *Header) DecodeFromBytes(data []byte) error {
	if len(data) < HeaderSize {
		return fmt.Errorf("%w: %d bytes", ErrTruncated, len(data))
	}
	if data[offVersion] != Version {
		return fmt.Errorf("%w: %d", ErrBadVersion, data[offVersion])
	}
	h.NextProto = NextProto(data[offNextProto])
	h.Flags = data[offFlags]
	h.HopLimit = data[offHopLimit]
	h.PayloadLen = binary.BigEndian.Uint16(data[offPayloadLen:])
	h.Nonce = binary.BigEndian.Uint64(data[offNonce:])
	h.SrcAID = ephid.AID(binary.BigEndian.Uint32(data[offSrcAID:]))
	h.DstAID = ephid.AID(binary.BigEndian.Uint32(data[offDstAID:]))
	copy(h.SrcEphID[:], data[offSrcEphID:offSrcEphID+ephid.Size])
	copy(h.DstEphID[:], data[offDstEphID:offDstEphID+ephid.Size])
	copy(h.MAC[:], data[offMAC:offMAC+MACSize])
	return nil
}

// SerializeTo writes the header into the first HeaderSize bytes of buf.
func (h *Header) SerializeTo(buf []byte) error {
	if len(buf) < HeaderSize {
		return fmt.Errorf("%w: %d bytes", ErrTruncated, len(buf))
	}
	buf[offVersion] = Version
	buf[offNextProto] = byte(h.NextProto)
	buf[offFlags] = h.Flags
	buf[offHopLimit] = h.HopLimit
	binary.BigEndian.PutUint16(buf[offPayloadLen:], h.PayloadLen)
	binary.BigEndian.PutUint16(buf[offReserved:], 0)
	binary.BigEndian.PutUint64(buf[offNonce:], h.Nonce)
	binary.BigEndian.PutUint32(buf[offSrcAID:], uint32(h.SrcAID))
	binary.BigEndian.PutUint32(buf[offDstAID:], uint32(h.DstAID))
	copy(buf[offSrcEphID:], h.SrcEphID[:])
	copy(buf[offDstEphID:], h.DstEphID[:])
	copy(buf[offMAC:], h.MAC[:])
	return nil
}

// AppendTo appends the serialized header to dst and returns the
// extended slice. When dst has HeaderSize bytes of spare capacity the
// call performs no allocation, which is what lets pipelines encode into
// pooled frame buffers.
func (h *Header) AppendTo(dst []byte) []byte {
	n := len(dst)
	dst = append(dst, make([]byte, HeaderSize)...)
	_ = h.SerializeTo(dst[n:]) // cannot fail: the slice has HeaderSize bytes
	return dst
}

// Packet couples a header with its payload bytes.
type Packet struct {
	Header  Header
	Payload []byte
}

// AppendTo appends the serialized packet (header plus payload) to dst,
// fixing up PayloadLen, and returns the extended slice. With enough
// spare capacity in dst the call does not allocate — the zero-copy
// encoder of the forwarding fast path.
func (p *Packet) AppendTo(dst []byte) ([]byte, error) {
	if len(p.Payload) > MaxPayload {
		return dst, fmt.Errorf("%w: %d bytes", ErrTooLarge, len(p.Payload))
	}
	p.Header.PayloadLen = uint16(len(p.Payload))
	dst = p.Header.AppendTo(dst)
	return append(dst, p.Payload...), nil
}

// Encode serializes the packet into a fresh buffer, fixing up
// PayloadLen. It is the allocating convenience wrapper over AppendTo.
func (p *Packet) Encode() ([]byte, error) {
	buf, err := p.AppendTo(make([]byte, 0, HeaderSize+len(p.Payload)))
	if err != nil {
		return nil, err
	}
	return buf, nil
}

// DecodePacket parses a full frame. The packet is returned by value, so
// a receive path holds it on the stack; its Payload aliases data
// (gopacket NoCopy-style) and the caller must not mutate data while the
// packet is live.
func DecodePacket(data []byte) (Packet, error) {
	var p Packet
	if err := p.Header.DecodeFromBytes(data); err != nil {
		return Packet{}, err
	}
	if int(p.Header.PayloadLen) != len(data)-HeaderSize {
		return Packet{}, fmt.Errorf("%w: header says %d, frame carries %d",
			ErrBadLength, p.Header.PayloadLen, len(data)-HeaderSize)
	}
	p.Payload = data[HeaderSize:]
	return p, nil
}

// Raw frame accessors used on the border-router fast path, which
// operates on frames without decoding them into a Header struct.

// FrameSrcAID reads the source AID directly from a raw frame.
func FrameSrcAID(frame []byte) ephid.AID {
	return ephid.AID(binary.BigEndian.Uint32(frame[offSrcAID:]))
}

// FrameDstAID reads the destination AID directly from a raw frame.
func FrameDstAID(frame []byte) ephid.AID {
	return ephid.AID(binary.BigEndian.Uint32(frame[offDstAID:]))
}

// FrameSrcEphID reads the source EphID directly from a raw frame.
func FrameSrcEphID(frame []byte) ephid.EphID {
	return ephid.EphID(frame[offSrcEphID : offSrcEphID+ephid.Size])
}

// FrameDstEphID reads the destination EphID directly from a raw frame.
func FrameDstEphID(frame []byte) ephid.EphID {
	return ephid.EphID(frame[offDstEphID : offDstEphID+ephid.Size])
}

// FrameFlags reads the flag byte directly from a raw frame.
func FrameFlags(frame []byte) uint8 { return frame[offFlags] }

// FrameHopLimit reads the hop limit from a raw frame.
func FrameHopLimit(frame []byte) uint8 { return frame[offHopLimit] }

// FrameDecrementHopLimit decrements the hop limit in place and reports
// whether the packet may still be forwarded. The hop limit is excluded
// from the packet MAC precisely so transit ASes can decrement it.
func FrameDecrementHopLimit(frame []byte) bool {
	if frame[offHopLimit] == 0 {
		return false
	}
	frame[offHopLimit]--
	return frame[offHopLimit] > 0
}

// ValidFrame reports whether data is long enough and version-correct to
// be treated as an APNA frame.
func ValidFrame(data []byte) bool {
	return len(data) >= HeaderSize && data[offVersion] == Version &&
		int(binary.BigEndian.Uint16(data[offPayloadLen:])) == len(data)-HeaderSize
}
