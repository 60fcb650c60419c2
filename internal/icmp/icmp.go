// Package icmp implements control messaging over APNA (paper
// Section VIII-B): because the source EphID in every packet is a valid,
// privacy-preserving return address, routers and hosts can send
// ICMP-style feedback directly to a packet's source. Message senders use
// their own EphIDs, so ICMP itself enjoys APNA's accountability and host
// privacy. Per the paper, ICMP payloads are not encrypted.
package icmp

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Type enumerates the ICMP message types the simulation uses.
type Type uint8

const (
	// TypeEchoRequest asks the destination to answer (ping).
	TypeEchoRequest Type = iota + 1
	// TypeEchoReply answers an echo request.
	TypeEchoReply
	// TypeDestUnreachable reports that a packet could not be delivered
	// (expired or revoked destination EphID, unknown HID).
	TypeDestUnreachable
	// TypeTimeExceeded reports a hop-limit expiry (traceroute).
	TypeTimeExceeded
	// TypePacketTooBig reports an MTU violation (path MTU discovery).
	TypePacketTooBig
)

// String names the type.
func (t Type) String() string {
	switch t {
	case TypeEchoRequest:
		return "echo-request"
	case TypeEchoReply:
		return "echo-reply"
	case TypeDestUnreachable:
		return "dest-unreachable"
	case TypeTimeExceeded:
		return "time-exceeded"
	case TypePacketTooBig:
		return "packet-too-big"
	default:
		return fmt.Sprintf("icmp(%d)", uint8(t))
	}
}

// Codes for TypeDestUnreachable.
const (
	CodeEphIDExpired = 1
	CodeEphIDRevoked = 2
	CodeUnknownHost  = 3
	CodeNoRouteToAS  = 4
)

// Message is an ICMP message. Error messages quote the leading bytes of
// the offending packet in Body so the source can attribute the error to
// a flow; informational messages carry opaque payload.
type Message struct {
	Type Type
	Code uint8
	// Seq correlates echo requests and replies; MTU for PacketTooBig.
	Seq  uint16
	Body []byte
}

const headerLen = 6

// Errors returned by Decode.
var (
	ErrTruncated = errors.New("icmp: truncated message")
	ErrBadLength = errors.New("icmp: body length mismatch")
)

// Encode serializes the message.
func (m *Message) Encode() []byte {
	buf := make([]byte, headerLen+len(m.Body))
	buf[0] = byte(m.Type)
	buf[1] = m.Code
	binary.BigEndian.PutUint16(buf[2:], m.Seq)
	binary.BigEndian.PutUint16(buf[4:], uint16(len(m.Body)))
	copy(buf[headerLen:], m.Body)
	return buf
}

// Decode parses a message; Body aliases data.
func Decode(data []byte) (*Message, error) {
	if len(data) < headerLen {
		return nil, fmt.Errorf("%w: %d bytes", ErrTruncated, len(data))
	}
	bodyLen := int(binary.BigEndian.Uint16(data[4:]))
	if len(data) != headerLen+bodyLen {
		return nil, fmt.Errorf("%w: header says %d, have %d", ErrBadLength, bodyLen, len(data)-headerLen)
	}
	return &Message{
		Type: Type(data[0]),
		Code: data[1],
		Seq:  binary.BigEndian.Uint16(data[2:]),
		Body: data[headerLen:],
	}, nil
}

// QuoteLimit caps how much of an offending packet an error message
// quotes (the APNA header plus a little payload, like classic ICMP's
// "IP header + 8 bytes").
const QuoteLimit = 96

// Quote returns the leading bytes of an offending packet for inclusion
// in an error message body.
func Quote(frame []byte) []byte {
	if len(frame) > QuoteLimit {
		frame = frame[:QuoteLimit]
	}
	return append([]byte(nil), frame...)
}
