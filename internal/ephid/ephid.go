// Package ephid implements APNA's Ephemeral Identifiers — the heart of
// the architecture (paper Sections III-B, IV-C and V-A1).
//
// An EphID is a 16-byte encrypted token minted by an AS for one of its
// authenticated hosts. It binds the host identifier (HID) and an
// expiration time under the AS's secret keys using the Encrypt-then-MAC
// construction of Figure 6:
//
//	CT(8)  = AES-CTR(kA', IV||0^12)[0:8] XOR (HID(4) || ExpTime(4))
//	TAG(4) = CBC-MAC(kA'', IV(4) || 0^4 || CT(8)) truncated to 4 bytes
//	EphID  = CT(8) || IV(4) || TAG(4)
//
// Only the issuing AS can recover the HID (host privacy); any party can
// carry the EphID around as an opaque return address; and the AS can
// decode it statelessly at constant cost, with no mapping table
// (design choice 1 in Section IV).
package ephid

import (
	"encoding/binary"
	"encoding/hex"
	"fmt"
)

// Size is the wire size of an EphID in bytes (Figure 7).
const Size = 16

// Field offsets within the 16-byte EphID (Figure 6).
const (
	ctOff  = 0 // 8-byte ciphertext: HID || ExpTime
	ivOff  = 8 // 4-byte initialization vector
	tagOff = 12
	ctLen  = 8
	ivLen  = 4
	tagLen = 4
)

// HID is a Host Identifier: the AS-internal identity of a host
// (Section III-B). The paper uses 4 bytes, "sufficient to uniquely
// represent all hosts even in large ASes"; in the IPv4 deployment the
// host's IPv4 address doubles as its HID (Section VII-D).
type HID uint32

// String renders the HID in IPv4 dotted-quad style, matching the paper's
// deployment story where HIDs are IPv4 addresses.
func (h HID) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", byte(h>>24), byte(h>>16), byte(h>>8), byte(h))
}

// Hash mixes the HID into 32 well-spread bits (the murmur3 finalizer)
// for the hash tables keyed by it: ASes hand HIDs out in sequence or
// from one subnet, so their own bits spread badly.
func (h HID) Hash() uint32 {
	x := uint32(h)
	x = (x ^ x>>16) * 0x85ebca6b
	x = (x ^ x>>13) * 0xc2b2ae35
	return x ^ x>>16
}

// AID is an AS identifier (e.g. an Autonomous System Number). Hosts are
// fully addressed by an AID:EphID tuple (Section III-B).
type AID uint32

// String renders the AID as ASN-style text.
func (a AID) String() string { return fmt.Sprintf("AS%d", uint32(a)) }

// EphID is the 16-byte ephemeral identifier. It is a comparable value
// type so it can key maps (revocation lists, flow tables).
type EphID [Size]byte

// IsZero reports whether e is the all-zero EphID, used as "unset".
func (e EphID) IsZero() bool { return e == EphID{} }

// IV returns the 4-byte initialization vector embedded in the EphID.
func (e EphID) IV() [ivLen]byte { return [ivLen]byte(e[ivOff : ivOff+ivLen]) }

// String renders the EphID as hex, grouped as ciphertext-iv-tag.
func (e EphID) String() string {
	return hex.EncodeToString(e[ctOff:ctOff+ctLen]) + "-" +
		hex.EncodeToString(e[ivOff:ivOff+ivLen]) + "-" +
		hex.EncodeToString(e[tagOff:tagOff+tagLen])
}

// FromBytes parses an EphID from exactly Size bytes.
func FromBytes(b []byte) (EphID, error) {
	var e EphID
	if len(b) != Size {
		return e, fmt.Errorf("ephid: need %d bytes, got %d", Size, len(b))
	}
	copy(e[:], b)
	return e, nil
}

// Kind classifies how an EphID is used. The wire construction is
// identical for all kinds ("Both control and data-plane EphIDs are
// constructed identically", Section IV-B); the kind lives in issuance
// state and certificates so that peers can recognize receive-only
// identifiers (Section VII-A).
type Kind uint8

const (
	// KindData is a data-plane EphID used for regular communication
	// sessions.
	KindData Kind = iota
	// KindControl is issued at bootstrap and used to reach the AS's
	// internal services (MS, DNS); it has a longer lifetime.
	KindControl
	// KindReceiveOnly marks an EphID that is only ever a destination.
	// It is published in DNS and can never be the subject of a shutoff
	// request because it never appears as a source (Section VII-A).
	KindReceiveOnly
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindData:
		return "data"
	case KindControl:
		return "control"
	case KindReceiveOnly:
		return "receive-only"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Payload is the decoded interior of an EphID.
type Payload struct {
	HID HID
	// ExpTime is the expiration time in Unix seconds (4-byte wire
	// granularity, Section V-A1).
	ExpTime uint32
}

// Expired reports whether the payload's expiration time has passed at
// the given Unix time.
func (p Payload) Expired(nowUnix int64) bool {
	return int64(p.ExpTime) < nowUnix
}

// encodePlain writes HID||ExpTime into an 8-byte buffer.
func (p Payload) encodePlain(dst *[ctLen]byte) {
	binary.BigEndian.PutUint32(dst[0:4], uint32(p.HID))
	binary.BigEndian.PutUint32(dst[4:8], p.ExpTime)
}

// decodePlain parses HID||ExpTime from an 8-byte buffer.
func decodePlain(src *[ctLen]byte) Payload {
	return Payload{
		HID:     HID(binary.BigEndian.Uint32(src[0:4])),
		ExpTime: binary.BigEndian.Uint32(src[4:8]),
	}
}
