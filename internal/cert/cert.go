// Package cert implements the short-lived certificates with which an AS
// certifies the binding between an EphID and the ephemeral keys its host
// generated (paper Sections III-A and IV-C).
//
// A certificate contains the EphID, its expiration time, the two
// ephemeral public keys bound to it (X25519 for key exchange and Ed25519
// for shutoff-request signatures), and information about the issuing
// AS — its AID and the EphID of its accountability agent, which a peer
// uses to initiate the shutoff protocol (Figure 5).
//
// The paper uses a single Curve25519 key pair per EphID for both ECDH
// and ed25519 signatures; the two operations need different key forms,
// so this implementation binds one key of each type (see DESIGN.md §8).
package cert

import (
	"encoding/binary"
	"errors"
	"fmt"

	"apna/internal/crypto"
	"apna/internal/ephid"
)

// Wire layout constants.
const (
	// Version is the only certificate version this codec understands.
	Version = 1

	tbsSize = 1 + 1 + ephid.Size + 4 + crypto.X25519PublicKeySize +
		crypto.SigningPublicKeySize + 4 + ephid.Size // 106
	// Size is the full wire size of a certificate.
	Size = tbsSize + crypto.SignatureSize // 170

	sigLabel = "apna/v1/cert/ephid"
)

// Codec errors.
var (
	ErrBadLength  = errors.New("cert: wrong certificate length")
	ErrBadVersion = errors.New("cert: unsupported version")
	// ErrBadSignature means the certificate is not signed by the
	// claimed AS — the forged-certificate case of the MitM analysis in
	// Section VI-B.
	ErrBadSignature = errors.New("cert: signature verification failed")
)

// Cert is a short-lived EphID certificate, C_EphID in the paper.
type Cert struct {
	// Kind tells a peer how the EphID may be used (notably
	// receive-only identifiers from DNS, Section VII-A).
	Kind ephid.Kind
	// EphID is the certified ephemeral identifier.
	EphID ephid.EphID
	// ExpTime is the expiration time in Unix seconds; it equals the
	// expiration of the EphID itself (Section IV-C).
	ExpTime uint32
	// DHPub is the host-generated X25519 public key used to derive
	// session keys (Section IV-D1).
	DHPub [crypto.X25519PublicKeySize]byte
	// SigPub is the host-generated Ed25519 public key used to
	// authorize shutoff requests (Section IV-E).
	SigPub [crypto.SigningPublicKeySize]byte
	// AID identifies the issuing AS.
	AID ephid.AID
	// AAEphID is the EphID of the issuing AS's accountability agent,
	// the destination for shutoff requests against this EphID.
	AAEphID ephid.EphID
	// Signature is the AS's Ed25519 signature over the fields above.
	Signature [crypto.SignatureSize]byte
}

// appendTBS appends the to-be-signed encoding to dst.
func (c *Cert) appendTBS(dst []byte) []byte {
	dst = append(dst, Version, byte(c.Kind))
	dst = append(dst, c.EphID[:]...)
	dst = binary.BigEndian.AppendUint32(dst, c.ExpTime)
	dst = append(dst, c.DHPub[:]...)
	dst = append(dst, c.SigPub[:]...)
	dst = binary.BigEndian.AppendUint32(dst, uint32(c.AID))
	dst = append(dst, c.AAEphID[:]...)
	return dst
}

// Sign computes and stores the issuing AS's signature.
func (c *Cert) Sign(as *crypto.Signer) {
	tbs := c.appendTBS(make([]byte, 0, tbsSize))
	copy(c.Signature[:], as.Sign(sigLabel, tbs))
}

// Verify checks the certificate signature against the issuing AS's
// public key and that the certificate has not expired at nowUnix. This
// is the peer-side validation step of connection establishment
// (Section IV-D1).
func (c *Cert) Verify(asSigPub []byte, nowUnix int64) error {
	tbs := c.appendTBS(make([]byte, 0, tbsSize))
	if !crypto.Verify(asSigPub, sigLabel, tbs, c.Signature[:]) {
		return ErrBadSignature
	}
	if c.Expired(nowUnix) {
		return fmt.Errorf("cert: %w", ephid.ErrExpired)
	}
	return nil
}

// VerifySignature checks only the issuer's signature, ignoring expiry.
// The inter-domain accountability plane needs the split: a complaint
// about a just-expired EphID must still route to the genuine issuing
// AS (where it yields a no-op receipt), so the victim side
// authenticates the offender's certificate without judging its expiry
// — that verdict belongs to the issuing AS's clock.
func (c *Cert) VerifySignature(asSigPub []byte) error {
	tbs := c.appendTBS(make([]byte, 0, tbsSize))
	if !crypto.Verify(asSigPub, sigLabel, tbs, c.Signature[:]) {
		return ErrBadSignature
	}
	return nil
}

// Expired reports whether the certificate's expiration time has passed.
func (c *Cert) Expired(nowUnix int64) bool {
	return int64(c.ExpTime) < nowUnix
}

// MarshalBinary encodes the certificate including its signature.
func (c *Cert) MarshalBinary() ([]byte, error) {
	out := c.appendTBS(make([]byte, 0, Size))
	out = append(out, c.Signature[:]...)
	return out, nil
}

// UnmarshalBinary decodes a certificate produced by MarshalBinary. The
// signature is carried along but not verified; call Verify.
func (c *Cert) UnmarshalBinary(data []byte) error {
	if len(data) != Size {
		return fmt.Errorf("%w: got %d, want %d", ErrBadLength, len(data), Size)
	}
	if data[0] != Version {
		return fmt.Errorf("%w: %d", ErrBadVersion, data[0])
	}
	c.Kind = ephid.Kind(data[1])
	off := 2
	copy(c.EphID[:], data[off:])
	off += ephid.Size
	c.ExpTime = binary.BigEndian.Uint32(data[off:])
	off += 4
	copy(c.DHPub[:], data[off:])
	off += crypto.X25519PublicKeySize
	copy(c.SigPub[:], data[off:])
	off += crypto.SigningPublicKeySize
	c.AID = ephid.AID(binary.BigEndian.Uint32(data[off:]))
	off += 4
	copy(c.AAEphID[:], data[off:])
	off += ephid.Size
	copy(c.Signature[:], data[off:])
	return nil
}

// Equal reports whether two certificates are byte-identical. Every field
// is fixed-size and encoded whole, so two encodings are equal exactly
// when the values are.
func (c *Cert) Equal(o *Cert) bool { return *c == *o }
