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
//
// The AS signs certificates in batches: one Ed25519 signature over the
// root of a SHA-256 Merkle tree of up to MaxBatch certificates, each of
// which carries its leaf index and authentication path (SignBatch). A
// certificate signed alone is the one-leaf tree, so every certificate
// is signed and verified the same way (DESIGN.md §8, "Certificates are
// signed in batches").
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
	Version = 2

	tbsSize = 1 + 1 + ephid.Size + 4 + crypto.X25519PublicKeySize +
		crypto.SigningPublicKeySize + 4 + ephid.Size // 106
	// MinSize is the wire size of a certificate signed alone: the
	// to-be-signed fields, the signature, the depth byte and the index
	// byte.
	MinSize = tbsSize + crypto.SignatureSize + 2 // 172
	// MaxSize is the wire size of a certificate with a full path.
	// Decoders read a certificate's length from it.
	//
	//apna:only apna/internal/ms
	MaxSize = MinSize + MaxDepth*HashSize // 364
)

// Codec errors.
var (
	ErrBadLength  = errors.New("cert: wrong certificate length")
	ErrBadVersion = errors.New("cert: unsupported version")
	// ErrBadPath means the encoded authentication path is malformed: a
	// depth above MaxDepth or a leaf index outside the tree.
	ErrBadPath = errors.New("cert: malformed authentication path")
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
	// Signature is the AS's Ed25519 signature over the root of the
	// Merkle tree this certificate is a leaf of.
	Signature [crypto.SignatureSize]byte
	// Depth is that tree's height, at most MaxDepth; 0 means the
	// certificate was signed alone and its leaf is the root.
	Depth uint8
	// Index is the certificate's leaf position, below 1<<Depth.
	Index uint8
	// Path holds the Depth sibling hashes from the leaf up to the
	// root. Entries past Depth are zero, so Cert stays comparable and
	// two certificates are equal exactly when their encodings are.
	Path [MaxDepth][HashSize]byte
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

// Sign signs the certificate alone: the one-leaf batch, depth 0, whose
// root is the certificate's own leaf hash. Any earlier path is cleared.
func (c *Cert) Sign(as *crypto.Signer) {
	SignBatch([]*Cert{c}, as)
}

// Verify checks the certificate signature against the issuing AS's
// public key and that the certificate has not expired at nowUnix. This
// is the peer-side validation step of connection establishment
// (Section IV-D1).
func (c *Cert) Verify(asSigPub []byte, nowUnix int64) error {
	if err := c.VerifySignature(asSigPub); err != nil {
		return err
	}
	if c.Expired(nowUnix) {
		return fmt.Errorf("cert: %w", ephid.ErrExpired)
	}
	return nil
}

// VerifySignature checks only the issuer's signature, ignoring expiry:
// it folds the certificate's leaf up its authentication path and
// verifies the signature over the root it reaches. The inter-domain
// accountability plane needs the split from Verify: a complaint
// about a just-expired EphID must still route to the genuine issuing
// AS (where it yields a no-op receipt), so the victim side
// authenticates the offender's certificate without judging its expiry
// — that verdict belongs to the issuing AS's clock.
func (c *Cert) VerifySignature(asSigPub []byte) error {
	root, ok := c.root()
	if !ok || !crypto.Verify(asSigPub, rootLabel, root[:], c.Signature[:]) {
		return ErrBadSignature
	}
	return nil
}

// Expired reports whether the certificate's expiration time has passed.
func (c *Cert) Expired(nowUnix int64) bool {
	return int64(c.ExpTime) < nowUnix
}

// size is the certificate's wire size: MinSize plus one hash per level
// of its tree.
func (c *Cert) size() int { return MinSize + int(c.Depth)*HashSize }

// MarshalBinary encodes the certificate into a buffer of its own.
func (c *Cert) MarshalBinary() ([]byte, error) {
	return c.AppendBinary(make([]byte, 0, c.size()))
}

// AppendBinary appends the certificate's encoding to dst: the
// to-be-signed fields, the signature, the depth and index bytes, then
// Depth sibling hashes. With room for them in dst it allocates nothing.
func (c *Cert) AppendBinary(dst []byte) ([]byte, error) {
	if c.Depth > MaxDepth {
		return nil, fmt.Errorf("%w: depth %d", ErrBadPath, c.Depth)
	}
	dst = c.appendTBS(dst)
	dst = append(dst, c.Signature[:]...)
	dst = append(dst, c.Depth, c.Index)
	for k := range c.Depth {
		dst = append(dst, c.Path[k][:]...)
	}
	return dst, nil
}

// Decode reads one certificate from the front of data and reports how
// many bytes it took; what follows is the caller's. It is the only
// certificate decoder, and it is canonical: it rejects a depth above
// MaxDepth, an index outside the tree and a short input, and whatever
// it accepts re-encodes to the bytes it consumed. The signature is
// carried along but not verified; call Verify.
func (c *Cert) Decode(data []byte) (int, error) {
	if len(data) < MinSize {
		return 0, fmt.Errorf("%w: %d bytes, want at least %d", ErrBadLength, len(data), MinSize)
	}
	if data[0] != Version {
		return 0, fmt.Errorf("%w: %d", ErrBadVersion, data[0])
	}
	depth, index := data[MinSize-2], data[MinSize-1]
	if depth > MaxDepth || int(index) >= 1<<depth {
		return 0, fmt.Errorf("%w: depth %d, index %d", ErrBadPath, depth, index)
	}
	n := MinSize + int(depth)*HashSize
	if len(data) < n {
		return 0, fmt.Errorf("%w: %d bytes, want %d for depth %d", ErrBadLength, len(data), n, depth)
	}
	*c = Cert{Kind: ephid.Kind(data[1]), Depth: depth, Index: index}
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
	off = MinSize
	for k := range depth {
		copy(c.Path[k][:], data[off:])
		off += HashSize
	}
	return n, nil
}

// UnmarshalBinary decodes data as exactly one certificate.
func (c *Cert) UnmarshalBinary(data []byte) error {
	n, err := c.Decode(data)
	if err != nil {
		return err
	}
	if n != len(data) {
		return fmt.Errorf("%w: got %d, want %d", ErrBadLength, len(data), n)
	}
	return nil
}

// Equal reports whether two certificates are byte-identical. Every field
// is fixed-size and Path is zero past Depth, so two encodings are equal
// exactly when the values are.
func (c *Cert) Equal(o *Cert) bool { return *c == *o }
