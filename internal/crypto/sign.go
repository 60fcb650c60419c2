package crypto

import (
	"crypto/ed25519"
	"crypto/rand"
	"fmt"
)

// Ed25519 sizes re-exported so that higher layers do not import
// crypto/ed25519 directly.
const (
	SigningPublicKeySize = ed25519.PublicKeySize
	SignatureSize        = ed25519.SignatureSize
)

// Signer holds an Ed25519 signing key. ASes use one to sign EphID
// certificates and RPKI resource records; hosts hold one per EphID to
// authorize shutoff requests (Figure 5).
type Signer struct {
	priv ed25519.PrivateKey
}

// GenerateSigner returns a fresh Ed25519 key pair drawn from
// crypto/rand. Like GenerateKeyPair, it is served from a stock that
// another core refills.
func GenerateSigner() (*Signer, error) { return sigStock.take() }

// generateSigner draws an Ed25519 key pair from crypto/rand.
func generateSigner() (*Signer, error) {
	_, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("crypto: generating Ed25519 key: %w", err)
	}
	return &Signer{priv: priv}, nil
}

// SignerFromSeed builds a deterministic signer from a 32-byte seed, for
// tests and reproducible simulations.
func SignerFromSeed(seed []byte) (*Signer, error) {
	if len(seed) != ed25519.SeedSize {
		return nil, fmt.Errorf("crypto: Ed25519 seed must be %d bytes, got %d", ed25519.SeedSize, len(seed))
	}
	return &Signer{priv: ed25519.NewKeyFromSeed(seed)}, nil
}

// PublicKey returns the 32-byte Ed25519 verification key.
func (s *Signer) PublicKey() []byte {
	return []byte(s.priv.Public().(ed25519.PublicKey))
}

// Sign signs msg under the given domain-separation label. The label is
// prepended so a signature produced for one protocol message type can
// never be replayed as another.
func (s *Signer) Sign(label string, msg []byte) []byte {
	return ed25519.Sign(s.priv, frame(label, msg))
}

// Verify reports whether sig is a valid signature by pub over msg under
// the given domain-separation label.
func Verify(pub []byte, label string, msg, sig []byte) bool {
	if len(pub) != ed25519.PublicKeySize || len(sig) != ed25519.SignatureSize {
		return false
	}
	return ed25519.Verify(ed25519.PublicKey(pub), frame(label, msg), sig)
}

// frame builds the domain-separated message: label || 0x00 || msg.
func frame(label string, msg []byte) []byte {
	framed := make([]byte, 0, len(label)+1+len(msg))
	framed = append(framed, label...)
	framed = append(framed, 0)
	framed = append(framed, msg...)
	return framed
}
