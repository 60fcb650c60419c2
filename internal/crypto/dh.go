package crypto

import (
	"crypto/ecdh"
	"crypto/rand"
	"fmt"
)

// X25519 public key size in bytes. The paper chooses Curve25519 for its
// performance and 32-byte public keys (Section V-A2).
const X25519PublicKeySize = 32

// KeyPair is an X25519 key pair used for Diffie-Hellman exchanges: the
// host<->AS bootstrap (Figure 2) and the per-EphID keys from which
// session keys are derived (Section IV-D1).
type KeyPair struct {
	priv *ecdh.PrivateKey
}

// GenerateKeyPair returns a fresh X25519 key pair drawn from
// crypto/rand. It is served from a stock that another core refills (see
// stock), so the caller rarely pays for the generation itself.
func GenerateKeyPair() (*KeyPair, error) { return dhStock.take() }

// generateKeyPair draws an X25519 key pair from crypto/rand.
func generateKeyPair() (*KeyPair, error) {
	priv, err := ecdh.X25519().GenerateKey(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("crypto: generating X25519 key: %w", err)
	}
	return &KeyPair{priv: priv}, nil
}

// KeyPairFromSeed builds a deterministic key pair from a 32-byte seed.
// It is intended for tests and reproducible simulations.
func KeyPairFromSeed(seed []byte) (*KeyPair, error) {
	priv, err := ecdh.X25519().NewPrivateKey(seed)
	if err != nil {
		return nil, fmt.Errorf("crypto: X25519 key from seed: %w", err)
	}
	return &KeyPair{priv: priv}, nil
}

// PublicKey returns the 32-byte X25519 public key.
func (k *KeyPair) PublicKey() []byte { return k.priv.PublicKey().Bytes() }

// SharedSecret computes the X25519 shared secret with the 32-byte peer
// public key.
func (k *KeyPair) SharedSecret(peerPub []byte) ([]byte, error) {
	pub, err := ecdh.X25519().NewPublicKey(peerPub)
	if err != nil {
		return nil, fmt.Errorf("crypto: peer X25519 key: %w", err)
	}
	secret, err := k.priv.ECDH(pub)
	if err != nil {
		return nil, fmt.Errorf("crypto: X25519 exchange: %w", err)
	}
	return secret, nil
}
