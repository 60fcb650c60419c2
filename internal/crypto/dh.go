package crypto

import (
	"crypto/ecdh"
	"crypto/rand"
	"errors"
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

// ErrLowOrderKey is returned for a peer X25519 key of small order: the
// shared secret it yields with any private key is all zero.
var ErrLowOrderKey = errors.New("crypto: peer X25519 key has small order")

// smallOrder holds the u-coordinates, bit 255 clear, of the X25519 keys
// whose exchange with a clamped scalar is the point at infinity: 0, 1,
// the two points of order 8, p-1, and the non-canonical encodings p and
// p+1 (p = 2^255-19). It is libsodium's has_small_order blocklist; bit
// 255 is ignored by X25519, so an encoding with it set is the same key.
var smallOrder = [...][X25519PublicKeySize]byte{
	{},
	{0: 1},
	{0xe0, 0xeb, 0x7a, 0x7c, 0x3b, 0x41, 0xb8, 0xae, 0x16, 0x56, 0xe3, 0xfa, 0xf1, 0x9f, 0xc4, 0x6a,
		0xda, 0x09, 0x8d, 0xeb, 0x9c, 0x32, 0xb1, 0xfd, 0x86, 0x62, 0x05, 0x16, 0x5f, 0x49, 0xb8, 0x00},
	{0x5f, 0x9c, 0x95, 0xbc, 0xa3, 0x50, 0x8c, 0x24, 0xb1, 0xd0, 0xb1, 0x55, 0x9c, 0x83, 0xef, 0x5b,
		0x04, 0x44, 0x5c, 0xc4, 0x58, 0x1c, 0x8e, 0x86, 0xd8, 0x22, 0x4e, 0xdd, 0xd0, 0x9f, 0x11, 0x57},
	nearP(0xec), // p-1
	nearP(0xed), // p
	nearP(0xee), // p+1
}

// nearP returns the little-endian encoding of p with its low byte
// replaced by lo.
func nearP(lo byte) (u [X25519PublicKeySize]byte) {
	for i := range u {
		u[i] = 0xff
	}
	u[0], u[31] = lo, 0x7f
	return u
}

// ParseX25519PeerKey checks a peer's X25519 public key: 32 bytes, and
// none of smallOrder's encodings with bit 255 either clear or set. It
// rejects exactly the keys crypto/ecdh's X25519 exchange fails on, so a
// key it accepts yields a shared secret with every private key, and a
// caller may validate now and exchange later.
func ParseX25519PeerKey(b []byte) (*ecdh.PublicKey, error) {
	if len(b) != X25519PublicKeySize {
		return nil, fmt.Errorf("crypto: peer X25519 key is %d bytes, want %d", len(b), X25519PublicKeySize)
	}
	u := [X25519PublicKeySize]byte(b)
	u[31] &= 0x7f
	for _, bad := range smallOrder {
		if u == bad {
			return nil, ErrLowOrderKey
		}
	}
	pub, err := ecdh.X25519().NewPublicKey(b)
	if err != nil {
		return nil, fmt.Errorf("crypto: peer X25519 key: %w", err)
	}
	return pub, nil
}

// SharedSecret computes the X25519 shared secret with the 32-byte peer
// public key, which ParseX25519PeerKey checks first.
func (k *KeyPair) SharedSecret(peerPub []byte) ([]byte, error) {
	pub, err := ParseX25519PeerKey(peerPub)
	if err != nil {
		return nil, err
	}
	secret, err := k.priv.ECDH(pub)
	if err != nil {
		return nil, fmt.Errorf("crypto: X25519 exchange: %w", err)
	}
	return secret, nil
}
