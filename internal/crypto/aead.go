package crypto

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"sync/atomic"
)

// AEAD errors.
var (
	// ErrDecrypt is returned when an AEAD open fails; the ciphertext was
	// forged, corrupted, or encrypted under a different key.
	ErrDecrypt = errors.New("crypto: message authentication failed")
	// ErrNonceExhausted is returned when a sealer has encrypted 2^48
	// messages and must be rekeyed.
	ErrNonceExhausted = errors.New("crypto: nonce space exhausted, rekey required")
)

// maxSeals bounds the number of encryptions under one sealer so the
// 48-bit counter part of the nonce can never wrap.
const maxSeals = 1 << 48

// AEAD wraps AES-GCM with deterministic nonce management. The 12-byte
// nonce is a 4-byte random prefix fixed at construction plus a 8-byte
// big-endian counter, so a sealer never reuses a nonce and two sealers
// for the same key (one per direction of a session) are separated by the
// caller-supplied direction byte mixed into the prefix.
//
// This is the "conventional CCA-secure scheme" the paper assumes for data
// communication (Section IV-A, citing GCM).
type AEAD struct {
	aead   cipher.AEAD
	prefix [4]byte
	ctr    atomic.Uint64
}

// NonceSize is the AES-GCM nonce size in bytes.
const NonceSize = 12

// Overhead is the ciphertext expansion of Seal: nonce plus GCM tag.
func (a *AEAD) Overhead() int { return NonceSize + a.aead.Overhead() }

// NewAEAD builds an AEAD from a 16- or 32-byte AES key. direction
// distinguishes the two sealers of a bidirectional session so their nonce
// spaces cannot collide even if the random prefixes did.
func NewAEAD(key []byte, direction byte) (*AEAD, error) {
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, fmt.Errorf("crypto: aead key: %w", err)
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		return nil, fmt.Errorf("crypto: aead: %w", err)
	}
	a := &AEAD{aead: aead}
	if _, err := io.ReadFull(rand.Reader, a.prefix[:]); err != nil {
		return nil, fmt.Errorf("crypto: aead nonce prefix: %w", err)
	}
	a.prefix[0] ^= direction
	return a, nil
}

// Seal encrypts and authenticates plaintext with the additional data aad,
// appending nonce||ciphertext||tag to dst. With Overhead()+len(plaintext)
// bytes of spare capacity in dst the call does not allocate: room is
// reserved once, and the nonce is written into dst and read from there,
// so nothing is staged in a buffer that would escape through the
// cipher.AEAD interface.
func (a *AEAD) Seal(dst, plaintext, aad []byte) ([]byte, error) {
	n := a.ctr.Add(1)
	if n >= maxSeals {
		return nil, ErrNonceExhausted
	}
	dst = slices.Grow(dst, a.Overhead()+len(plaintext))
	off := len(dst)
	dst = append(dst, a.prefix[:]...)
	dst = binary.BigEndian.AppendUint64(dst, n)
	return a.aead.Seal(dst, dst[off:off+NonceSize], plaintext, aad), nil
}

// Open authenticates and decrypts a message produced by Seal (any Seal
// with the same key, not necessarily this instance), appending the
// plaintext to dst.
func (a *AEAD) Open(dst, msg, aad []byte) ([]byte, error) {
	if len(msg) < NonceSize+a.aead.Overhead() {
		return nil, ErrDecrypt
	}
	out, err := a.aead.Open(dst, msg[:NonceSize], msg[NonceSize:], aad)
	if err != nil {
		return nil, ErrDecrypt
	}
	return out, nil
}
