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
// big-endian counter, so a sealer never reuses a nonce. Two sealers for
// the same key (one per direction of a session) are separated by the
// direction bit, which is bit 0 of the prefix's first byte: their nonce
// spaces are disjoint whatever the other 31 random prefix bits are.
//
// A counter nonce suits a long-lived sealer only. A key that seals one
// message per sealer — the MS request and reply under a host's kHA key —
// would restart the counter at 1 every time and leave just the prefix's
// random bits between two nonces; such messages go through SealOnce. So
// does every message under an AEADCache's AEAD, which may be rebuilt
// whenever the cache evicts it.
//
// This is the "conventional CCA-secure scheme" the paper assumes for data
// communication (Section IV-A, citing GCM).
type AEAD struct {
	aead   cipher.AEAD
	prefix [4]byte
	ctr    atomic.Uint64
}

// NonceSize is the AES-GCM nonce size in bytes, and TagSize its
// authentication tag's.
const (
	NonceSize = 12
	TagSize   = 16
)

// Overhead is the ciphertext expansion of Seal: nonce plus GCM tag.
func (a *AEAD) Overhead() int { return NonceSize + TagSize }

// NewAEAD builds an AEAD from a 16- or 32-byte AES key. direction (0 or
// 1) distinguishes the two sealers of a bidirectional session: it is
// written into bit 0 of every nonce this AEAD seals, so the two nonce
// spaces cannot collide. (Mixing it in by XOR would not do: two random
// prefixes that differ only in that bit would then coincide.)
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
	a.prefix[0] = a.prefix[0]&^1 | direction&1
	return a, nil
}

// SealOnce is Seal with a fresh random nonce instead of the counter: 95
// random bits plus the direction bit. It is for keys that seal a handful
// of messages per AEAD over a long life, where the counter would restart
// at 1 with every new AEAD; 95 random bits put a collision among 2³²
// messages under one key at about 2⁻³².
//
// The plaintext may already sit in dst's spare capacity, NonceSize bytes
// past its end; it is then sealed in place, and with room for the tag
// the call allocates nothing.
func (a *AEAD) SealOnce(dst, plaintext, aad []byte) ([]byte, error) {
	dst = slices.Grow(dst, a.Overhead()+len(plaintext))
	off := len(dst)
	dst = dst[:off+NonceSize]
	nonce := dst[off:]
	if _, err := io.ReadFull(rand.Reader, nonce); err != nil {
		return nil, fmt.Errorf("crypto: aead nonce: %w", err)
	}
	nonce[0] = nonce[0]&^1 | a.prefix[0]&1
	return a.aead.Seal(dst, nonce, plaintext, aad), nil
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

// OpenInPlace is Open writing the plaintext over the ciphertext, from
// msg[NonceSize:]: it allocates nothing, and msg no longer holds the
// message afterwards, whether or not it authenticates.
func (a *AEAD) OpenInPlace(msg, aad []byte) ([]byte, error) {
	if len(msg) < NonceSize+TagSize {
		return nil, ErrDecrypt
	}
	return a.Open(msg[NonceSize:NonceSize], msg, aad)
}
