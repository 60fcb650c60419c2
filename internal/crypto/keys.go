package crypto

import (
	"crypto/rand"
	"crypto/sha256"
	"encoding"
	"fmt"
	"hash"
	"io"
	"sync"
)

// Key sizes used throughout the architecture.
const (
	// SymKeySize is the size of symmetric AES-128 keys used for EphID
	// encryption/authentication and per-packet MACs, matching the
	// paper's AES-NI based prototype.
	SymKeySize = 16
	// SessionKeySize is the size of AES-256-GCM session keys used for
	// end-to-end data encryption.
	SessionKeySize = 32
)

// Key derivation labels. Distinct labels guarantee that keys derived for
// different purposes from the same secret are cryptographically
// independent (HKDF domain separation).
const (
	labelEphIDEnc  = "apna/v1/ephid/enc" // kA'  in the paper
	labelEphIDMAC  = "apna/v1/ephid/mac" // kA'' in the paper
	labelHostEnc   = "apna/v1/host/enc"  // kHA for control-message encryption
	labelHostMAC   = "apna/v1/host/mac"  // kHA for per-packet MACs
	labelSessionV1 = "apna/v1/session"   // kE1E2 session keys
	labelInfraCtl  = "apna/v1/infra/ctl" // AA -> BR revocation orders
)

// ASSecret is the long-term symmetric master secret of an AS (kA in the
// paper). Every symmetric key the AS infrastructure uses is derived from
// it, so border routers, the MS and the AA never need a key distribution
// protocol beyond sharing this secret.
type ASSecret struct {
	master [SymKeySize]byte
}

// NewASSecret draws a fresh AS master secret from crypto/rand.
func NewASSecret() (*ASSecret, error) {
	var s ASSecret
	if _, err := io.ReadFull(rand.Reader, s.master[:]); err != nil {
		return nil, fmt.Errorf("crypto: generating AS secret: %w", err)
	}
	return &s, nil
}

// ASSecretFromBytes builds an AS secret from exactly SymKeySize bytes.
// It is intended for tests and deterministic simulations.
func ASSecretFromBytes(b []byte) (*ASSecret, error) {
	if len(b) != SymKeySize {
		return nil, fmt.Errorf("crypto: AS secret must be %d bytes, got %d", SymKeySize, len(b))
	}
	var s ASSecret
	copy(s.master[:], b)
	return &s, nil
}

// EphIDEncKey derives kA', the AES key encrypting EphID contents.
func (s *ASSecret) EphIDEncKey() []byte {
	return DeriveKey(s.master[:], labelEphIDEnc, SymKeySize)
}

// EphIDMACKey derives kA”, the AES key authenticating EphIDs.
func (s *ASSecret) EphIDMACKey() []byte {
	return DeriveKey(s.master[:], labelEphIDMAC, SymKeySize)
}

// InfraControlKey derives the key authenticating control orders between
// the accountability agent and border routers (the MAC_kAS(revoke ...)
// message in Figure 5).
func (s *ASSecret) InfraControlKey() []byte {
	return DeriveKey(s.master[:], labelInfraCtl, SymKeySize)
}

// HostASKeys is the pair of symmetric keys a host shares with its AS,
// denoted kHA in the paper. The paper establishes two keys and then
// "for simplicity" writes both as kHA (Section IV-B); we keep them
// distinct: Enc encrypts EphID request/reply control messages and MAC
// authenticates every data packet the host sends.
type HostASKeys struct {
	Enc [SymKeySize]byte
	MAC [SymKeySize]byte
}

// DeriveHostASKeys derives the host<->AS key pair from a Diffie-Hellman
// shared secret (the result of the bootstrap exchange in Figure 2). The
// keys are DeriveKey's under the two labels: one extract under the zero
// salt, then the first expand block per label. Each HMAC resumes from
// its key's pad states, hashed once per process for the zero salt and
// once per call for the PRK: 8 SHA-256 blocks, not 12, for a secret of
// up to 55 bytes. The secret is copied into pooled scratch a block at a
// time, so every length takes this one path and none allocates.
func DeriveHostASKeys(dhSecret []byte) HostASKeys {
	s := hostKeyScratches.Get().(*hostKeyScratch)
	s.d.UnmarshalBinary(zeroSaltPads[0])
	for len(dhSecret) > 0 {
		n := copy(s.block[:], dhSecret)
		s.d.Write(s.block[:n])
		dhSecret = dhSecret[n:]
	}
	s.finish(zeroSaltPads[1])
	s.prk = s.pads(s.prk, s.sum[:])
	k := HostASKeys{Enc: s.expand(labelHostEnc), MAC: s.expand(labelHostMAC)}
	hostKeyScratches.Put(s)
	return k
}

// stateDigest is a SHA-256 digest whose state can be saved and resumed.
// It only resumes states it saved itself, which cannot fail to decode,
// so their errors are dropped.
type stateDigest interface {
	hash.Hash
	encoding.BinaryAppender
	encoding.BinaryUnmarshaler
}

// hostKeyScratch is what DeriveHostASKeys hashes in, pooled because
// the arguments of the digest's methods escape. prk holds the PRK's
// inner and outer pad states.
type hostKeyScratch struct {
	d     stateDigest
	prk   [2][]byte
	block [sha256.BlockSize]byte
	sum   [hashLen]byte
}

var hostKeyScratches = sync.Pool{New: func() any {
	return &hostKeyScratch{d: sha256.New().(stateDigest)}
}}

// zeroSaltPads are the extract's pad states.
var zeroSaltPads = hostKeyScratches.Get().(*hostKeyScratch).pads([2][]byte{}, zeroSalt[:])

// pads hashes the inner and outer pad blocks of key (at most a block)
// and saves each state, as AppendBinary writes it, in p's buffers.
func (s *hostKeyScratch) pads(p [2][]byte, key []byte) [2][]byte {
	clear(s.block[:])
	copy(s.block[:], key)
	for i, pad := range [2]byte{0x36, 0x36 ^ 0x5c} { // ipad, then ipad to opad
		for j := range s.block {
			s.block[j] ^= pad
		}
		s.d.Reset()
		s.d.Write(s.block[:])
		p[i], _ = s.d.AppendBinary(p[i][:0])
	}
	return p
}

// finish ends an HMAC whose message s.d has absorbed: the inner hash is
// hashed on from the outer pad state, and the MAC lands in s.sum.
func (s *hostKeyScratch) finish(outer []byte) {
	s.d.Sum(s.sum[:0])
	s.d.UnmarshalBinary(outer)
	s.d.Write(s.sum[:])
	s.d.Sum(s.sum[:0])
}

// expand is HKDF-Expand's first block for info label under the PRK,
// truncated to a key: HMAC(prk, label ‖ 0x01).
func (s *hostKeyScratch) expand(label string) [SymKeySize]byte {
	s.d.UnmarshalBinary(s.prk[0])
	n := copy(s.block[:], label)
	s.block[n] = 1
	s.d.Write(s.block[:n+1])
	s.finish(s.prk[1])
	return [SymKeySize]byte(s.sum[:])
}

// DeriveSessionKey derives the symmetric session key kE1E2 for a pair of
// EphIDs from their X25519 shared secret. salt must be identical on both
// sides; callers pass the lexicographically ordered concatenation of the
// two EphIDs so that both endpoints derive the same key (Section IV-D1).
func DeriveSessionKey(dhSecret, salt []byte) []byte {
	return HKDF(dhSecret, salt, []byte(labelSessionV1), SessionKeySize)
}
