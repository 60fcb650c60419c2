package crypto

import (
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"fmt"
	"io"
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
	labelInfra     = "apna/v1/infra"     // kA used amongst AS infrastructure
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

// InfraKey derives the symmetric key shared among the AS's
// infrastructure entities (border routers, RS, MS, AA) — kA in Table I.
func (s *ASSecret) InfraKey() []byte {
	return DeriveKey(s.master[:], labelInfra, SymKeySize)
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
// keys are DeriveKey's under the two labels; both derivations share one
// extract and one PRK-keyed HMAC, since they differ only in info.
func DeriveHostASKeys(dhSecret []byte) HostASKeys {
	var k HostASKeys
	mac := hmac.New(sha256.New, HKDFExtract(nil, dhSecret))
	expand(mac, k.Enc[:], []byte(labelHostEnc))
	expand(mac, k.MAC[:], []byte(labelHostMAC))
	return k
}

// DeriveSessionKey derives the symmetric session key kE1E2 for a pair of
// EphIDs from their X25519 shared secret. salt must be identical on both
// sides; callers pass the lexicographically ordered concatenation of the
// two EphIDs so that both endpoints derive the same key (Section IV-D1).
func DeriveSessionKey(dhSecret, salt []byte) []byte {
	return HKDF(dhSecret, salt, []byte(labelSessionV1), SessionKeySize)
}
