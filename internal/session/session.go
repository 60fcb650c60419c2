// Package session implements APNA's end-to-end encrypted communication
// sessions (paper Section IV-D).
//
// Two hosts derive a shared symmetric key from the X25519 keys bound to
// their EphIDs (Section IV-D1) and encrypt every data packet with it
// (Section IV-D2). Perfect forward secrecy holds because the EphID keys
// are generated fresh per EphID and never derived from long-term
// material: compromising K-_AS or K-_H later reveals nothing about past
// session keys (Section VI-B).
//
// The package also implements the receiver-side replay window for the
// per-packet nonce of Section VIII-D.
package session

import (
	"errors"
	"fmt"

	"apna/internal/crypto"
	"apna/internal/ephid"
)

// Errors returned by session operations.
var (
	// ErrReplay means a packet's nonce was already accepted (or is too
	// old to track) — the replay defence of Section VIII-D.
	ErrReplay = errors.New("session: replayed or stale nonce")
	// ErrDecrypt re-exports the AEAD failure for convenience.
	ErrDecrypt = crypto.ErrDecrypt
)

// Session is one end of an established, encrypted communication session
// between two EphIDs. Both ends hold the same symmetric key but
// different sealing directions, so their nonce spaces are disjoint.
type Session struct {
	local, peer ephid.EphID
	seal        *crypto.AEAD
	open        *crypto.AEAD
	sendSeq     uint64
	replay      Window
}

// New derives the session key kE1E2 and returns the local end of the
// session. localPriv is the X25519 private key bound to the local EphID;
// peerDHPub is the peer's certified public key.
//
// Both ends compute the identical key: the HKDF salt is the
// lexicographically ordered concatenation of the two EphIDs, so the
// derivation is symmetric (Section IV-D1).
func New(localPriv *crypto.KeyPair, peerDHPub []byte, local, peer ephid.EphID) (*Session, error) {
	secret, err := localPriv.SharedSecret(peerDHPub)
	if err != nil {
		return nil, fmt.Errorf("session: %w", err)
	}
	salt := make([]byte, 0, 2*ephid.Size)
	dir := byte(0)
	if lexLess(local, peer) {
		salt = append(append(salt, local[:]...), peer[:]...)
	} else {
		salt = append(append(salt, peer[:]...), local[:]...)
		dir = 1
	}
	key := crypto.DeriveSessionKey(secret, salt)

	seal, err := crypto.NewAEAD(key, dir)
	if err != nil {
		return nil, fmt.Errorf("session: %w", err)
	}
	open, err := crypto.NewAEAD(key, 1-dir)
	if err != nil {
		return nil, fmt.Errorf("session: %w", err)
	}
	return &Session{local: local, peer: peer, seal: seal, open: open, replay: NewWindow(1024)}, nil
}

// Local returns the local EphID of the session.
func (s *Session) Local() ephid.EphID { return s.local }

// Peer returns the peer EphID of the session.
func (s *Session) Peer() ephid.EphID { return s.peer }

// NextSeq allocates the next send sequence number, carried in the APNA
// header's nonce field.
func (s *Session) NextSeq() uint64 {
	s.sendSeq++
	return s.sendSeq
}

// Overhead is how much longer a sealed message is than its plaintext.
func (s *Session) Overhead() int { return s.seal.Overhead() }

// AppendSeal encrypts plaintext for the peer, binding aad (typically the
// immutable parts of the packet header), and appends the sealed message
// to dst. With Overhead()+len(plaintext) bytes of spare capacity in dst
// it does not allocate, which is how a host seals straight into the
// frame it sends.
func (s *Session) AppendSeal(dst, plaintext, aad []byte) ([]byte, error) {
	return s.seal.Seal(dst, plaintext, aad)
}

// Seal is AppendSeal into a fresh buffer.
func (s *Session) Seal(plaintext, aad []byte) ([]byte, error) {
	return s.AppendSeal(nil, plaintext, aad)
}

// Open decrypts a message from the peer.
func (s *Session) Open(msg, aad []byte) ([]byte, error) {
	return s.open.Open(nil, msg, aad)
}

// AcceptSeq runs the anti-replay check for a received packet nonce. It
// must be called only after the packet authenticated successfully
// (otherwise an attacker could poison the window with forged nonces).
func (s *Session) AcceptSeq(seq uint64) error {
	if !s.replay.Accept(seq) {
		return ErrReplay
	}
	return nil
}

func lexLess(a, b ephid.EphID) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}
