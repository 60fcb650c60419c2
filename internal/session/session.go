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
// The derivation is the same routine whichever way it runs. New runs it
// on the caller's core. Start checks the peer's key on the caller's core,
// returning every error New would, and runs the rest — the X25519
// exchange, HKDF and the two AES-GCM schedules — on a spare core
// (internal/spare); the session's first Seal, AppendSeal or Open waits
// for it. A host's handshake calls Start once the peer's certificate has
// verified, so the key agreement overlaps the peer's verify and the
// handshake's flight instead of holding up the thread that runs the
// handshake. When the spare-core budget refuses it, Start derives inline.
//
// The package also implements the receiver-side replay window for the
// per-packet nonce of Section VIII-D.
package session

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"apna/internal/crypto"
	"apna/internal/ephid"
	"apna/internal/spare"
)

// Errors returned by session operations.
var (
	// ErrReplay means a packet's nonce was already accepted (or is too
	// old to track) — the replay defence of Section VIII-D.
	ErrReplay = errors.New("session: replayed or stale nonce")
)

// Session is one end of an established, encrypted communication session
// between two EphIDs. Both ends hold the same symmetric key but
// different sealing directions, so their nonce spaces are disjoint.
type Session struct {
	// derived is held while Start's deferred half runs; seal, open and
	// err are written before it is released and read only after it.
	derived sync.WaitGroup
	err     error
	seal    *crypto.AEAD
	open    *crypto.AEAD
	replay  Window
}

// deferredHook, when set by a test, runs first in every deferred
// derivation; an error it returns fails the session.
var deferredHook func() error

// derivations counts the derivations New and Start have begun.
var derivations atomic.Uint64

// Derivations reports how many session-key derivations New and Start
// have begun in this process, inline or deferred.
//
//apna:testonly internal/host's handshake tests check through it that a refused certificate or key starts no derivation
func Derivations() uint64 { return derivations.Load() }

// New derives the session key kE1E2 and returns the local end of the
// session. localPriv is the X25519 private key bound to the local EphID;
// peerDHPub is the peer's certified public key.
//
// Both ends compute the identical key: the HKDF salt is the
// lexicographically ordered concatenation of the two EphIDs, so the
// derivation is symmetric (Section IV-D1).
func New(localPriv *crypto.KeyPair, peerDHPub []byte, local, peer ephid.EphID) (*Session, error) {
	derivations.Add(1)
	s := &Session{replay: NewWindow(1024)}
	if err := s.derive(localPriv, peerDHPub, local, peer); err != nil {
		return nil, err
	}
	return s, nil
}

// Start is New with the key agreement moved off the caller's core. It
// checks the peer key and returns every error New would for it at once;
// the X25519 exchange, HKDF and AES-GCM schedules then run on a spare
// core, and the session's first Seal, AppendSeal or Open waits for
// them. If that derivation fails, every Seal, AppendSeal and Open
// returns its error. When spare.Go refuses the derivation, Start
// derives inline, as New does.
//
// Call it only on a key the caller has authenticated: it spends a core
// on whatever key it is handed.
func Start(localPriv *crypto.KeyPair, peerDHPub []byte, local, peer ephid.EphID) (*Session, error) {
	if _, err := crypto.ParseX25519PeerKey(peerDHPub); err != nil {
		return nil, fmt.Errorf("session: %w", err)
	}
	derivations.Add(1)
	s := &Session{replay: NewWindow(1024)}
	s.derived.Add(1)
	// The deferred half copies the key: the caller may reuse its bytes.
	key := [crypto.X25519PublicKeySize]byte(peerDHPub)
	if spare.Go(func() { s.deriveDeferred(localPriv, key, local, peer) }) {
		return s, nil
	}
	s.derived.Done()
	if err := s.derive(localPriv, peerDHPub, local, peer); err != nil {
		return nil, err
	}
	return s, nil
}

// deriveDeferred is Start's deferred half.
func (s *Session) deriveDeferred(localPriv *crypto.KeyPair, peerDHPub [crypto.X25519PublicKeySize]byte, local, peer ephid.EphID) {
	if deferredHook != nil {
		s.err = deferredHook()
	}
	if s.err == nil {
		s.err = s.derive(localPriv, peerDHPub[:], local, peer)
	}
	s.derived.Done()
}

// derive is the one key derivation New and Start run: X25519 with the
// peer's key, HKDF over the ordered EphIDs, and one AES-GCM schedule per
// direction.
func (s *Session) derive(localPriv *crypto.KeyPair, peerDHPub []byte, local, peer ephid.EphID) error {
	secret, err := localPriv.SharedSecret(peerDHPub)
	if err != nil {
		return fmt.Errorf("session: %w", err)
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
		return fmt.Errorf("session: %w", err)
	}
	open, err := crypto.NewAEAD(key, 1-dir)
	if err != nil {
		return fmt.Errorf("session: %w", err)
	}
	s.seal, s.open = seal, open
	return nil
}

// ready waits for Start's deferred half and returns its error.
func (s *Session) ready() error {
	s.derived.Wait()
	return s.err
}

// Overhead is how much longer a sealed message is than its plaintext. It
// does not wait for the session's keys.
func (s *Session) Overhead() int { return crypto.NonceSize + crypto.TagSize }

// AppendSeal encrypts plaintext for the peer, binding aad (typically the
// immutable parts of the packet header), and appends the sealed message
// to dst. With Overhead()+len(plaintext) bytes of spare capacity in dst
// it does not allocate, which is how a host seals straight into the
// frame it sends.
func (s *Session) AppendSeal(dst, plaintext, aad []byte) ([]byte, error) {
	if err := s.ready(); err != nil {
		return nil, err
	}
	return s.seal.Seal(dst, plaintext, aad)
}

// Seal is AppendSeal into a fresh buffer.
func (s *Session) Seal(plaintext, aad []byte) ([]byte, error) {
	return s.AppendSeal(nil, plaintext, aad)
}

// Open decrypts a message from the peer.
func (s *Session) Open(msg, aad []byte) ([]byte, error) {
	if err := s.ready(); err != nil {
		return nil, err
	}
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
