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
// exchange, HKDF and the two AES-GCM schedules — on another goroutine;
// the session's first Seal, AppendSeal or Open waits for it. A host's
// handshake calls Start once the peer's certificate has verified, so the
// key agreement overlaps the peer's verify and the handshake's flight
// instead of holding up the thread that runs the handshake. A fixed
// number of derivations, process-wide, run that way at once; beyond
// that, or at GOMAXPROCS 1, Start derives inline.
//
// The package also implements the receiver-side replay window for the
// per-packet nonce of Section VIII-D.
package session

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"apna/internal/crypto"
	"apna/internal/ephid"
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

// maxDeferred caps how many Start derivations run on other goroutines
// at once, process-wide. A burst of handshakes beyond it derives
// inline, so derivations cannot pile up behind a busy core and spill
// into whatever the process does next. 16 keeps a spare core fed
// through a burst of connections; 4 gave up part of the gain on
// bench's host_connect (DESIGN §8, "Key agreement off the critical
// path").
const maxDeferred = 16

// deferred holds one token per derivation running on another goroutine.
var deferred = make(chan struct{}, maxDeferred)

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
// the X25519 exchange, HKDF and AES-GCM schedules then run on another
// goroutine, and the session's first Seal, AppendSeal or Open waits for
// them. If that derivation fails, every Seal, AppendSeal and Open
// returns its error. With maxDeferred derivations already running, or
// no second core (GOMAXPROCS 1), Start derives inline, as New does.
//
// Call it only on a key the caller has authenticated: it spends a core
// on whatever key it is handed.
func Start(localPriv *crypto.KeyPair, peerDHPub []byte, local, peer ephid.EphID) (*Session, error) {
	if _, err := crypto.ParseX25519PeerKey(peerDHPub); err != nil {
		return nil, fmt.Errorf("session: %w", err)
	}
	if runtime.GOMAXPROCS(0) > 1 {
		select {
		case deferred <- struct{}{}:
			derivations.Add(1)
			s := &Session{replay: NewWindow(1024)}
			s.derived.Add(1)
			// The goroutine gets its own copy of the key it was handed:
			// the caller may reuse its bytes as soon as Start returns.
			go s.deriveDeferred(localPriv, [crypto.X25519PublicKeySize]byte(peerDHPub), local, peer)
			return s, nil
		default:
		}
	}
	return New(localPriv, peerDHPub, local, peer)
}

// deriveDeferred is Start's deferred half.
func (s *Session) deriveDeferred(localPriv *crypto.KeyPair, peerDHPub [crypto.X25519PublicKeySize]byte, local, peer ephid.EphID) {
	var err error
	if deferredHook != nil {
		err = deferredHook()
	}
	if err == nil {
		err = s.derive(localPriv, peerDHPub[:], local, peer)
	}
	s.err = err
	<-deferred
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
