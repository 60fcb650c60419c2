// Package rpki is the AS key infrastructure substrate. The paper assumes
// "participating parties can retrieve and verify the public keys of
// ASes. For example, a scheme such as RPKI can be used" (Section IV-A).
//
// This package provides that scheme: an offline root authority signs
// resource records binding an AID to the AS's two public keys (Ed25519
// for certificate signatures, X25519 for the host-bootstrap DH), and a
// TrustStore verifies and caches the records so any party can resolve an
// AID to authentic keys.
package rpki

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"apna/internal/crypto"
	"apna/internal/ephid"
)

const sigLabel = "apna/v1/rpki/record"

// Errors returned by the trust store.
var (
	ErrBadSig      = errors.New("rpki: record signature invalid")
	ErrUnknownAS   = errors.New("rpki: no record for AID")
	ErrRecordStale = errors.New("rpki: record expired")
)

// Record binds an AID to its AS's public keys, signed by the root
// authority.
type Record struct {
	AID ephid.AID
	// SigPub is the AS's Ed25519 key, verifying EphID certificates and
	// DNS records issued by the AS.
	SigPub [crypto.SigningPublicKeySize]byte
	// DHPub is the AS's X25519 key; hosts use it in the bootstrap DH
	// exchange of Figure 2.
	DHPub [crypto.X25519PublicKeySize]byte
	// NotAfter is the record's expiration in Unix seconds.
	NotAfter int64
	// Signature is the root authority's signature.
	Signature [crypto.SignatureSize]byte
}

func (r *Record) appendTBS(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(r.AID))
	dst = append(dst, r.SigPub[:]...)
	dst = append(dst, r.DHPub[:]...)
	dst = binary.BigEndian.AppendUint64(dst, uint64(r.NotAfter))
	return dst
}

// Authority is the offline root of trust (standing in for the RIR
// hierarchy of deployed RPKI).
type Authority struct {
	signer *crypto.Signer
}

// NewAuthority creates a root authority with a fresh key.
func NewAuthority() (*Authority, error) {
	s, err := crypto.GenerateSigner()
	if err != nil {
		return nil, fmt.Errorf("rpki: %w", err)
	}
	return &Authority{signer: s}, nil
}

// PublicKey returns the root verification key that trust stores pin.
func (a *Authority) PublicKey() []byte { return a.signer.PublicKey() }

// Certify issues a signed record for an AS.
func (a *Authority) Certify(aid ephid.AID, sigPub, dhPub []byte, notAfter int64) (*Record, error) {
	if len(sigPub) != crypto.SigningPublicKeySize || len(dhPub) != crypto.X25519PublicKeySize {
		return nil, fmt.Errorf("rpki: bad key sizes (%d, %d)", len(sigPub), len(dhPub))
	}
	r := &Record{AID: aid, NotAfter: notAfter}
	copy(r.SigPub[:], sigPub)
	copy(r.DHPub[:], dhPub)
	copy(r.Signature[:], a.signer.Sign(sigLabel, r.appendTBS(nil)))
	return r, nil
}

// TrustStore verifies and caches resource records against a pinned root
// key. It is safe for concurrent use: every entity in the simulation
// (hosts, border routers, accountability agents) shares one store.
type TrustStore struct {
	rootPub []byte

	mu      sync.RWMutex
	records map[ephid.AID]*Record
}

// NewTrustStore builds a store pinning the given root public key.
func NewTrustStore(rootPub []byte) *TrustStore {
	return &TrustStore{
		rootPub: append([]byte(nil), rootPub...),
		records: make(map[ephid.AID]*Record),
	}
}

// Add verifies a record against the root key and caches it. A record
// failing verification is rejected and not cached.
func (t *TrustStore) Add(r *Record) error {
	if !crypto.Verify(t.rootPub, sigLabel, r.appendTBS(nil), r.Signature[:]) {
		return ErrBadSig
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.records[r.AID] = r
	return nil
}

// Lookup resolves an AID to its verified record, checking freshness at
// nowUnix.
func (t *TrustStore) Lookup(aid ephid.AID, nowUnix int64) (*Record, error) {
	t.mu.RLock()
	r, ok := t.records[aid]
	t.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %v", ErrUnknownAS, aid)
	}
	if r.NotAfter < nowUnix {
		return nil, fmt.Errorf("%w: %v", ErrRecordStale, aid)
	}
	return r, nil
}

// SigKey resolves an AID to the AS's certificate-verification key.
func (t *TrustStore) SigKey(aid ephid.AID, nowUnix int64) ([]byte, error) {
	r, err := t.Lookup(aid, nowUnix)
	if err != nil {
		return nil, err
	}
	return r.SigPub[:], nil
}
