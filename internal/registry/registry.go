// Package registry implements the Registry Service (RS) — the AS entity
// that authenticates hosts and bootstraps them into the network (paper
// Section IV-B, Figure 2).
//
// During bootstrap the RS (1) authenticates the subscriber, (2) derives
// the host<->AS key pair kHA from an X25519 exchange between the host's
// key and the AS's key, (3) assigns the host a unique HID, (4) issues
// the host's control EphID, (5) publishes the host's record to the AS
// infrastructure (the shared host_info database), and (6) hands the host
// the signed bootstrap information plus the certificates of the AS's
// internal services (MS, DNS).
//
// The RS is also where the paper's identity-minting defence lives
// (Section VI-A): HIDs are only assigned to authenticated subscribers,
// one live HID per subscriber; requesting a new HID revokes the previous
// one and all its EphIDs.
package registry

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"apna/internal/cert"
	"apna/internal/crypto"
	"apna/internal/ephid"
	"apna/internal/hostdb"
	"apna/internal/spare"
)

// Errors returned by the registry.
var (
	ErrAuthFailed = errors.New("registry: authentication failed")
	ErrBadHostKey = errors.New("registry: malformed host public key")
	ErrExhausted  = errors.New("registry: HID space exhausted")
	ErrBadIDInfo  = errors.New("registry: id_info verification failed")
	ErrNoService  = errors.New("registry: service certificates not installed")
)

// Authenticator abstracts the AS's subscriber authentication — the
// paper leaves the mechanism open ("well-established authentication
// protocols exist", citing Diameter and RADIUS). Authenticate returns a
// stable subscriber identity for a credential.
type Authenticator interface {
	Authenticate(credential []byte) (subscriber string, err error)
}

// CredentialTable is a static credential->subscriber table, the
// simulation's stand-in for a RADIUS backend.
type CredentialTable map[string]string

// Authenticate implements Authenticator.
func (t CredentialTable) Authenticate(credential []byte) (string, error) {
	sub, ok := t[string(credential)]
	if !ok {
		return "", ErrAuthFailed
	}
	return sub, nil
}

// IDInfo is the signed bootstrap blob id_info = {EphID_ctrl, ExpTime}
// signed with K-_AS (Figure 2). The host verifies it against the AS key
// from the trust store before using the control EphID.
type IDInfo struct {
	ControlEphID ephid.EphID
	ExpTime      uint32
	Signature    [crypto.SignatureSize]byte
}

const idInfoLabel = "apna/v1/idinfo"

func (i *IDInfo) appendTBS(dst []byte) []byte {
	dst = append(dst, i.ControlEphID[:]...)
	return binary.BigEndian.AppendUint32(dst, i.ExpTime)
}

// Verify checks the AS signature over the IDInfo.
func (i *IDInfo) Verify(asSigPub []byte) error {
	if !crypto.Verify(asSigPub, idInfoLabel, i.appendTBS(nil), i.Signature[:]) {
		return ErrBadIDInfo
	}
	return nil
}

// BootstrapResult is m2 of Figure 2: everything the host needs to start
// using the network.
type BootstrapResult struct {
	// HID is the host's assigned identifier. (In the paper the host
	// need not learn it explicitly; it is its IPv4 address in the
	// deployment story of Section VII-D.)
	HID ephid.HID
	// IDInfo is the signed control-EphID binding.
	IDInfo IDInfo
	// MSCert and DNSCert let the host reach the AS's services.
	MSCert, DNSCert cert.Cert
	// ASDHPub is the AS public key the host combines with its own
	// private key to derive kHA.
	ASDHPub [crypto.X25519PublicKeySize]byte
}

// controlEphIDLifetime is the control EphID validity in seconds ("e.g.,
// DHCP lease time", Section IV-B).
const controlEphIDLifetime = 24 * 3600

// Service is the Registry Service of one AS.
type Service struct {
	aid    ephid.AID
	auth   Authenticator
	sealer *ephid.Sealer
	signer *crypto.Signer
	dh     *crypto.KeyPair
	db     *hostdb.DB
	now    func() int64

	mu      sync.Mutex
	nextHID uint32
	bySub   map[string]ephid.HID
	msCert  *cert.Cert
	dnsCert *cert.Cert
}

// New creates the registry service of AS aid. now supplies Unix seconds
// (the simulation's virtual clock).
func New(aid ephid.AID, auth Authenticator, sealer *ephid.Sealer, signer *crypto.Signer,
	dh *crypto.KeyPair, db *hostdb.DB, now func() int64) *Service {
	return &Service{
		aid: aid, auth: auth, sealer: sealer, signer: signer, dh: dh, db: db,
		now: now, bySub: make(map[string]ephid.HID),
	}
}

// InstallServiceCerts provides the MS and DNS certificates handed to
// hosts at bootstrap.
func (s *Service) InstallServiceCerts(ms, dns *cert.Cert) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.msCert, s.dnsCert = ms, dns
}

// allocHIDs assigns the next n free HIDs, first to first+n-1, or none
// when fewer than n are left. The caller holds s.mu.
func (s *Service) allocHIDs(n int) (first ephid.HID, err error) {
	if uint64(n) > uint64(^uint32(0)-s.nextHID) {
		return 0, ErrExhausted
	}
	first = ephid.HID(s.nextHID + 1)
	s.nextHID += uint32(n)
	return first, nil
}

// AllocServiceIdentity registers an AS-internal service (MS, DNS, AA,
// border router) as a pseudo-host: it gets a HID, host<->AS keys
// derived from the service's own DH key, a long-lived control EphID and
// a certificate. aaEphID is embedded in the certificate; pass the zero
// EphID for the accountability agent itself (self-reference).
func (s *Service) AllocServiceIdentity(kind ephid.Kind, lifetime uint32, aaEphID ephid.EphID) (*ServiceIdentity, error) {
	dh, err := crypto.GenerateKeyPair()
	if err != nil {
		return nil, fmt.Errorf("registry: %w", err)
	}
	sig, err := crypto.GenerateSigner()
	if err != nil {
		return nil, fmt.Errorf("registry: %w", err)
	}

	s.mu.Lock()
	hid, err := s.allocHIDs(1)
	s.mu.Unlock()
	if err != nil {
		return nil, err
	}

	secret, err := s.dh.SharedSecret(dh.PublicKey())
	if err != nil {
		return nil, fmt.Errorf("registry: %w", err)
	}
	keys := crypto.DeriveHostASKeys(secret)
	s.db.Put(hostdb.Entry{HID: hid, Keys: keys, RegisteredAt: s.now()})

	exp := uint32(s.now()) + lifetime
	id := s.sealer.Mint(ephid.Payload{HID: hid, ExpTime: exp})
	if aaEphID.IsZero() {
		aaEphID = id
	}
	c := cert.Cert{Kind: kind, EphID: id, ExpTime: exp, AID: s.aid, AAEphID: aaEphID}
	copy(c.DHPub[:], dh.PublicKey())
	copy(c.SigPub[:], sig.PublicKey())
	c.Sign(s.signer)

	return &ServiceIdentity{
		HID: hid, EphID: id, Keys: keys, DH: dh, Sig: sig, Cert: c,
	}, nil
}

// ServiceIdentity is the full identity of an AS-internal service.
type ServiceIdentity struct {
	HID   ephid.HID
	EphID ephid.EphID
	Keys  crypto.HostASKeys
	DH    *crypto.KeyPair
	Sig   *crypto.Signer
	Cert  cert.Cert
}

// Enrollment is one host's entry in a bootstrap batch: the credential
// it authenticates with and its X25519 public key (K+H), learned during
// authentication.
type Enrollment struct {
	Credential, HostPub []byte
}

// Bootstrap runs the AS side of Figure 2 for a batch of hosts and
// returns one result per entry, in order; a lone host is a batch of
// one. Every entry is authenticated and its kHA derived before any
// state changes, so a batch registers whole or not at all, and the
// error returned is the lowest failing entry's. The X25519 agreements
// and the id_info signatures run on the caller and on the spare cores
// internal/spare lends (spare.Each); HIDs, hostdb records and control
// EphIDs are assigned under the mutex in argument order, exactly as one
// call per entry would assign them.
//
// A subscriber bootstrapping again — in a later batch or later in the
// same one — gets a fresh HID and the old HID is revoked with all its
// EphIDs: the identity-minting defence.
func (s *Service) Bootstrap(batch []Enrollment) ([]BootstrapResult, error) {
	subs := make([]string, len(batch))
	for i, e := range batch {
		sub, err := s.auth.Authenticate(e.Credential)
		if err != nil {
			return nil, err
		}
		if len(e.HostPub) != crypto.X25519PublicKeySize {
			return nil, fmt.Errorf("%w: %d bytes", ErrBadHostKey, len(e.HostPub))
		}
		subs[i] = sub
	}
	keys := make([]crypto.HostASKeys, len(batch))
	err := spare.Each(len(batch), func(i int) error {
		secret, err := s.dh.SharedSecret(batch[i].HostPub)
		if err != nil {
			return fmt.Errorf("%w: %w", ErrBadHostKey, err)
		}
		keys[i] = crypto.DeriveHostASKeys(secret)
		return nil
	})
	if err != nil {
		return nil, err
	}

	asPub := s.dh.PublicKey()
	s.mu.Lock()
	if s.msCert == nil || s.dnsCert == nil {
		s.mu.Unlock()
		return nil, ErrNoService
	}
	first, err := s.allocHIDs(len(batch))
	if err != nil {
		s.mu.Unlock()
		return nil, err
	}
	now := s.now()
	exp := uint32(now) + controlEphIDLifetime
	res := make([]BootstrapResult, len(batch))
	for i, sub := range subs {
		hid := first + ephid.HID(i)
		if old, ok := s.bySub[sub]; ok {
			s.db.Revoke(old)
		}
		s.bySub[sub] = hid
		s.db.Put(hostdb.Entry{HID: hid, Keys: keys[i], RegisteredAt: now})
		res[i] = BootstrapResult{
			HID: hid,
			IDInfo: IDInfo{
				ControlEphID: s.sealer.Mint(ephid.Payload{HID: hid, ExpTime: exp}),
				ExpTime:      exp,
			},
			MSCert: *s.msCert, DNSCert: *s.dnsCert,
		}
		copy(res[i].ASDHPub[:], asPub)
	}
	s.mu.Unlock()

	_ = spare.Each(len(res), func(i int) error { // signing cannot fail
		info := &res[i].IDInfo
		copy(info.Signature[:], s.signer.Sign(idInfoLabel, info.appendTBS(nil)))
		return nil
	})
	return res, nil
}
