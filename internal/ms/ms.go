// Package ms implements the EphID Management Service — the AS entity
// that issues ephemeral identifiers to hosts (paper Sections IV-C and
// V-A, Figures 3 and 6).
//
// The issuance protocol: the host sends an encrypted request (under the
// kHA key it shares with the AS) carrying a freshly generated ephemeral
// public key; the MS validates the host's control EphID, mints a new
// EphID, certifies the binding between the EphID and the host's key
// with a short-lived certificate, and returns the certificate encrypted.
// Both directions are encrypted so an observer inside the AS cannot
// link the issued EphIDs to the requesting control EphID
// (sender-flow unlinkability, Section IV-C).
//
// The service side is three steps: AdmitInPlace decides everything
// (authentication, renewal budget, the minted EphID), Sign certifies a
// batch of admitted requests under one signature (cert.SignBatch), and
// Admitted.Seal encrypts one reply under the AEAD AdmitInPlace opened
// the request with. That AEAD comes from the service's schedule cache
// (crypto.AEADCache), so the MS builds an AES-GCM key schedule per
// host, not per request. Every production issuance takes these steps
// over a batch: the simulated AS's MS signs the requests that reach it
// at one virtual instant together, and the population engine signs up
// to cert.MaxBatch at a time, handing a whole batch, signature and
// seals, to a spare core when it has one. HandleRequest and Issue sign
// one certificate alone; they are left to the MS benchmarks and E1.
//
// The host side holds its kHA AEAD too: AppendRequest seals a request
// into the caller's buffer and OpenReply decrypts a reply in place into
// the caller's certificate. EncodeRequest and DecodeReply are the
// key-taking forms that build an AEAD per call.
package ms

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"apna/internal/cert"
	"apna/internal/crypto"
	"apna/internal/ephid"
	"apna/internal/hostdb"
)

// Errors returned by the service.
var (
	ErrBadEphID      = errors.New("ms: invalid source EphID")
	ErrExpiredEphID  = errors.New("ms: control EphID expired")
	ErrUnknownHost   = errors.New("ms: unknown or revoked HID")
	ErrBadRequest    = errors.New("ms: malformed request")
	ErrDecryptFailed = errors.New("ms: request decryption failed")
	// ErrForeignPrev means a renewal named a predecessor EphID that does
	// not belong to the requesting host — either a forgery or an attempt
	// to launder another host's identifier history.
	ErrForeignPrev = errors.New("ms: renewal predecessor belongs to another host")
	// ErrRenewRateLimited means the host exhausted its renewal budget
	// for the current window. A compromised host churning identifiers to
	// dodge shutoff strikes hits this wall (Section VIII-G2).
	ErrRenewRateLimited = errors.New("ms: renewal rate limit exceeded")
	// ErrUnsigned means Seal was called on an admitted request whose
	// certificate no Sign call has signed.
	ErrUnsigned = errors.New("ms: certificate not signed")
)

// Request flag bits.
const (
	// ReqFlagRenew marks a renewal: the request names a predecessor
	// EphID in Prev, the MS validates it belongs to the same host and
	// charges the issuance against the host's renewal budget.
	ReqFlagRenew = 1 << 0
)

// Request is the plaintext interior of an EphID request message. The
// host generates the key pair for the EphID itself, because the keys
// will protect data the AS must not read (Section IV-C).
type Request struct {
	// Kind of EphID requested: data or receive-only (Issuable).
	// Control EphIDs come from the RS at bootstrap.
	Kind ephid.Kind
	// Flags carries the request flag bits (ReqFlagRenew).
	Flags byte
	// Lifetime is the requested validity in seconds; the MS clamps it
	// to its policy (Section VIII-G1 discusses letting hosts express
	// expiration-time choices).
	Lifetime uint32
	// Prev is the predecessor EphID a renewal succeeds; zero (and
	// ignored) for plain issuance.
	Prev ephid.EphID
	// DHPub is the X25519 public key to bind to the EphID.
	DHPub [crypto.X25519PublicKeySize]byte
	// SigPub is the Ed25519 public key to bind to the EphID.
	SigPub [crypto.SigningPublicKeySize]byte
}

// RequestSize is the encoded request size, and SealedRequestSize the
// size of the message that carries it: nonce, request, GCM tag.
const (
	RequestSize       = 1 + 1 + 4 + ephid.Size + crypto.X25519PublicKeySize + crypto.SigningPublicKeySize
	SealedRequestSize = crypto.NonceSize + RequestSize + crypto.TagSize
)

// Issuable reports whether the MS issues EphIDs of kind: data and
// receive-only identifiers. Control EphIDs are the RS's to issue at
// bootstrap, and no other kind is defined.
func Issuable(kind ephid.Kind) bool {
	return kind == ephid.KindData || kind == ephid.KindReceiveOnly
}

// Renewing reports whether the request is a renewal.
func (r *Request) Renewing() bool { return r.Flags&ReqFlagRenew != 0 }

// Append appends the request's encoding to dst.
func (r *Request) Append(dst []byte) []byte {
	dst = append(dst, byte(r.Kind), r.Flags)
	dst = binary.BigEndian.AppendUint32(dst, r.Lifetime)
	dst = append(dst, r.Prev[:]...)
	dst = append(dst, r.DHPub[:]...)
	return append(dst, r.SigPub[:]...)
}

// UnmarshalBinary parses data as exactly one request for a kind the MS
// issues; anything else is ErrBadRequest.
func (r *Request) UnmarshalBinary(data []byte) error {
	if len(data) != RequestSize {
		return fmt.Errorf("%w: %d bytes", ErrBadRequest, len(data))
	}
	if kind := ephid.Kind(data[0]); !Issuable(kind) {
		return fmt.Errorf("%w: kind %d", ErrBadRequest, kind)
	}
	r.Kind = ephid.Kind(data[0])
	r.Flags = data[1]
	r.Lifetime = binary.BigEndian.Uint32(data[2:])
	off := 6
	copy(r.Prev[:], data[off:])
	off += ephid.Size
	copy(r.DHPub[:], data[off:])
	off += crypto.X25519PublicKeySize
	copy(r.SigPub[:], data[off:])
	return nil
}

// Policy bounds issued EphID lifetimes. The paper suggests 15 minutes
// for per-flow EphIDs, since 98% of Internet flows last less than that
// (Section VIII-G1).
type Policy struct {
	// DefaultLifetime is used when the host requests 0.
	DefaultLifetime uint32
	// MaxLifetime caps requests.
	MaxLifetime uint32
	// RenewBurst is how many renewals one host may perform per
	// RenewWindow seconds. Zero disables the limit. Rate-limiting
	// renewals (but not plain issuance, which is bounded by pool policy)
	// keeps a compromised host from churning identifiers faster than
	// shutoff strikes can accumulate against them (Section VIII-G2).
	RenewBurst int
	// RenewWindow is the renewal rate-limit window in seconds; 0 falls
	// back to DefaultRenewWindow when RenewBurst is set.
	RenewWindow uint32
}

// DefaultRenewWindow is the renewal rate-limit window when a policy
// sets RenewBurst but no window.
const DefaultRenewWindow uint32 = 60

// DefaultPolicy matches the paper's 15-minute per-flow guidance with a
// 24-hour ceiling for receive-only (DNS-published) identifiers, and a
// renewal budget generous enough for every live flow of a busy host to
// roll over each minute without ever unthrottling identifier churn.
func DefaultPolicy() Policy {
	return Policy{
		DefaultLifetime: 15 * 60, MaxLifetime: 24 * 3600,
		RenewBurst: 64, RenewWindow: DefaultRenewWindow,
	}
}

// Clamp applies the policy to a requested lifetime.
func (p Policy) Clamp(requested uint32) uint32 {
	if requested == 0 {
		return p.DefaultLifetime
	}
	return min(requested, p.MaxLifetime)
}

// Service is the Management Service of one AS. It is safe for
// concurrent use; the paper parallelizes issuance across 4 processes.
// Here the population engine's workers call it concurrently, and each
// request splits in three: AdmitInPlace makes every decision on the
// caller; Sign, which covers up to cert.MaxBatch admitted requests with
// one Ed25519 signature, and the Admitted's Seal — the reply's
// encryption — may run on another core.
type Service struct {
	aid     ephid.AID
	sealer  *ephid.Sealer
	signer  *crypto.Signer
	db      *hostdb.DB
	policy  Policy
	aaEphID ephid.EphID
	now     func() int64

	// aeads keeps the hosts' kHA AEADs, built for the reply direction
	// (1); AdmitInPlace opens each request with one (Open ignores the
	// direction) and its Admitted seals the reply.
	aeads *crypto.AEADCache
}

// New creates the service. aaEphID is embedded in every certificate so
// peers know where to send shutoff requests.
//
//apna:only apna/internal/asnode apna/bench
func New(aid ephid.AID, sealer *ephid.Sealer, signer *crypto.Signer, db *hostdb.DB,
	policy Policy, aaEphID ephid.EphID, now func() int64) *Service {
	return &Service{
		aid: aid, sealer: sealer, signer: signer, db: db,
		policy: policy, aaEphID: aaEphID, now: now,
		aeads: crypto.NewAEADCache(1),
	}
}

// checkRenewal validates and charges a renewal: the predecessor EphID
// must decrypt under this AS's key to the same HID as the requesting
// control EphID (a host can only renew its own identifiers), and the
// host must have renewal budget left in the current window. The budget
// is the host's, kept in its hostdb record (hostdb.ChargeRenewal). The
// predecessor may already be expired — renewing an identifier that
// lapsed while its flow idled is exactly the recovery path.
func (s *Service) checkRenewal(hid ephid.HID, req *Request, now int64) error {
	pp, err := s.sealer.Open(req.Prev)
	if err != nil {
		return fmt.Errorf("%w: %w", ErrBadEphID, err)
	}
	if pp.HID != hid {
		return ErrForeignPrev
	}
	if s.policy.RenewBurst <= 0 {
		return nil
	}
	window := int64(s.policy.RenewWindow)
	if window == 0 {
		window = int64(DefaultRenewWindow)
	}
	ok, err := s.db.ChargeRenewal(hid, now, window, s.policy.RenewBurst)
	if err != nil {
		return fmt.Errorf("%w: %w", ErrUnknownHost, err)
	}
	if !ok {
		return ErrRenewRateLimited
	}
	return nil
}

// HandleRequest implements Figure 3 for one request. srcEphID is the
// source EphID of the request packet (the host's control EphID) and
// ciphertext the encrypted request, which it leaves intact. It returns
// the encrypted certificate reply. It is AdmitInPlace on a copy of
// ciphertext, Sign of the one-request batch, then Seal.
//
//apna:only apna/bench
func (s *Service) HandleRequest(srcEphID ephid.EphID, ciphertext []byte) ([]byte, error) {
	a, err := s.AdmitInPlace(srcEphID, slices.Clone(ciphertext))
	if err != nil {
		return nil, err
	}
	s.Sign([]*Admitted{a})
	return a.Seal()
}

// Admitted is a request the service has admitted: Figure 3 up to the
// signature. Every decision is made — the requester authenticated, the
// renewal budget charged, the EphID minted — and what is left, signing
// the certificate (Sign, which may batch it with others) and
// encrypting the reply (Seal), reads no service state the decisions
// changed. Sign and then Seal may run on another goroutine while the
// admitting one reads Denial, EphID and ExpTime. An Admitted keeps the
// AEAD that opened the request, built for the reply direction, so the
// reply is sealed under the same key schedule even if the service's
// cache has since evicted it.
type Admitted struct {
	aead   *crypto.AEAD
	src    ephid.EphID
	status byte
	signed bool
	cert   cert.Cert
}

// AdmitInPlace runs Figure 3 up to the signature: it opens and checks
// the control EphID, looks up the host's kHA key, decrypts the request
// in place — ciphertext is the service's from the call on, and holds no
// message afterwards — and decodes it, charges a renewal against the
// host's budget, and mints the EphID into an unsigned certificate. An
// error means the request is dropped unanswered; a renewal denial is
// not an error but an admitted request whose reply carries the denial
// (Denial).
func (s *Service) AdmitInPlace(srcEphID ephid.EphID, ciphertext []byte) (*Admitted, error) {
	now := s.now()

	// (HID, T1) = Dec(kA, EphID_ctrl); abort on forgery or expiry.
	p, err := s.sealer.Open(srcEphID)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadEphID, err)
	}
	if p.Expired(now) {
		return nil, ErrExpiredEphID
	}

	// HID must be registered and not revoked. hostdb decides that, not
	// the cache: a revoked host's schedule may still be cached.
	encKey, err := s.db.EncKey(p.HID)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrUnknownHost, err)
	}

	// Decrypt and parse the request under the cached AEAD for this HID
	// and key. The additional data is read from the heap-allocated
	// Admitted: the AEAD takes it through an interface, where a stack
	// copy would escape.
	aead, err := s.aeads.Get(uint32(p.HID), encKey)
	if err != nil {
		return nil, err
	}
	a := &Admitted{aead: aead, src: srcEphID}
	plain, err := aead.OpenInPlace(ciphertext, a.src[:])
	if err != nil {
		return nil, ErrDecryptFailed
	}
	var req Request
	if err := req.UnmarshalBinary(plain); err != nil {
		return nil, err
	}
	if req.Renewing() {
		switch err := s.checkRenewal(p.HID, &req, now); {
		case errors.Is(err, ErrUnknownHost):
			// Revoked since the EncKey lookup: dropped like any request
			// from a revoked host.
			return nil, err
		case err != nil:
			// The requester is authenticated and its request well
			// formed, so the denial is answered, not dropped: the host
			// matches replies to requests FIFO, and a silent drop would
			// desynchronize every later reply on that host.
			a.status = statusOf(err)
			return a, nil
		}
	}
	a.cert = s.mint(p.HID, &req)
	return a, nil
}

// Denial reports the renewal denial the reply will carry
// (ErrRenewRateLimited or ErrForeignPrev), or nil if a certificate
// was minted.
func (a *Admitted) Denial() error { return statusErr(a.status) }

// EphID is the minted identifier (zero on a denial).
func (a *Admitted) EphID() ephid.EphID { return a.cert.EphID }

// ExpTime is the minted identifier's expiry (zero on a denial).
func (a *Admitted) ExpTime() uint32 { return a.cert.ExpTime }

// Cert is the certificate the reply carries, signed once Sign has
// returned; nil on a denial.
func (a *Admitted) Cert() *cert.Cert {
	if a.status != replyStatusOK {
		return nil
	}
	return &a.cert
}

// Sign certifies every certificate minted in batch with one signature
// per Merkle tree (cert.SignBatch: at most cert.MaxBatch leaves, one
// ExpTime per tree, leaves in random order). Denials carry no
// certificate and get no leaf. The batch's Seals may run once it
// returns.
func (s *Service) Sign(batch []*Admitted) {
	certs := make([]*cert.Cert, 0, len(batch))
	for _, a := range batch {
		if a.status == replyStatusOK {
			certs = append(certs, &a.cert)
		}
	}
	cert.SignBatch(certs, s.signer)
	for _, a := range batch {
		a.signed = true
	}
}

// Seal encrypts the reply under the host's kHA key, bound to the
// requesting control EphID: the status byte, then the signed
// certificate unless the reply is a denial. Encryption keeps observers
// from linking the new EphID to the control EphID. Direction 1
// separates the reply nonces from the host's request nonces under the
// shared key, and each message draws its own random nonce (SealOnce):
// the key lives as long as the host's registration. A minted
// certificate must have been signed (Sign) first, or Seal returns
// ErrUnsigned.
func (a *Admitted) Seal() ([]byte, error) { return a.AppendSeal(nil) }

// AppendSeal is Seal appending the reply to dst. The plaintext is
// written where the ciphertext goes and sealed in place, so with room
// for the longest reply in dst the call allocates nothing.
func (a *Admitted) AppendSeal(dst []byte) ([]byte, error) {
	if a.status == replyStatusOK && !a.signed {
		return nil, ErrUnsigned
	}
	off := len(dst)
	dst = slices.Grow(dst, crypto.NonceSize+1+cert.MaxSize+crypto.TagSize)
	plain := append(dst[off+crypto.NonceSize:off+crypto.NonceSize], a.status)
	if a.status == replyStatusOK {
		var err error
		if plain, err = a.cert.AppendBinary(plain); err != nil {
			return nil, err
		}
	}
	return a.aead.SealOnce(dst, plain, a.src[:])
}

// Reply status codes, the first byte of the decrypted reply.
const (
	replyStatusOK          = 0
	replyStatusRateLimited = 1
	replyStatusForeignPrev = 2
)

// statusOf maps a denial error to its wire status. A predecessor that
// fails authentication reads the same as a foreign one: either way it
// is not an identifier this host may renew.
func statusOf(err error) byte {
	if errors.Is(err, ErrRenewRateLimited) {
		return replyStatusRateLimited
	}
	return replyStatusForeignPrev
}

// statusErr maps a wire status back to its denial error (nil for OK).
func statusErr(status byte) error {
	switch status {
	case replyStatusOK:
		return nil
	case replyStatusRateLimited:
		return ErrRenewRateLimited
	case replyStatusForeignPrev:
		return ErrForeignPrev
	}
	return fmt.Errorf("%w: reply status %d", ErrBadRequest, status)
}

// mint fills the unsigned certificate for an already-validated host:
// Issue without the signature.
func (s *Service) mint(hid ephid.HID, req *Request) cert.Cert {
	exp := uint32(s.now()) + s.policy.Clamp(req.Lifetime)
	id := s.sealer.Mint(ephid.Payload{HID: hid, ExpTime: exp})
	return cert.Cert{
		Kind: req.Kind, EphID: id, ExpTime: exp,
		AID: s.aid, AAEphID: s.aaEphID,
		DHPub: req.DHPub, SigPub: req.SigPub,
	}
}

// Issue mints and certifies an EphID for an already-validated host,
// signing its certificate alone (the one-leaf batch). This is the core
// generation step measured in the paper's MS performance experiment
// (Section V-A3).
//
//apna:only apna/bench
func (s *Service) Issue(hid ephid.HID, req *Request) (*cert.Cert, error) {
	c := s.mint(hid, req)
	c.Sign(s.signer)
	return &c, nil
}

// DecodeReply is OpenReply under a kHA encryption key, on a copy of
// reply, into a new certificate.
//
//apna:only apna/bench
func DecodeReply(encKey []byte, srcEphID ephid.EphID, reply []byte) (*cert.Cert, error) {
	aead, err := crypto.NewAEAD(encKey, 0)
	if err != nil {
		return nil, err
	}
	var c cert.Cert
	if err := OpenReply(&c, aead, &srcEphID, slices.Clone(reply)); err != nil {
		return nil, err
	}
	return &c, nil
}

// OpenReply is the host-side decryption of the MS reply under the
// host's kHA AEAD, bound to the control EphID the request went from: it
// decrypts reply in place (reply holds no message afterwards), recovers
// the status byte and, on success, decodes the certificate into c.
// Denials come back as typed errors (ErrRenewRateLimited,
// ErrForeignPrev) so requesters can distinguish throttling from
// protocol failures. srcEphID is a pointer because the AEAD reads it
// through an interface, where a copy on the stack would escape.
func OpenReply(c *cert.Cert, aead *crypto.AEAD, srcEphID *ephid.EphID, reply []byte) error {
	plain, err := aead.OpenInPlace(reply, srcEphID[:])
	if err != nil {
		return fmt.Errorf("ms: reply decryption failed: %w", err)
	}
	if len(plain) < 1 {
		return ErrBadRequest
	}
	if plain[0] != replyStatusOK && len(plain) != 1 {
		// A denial is the status byte alone (Admitted.Seal).
		return fmt.Errorf("%w: %d bytes after reply status %d", ErrBadRequest, len(plain)-1, plain[0])
	}
	if err := statusErr(plain[0]); err != nil {
		return err
	}
	return c.UnmarshalBinary(plain[1:])
}

// EncodeRequest is AppendRequest under a kHA encryption key, into a new
// buffer.
//
//apna:only apna/bench
func EncodeRequest(encKey []byte, srcEphID ephid.EphID, req *Request) ([]byte, error) {
	aead, err := crypto.NewAEAD(encKey, 0)
	if err != nil {
		return nil, err
	}
	return AppendRequest(nil, aead, &srcEphID, req)
}

// AppendRequest is the host-side encryption of a request under the
// host's kHA AEAD (built for direction 0), bound to the control EphID it
// will be sent from, appended to dst. Like the reply, each request
// draws its own random nonce. The request is encoded where its
// ciphertext goes and sealed in place, so with SealedRequestSize bytes
// to spare in dst the call allocates nothing. srcEphID is a pointer for
// OpenReply's reason.
func AppendRequest(dst []byte, aead *crypto.AEAD, srcEphID *ephid.EphID, req *Request) ([]byte, error) {
	off := len(dst)
	dst = slices.Grow(dst, SealedRequestSize)
	plain := req.Append(dst[off+crypto.NonceSize : off+crypto.NonceSize])
	return aead.SealOnce(dst, plain, srcEphID[:])
}
