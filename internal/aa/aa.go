// Package aa implements the Accountability Agent — the AS entity that
// validates shutoff requests and revokes the offending source EphIDs
// (paper Sections IV-E and VIII-C, Figure 5).
//
// A destination host that wants traffic from a source EphID stopped
// sends the agent of the *source* AS: the unwanted packet itself, a
// signature over that packet with the private key of its own destination
// EphID, and the destination EphID's certificate. The agent verifies
//
//  1. the certificate chains to the destination AS (via the RPKI trust
//     store),
//  2. the signature — proving the requester owns the destination EphID,
//  3. that the requester is authorized: the packet was addressed to
//     exactly that EphID (only recipients may shut off a flow),
//  4. that the source host really sent the packet, by checking the
//     per-packet MAC with the key shared between the AS and the host.
//
// Only then does it order the border routers to revoke the source
// EphID. These checks are what keep the shutoff protocol from becoming
// a denial-of-service tool (Section VI-C).
package aa

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"apna/internal/border"
	"apna/internal/cert"
	"apna/internal/crypto"
	"apna/internal/ephid"
	"apna/internal/hostdb"
	"apna/internal/rpki"
	"apna/internal/wire"
)

// Errors returned by the agent. Each corresponds to one "abort" in
// Figure 5.
var (
	ErrBadRequest    = errors.New("aa: malformed shutoff request")
	ErrBadCert       = errors.New("aa: requester certificate invalid")
	ErrBadSignature  = errors.New("aa: requester signature invalid")
	ErrNotAuthorized = errors.New("aa: requester is not the packet's recipient")
	ErrNotOurs       = errors.New("aa: packet source is not in this AS")
	ErrBadSrcEphID   = errors.New("aa: source EphID invalid or expired")
	ErrUnknownHost   = errors.New("aa: source HID unknown or revoked")
	ErrBadPacketMAC  = errors.New("aa: packet MAC invalid — source never sent it")
)

const sigLabel = "apna/v1/shutoff"

// Request is a shutoff request: evidence packet, authorization
// signature, and the requester's certificate.
type Request struct {
	// Cert is the certificate of the destination EphID (the
	// requester).
	Cert cert.Cert
	// Signature is the requester's Ed25519 signature over Packet.
	Signature [crypto.SignatureSize]byte
	// Packet is the unwanted packet, included as evidence.
	Packet []byte
}

// BuildRequest constructs and signs a shutoff request. signer must hold
// the private key bound to dstCert.
func BuildRequest(packet []byte, dstCert *cert.Cert, signer *crypto.Signer) *Request {
	r := &Request{Cert: *dstCert, Packet: append([]byte(nil), packet...)}
	copy(r.Signature[:], signer.Sign(sigLabel, packet))
	return r
}

// VerifySignature checks the requester's signature over the evidence
// packet against the certificate's signing key — the
// verifySig(K+_EphIDd, {pkt}) step of Figure 5, exposed so a victim-side
// accountability engine can pre-screen complaints before forwarding
// them across AS borders.
func (r *Request) VerifySignature() bool {
	return crypto.Verify(r.Cert.SigPub[:], sigLabel, r.Packet, r.Signature[:])
}

// Encode serializes the request.
func (r *Request) Encode() ([]byte, error) {
	certRaw, err := r.Cert.MarshalBinary()
	if err != nil {
		return nil, err
	}
	buf := make([]byte, 0, len(certRaw)+len(r.Signature)+4+len(r.Packet))
	buf = append(buf, certRaw...)
	buf = append(buf, r.Signature[:]...)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(r.Packet)))
	return append(buf, r.Packet...), nil
}

// DecodeRequest parses a serialized request.
func DecodeRequest(data []byte) (*Request, error) {
	var r Request
	off, err := r.Cert.Decode(data)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadRequest, err)
	}
	if len(data) < off+crypto.SignatureSize+4 {
		return nil, fmt.Errorf("%w: %d bytes", ErrBadRequest, len(data))
	}
	copy(r.Signature[:], data[off:])
	off += crypto.SignatureSize
	n := int(binary.BigEndian.Uint32(data[off:]))
	off += 4
	if len(data)-off != n {
		return nil, fmt.Errorf("%w: packet length %d vs %d", ErrBadRequest, n, len(data)-off)
	}
	r.Packet = data[off:]
	return &r, nil
}

// Result reports a successful shutoff.
type Result struct {
	// Strikes is the host's updated shutoff-incident count.
	Strikes int
}

// Config parameterizes the agent.
type Config struct {
	AID ephid.AID
	// StrikeLimit is the number of shutoff incidents after which the
	// AS revokes the host's HID — the paper's nod to the Copyright
	// Alert System's 7-incident ladder (Section VIII-G2). Zero
	// disables escalation.
	StrikeLimit int
}

// Agent is the accountability agent of one AS.
type Agent struct {
	cfg    Config
	sealer *ephid.Sealer
	db     *hostdb.DB
	secret *crypto.ASSecret
	trust  *rpki.TrustStore
	now    func() int64

	mu      sync.Mutex
	routers []*border.Router
	// onRevoke, when set, observes every EphID revocation this agent
	// orders (shutoff or voluntary). The inter-domain accountability
	// engine subscribes here to feed its revocation digests.
	onRevoke func(e ephid.EphID, expTime uint32)
}

// New creates an agent.
//
//apna:only apna/internal/asnode apna/bench
func New(cfg Config, sealer *ephid.Sealer, db *hostdb.DB, secret *crypto.ASSecret,
	trust *rpki.TrustStore, now func() int64) *Agent {
	return &Agent{cfg: cfg, sealer: sealer, db: db, secret: secret, trust: trust, now: now}
}

// AddRouter registers a border router to receive revocation orders.
func (a *Agent) AddRouter(r *border.Router) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.routers = append(a.routers, r)
}

// SetRevocationHook installs a callback fired after every successful
// EphID revocation (shutoff-driven or voluntary), carrying the revoked
// EphID and its expiration time.
//
//apna:only apna/internal/asnode apna/bench
func (a *Agent) SetRevocationHook(fn func(e ephid.EphID, expTime uint32)) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.onRevoke = fn
}

// VerifyEvidence runs every requester-proof check of Figure 5 —
// certificate chain, requester signature, authorization (the packet is
// addressed to the requester), source locality, EphID decryption, and
// the per-packet MAC — with none of the revocation side effects, and
// deliberately without the expiry abort: evidence about an
// already-expired EphID still verifies, so the inter-domain engine can
// answer such requests with an authenticated no-op receipt instead of
// rejecting them. The MAC key is fetched regardless of the host's
// status — a revoked host's past traffic remains attributable
// evidence. On success it returns the decrypted source EphID payload.
func (a *Agent) VerifyEvidence(req *Request) (ephid.Payload, error) {
	now := a.now()

	// verifyCert(C_EphIDd): chase the issuer's key through the trust
	// store and check the signature and expiry.
	issuerKey, err := a.trust.SigKey(req.Cert.AID, now)
	if err != nil {
		return ephid.Payload{}, fmt.Errorf("%w: %w", ErrBadCert, err)
	}
	if err := req.Cert.Verify(issuerKey, now); err != nil {
		return ephid.Payload{}, fmt.Errorf("%w: %w", ErrBadCert, err)
	}

	// verifySig(K+_EphIDd, {pkt}): the requester owns EphID_d.
	if !req.VerifySignature() {
		return ephid.Payload{}, ErrBadSignature
	}

	// The evidence must be a well-formed APNA packet addressed to the
	// requester — only the recipient may request a shutoff.
	if !wire.ValidFrame(req.Packet) {
		return ephid.Payload{}, fmt.Errorf("%w: evidence is not an APNA frame", ErrBadRequest)
	}
	if wire.FrameDstEphID(req.Packet) != req.Cert.EphID || wire.FrameDstAID(req.Packet) != req.Cert.AID {
		return ephid.Payload{}, ErrNotAuthorized
	}

	// The offending source must be one of our hosts.
	if wire.FrameSrcAID(req.Packet) != a.cfg.AID {
		return ephid.Payload{}, ErrNotOurs
	}
	p, err := a.sealer.Open(wire.FrameSrcEphID(req.Packet))
	if err != nil {
		return ephid.Payload{}, fmt.Errorf("%w: %w", ErrBadSrcEphID, err)
	}

	// kHSAS = host_info[HID_S]; verifyMAC(kHSAS, pkt): the host really
	// sent this packet (a rogue packet cannot trigger a shutoff,
	// Section VI-C).
	entry, err := a.db.Get(p.HID)
	if err != nil {
		return ephid.Payload{}, fmt.Errorf("%w: %w", ErrUnknownHost, err)
	}
	var pm wire.PacketMAC
	if err := pm.Init(entry.Keys.MAC[:]); err != nil {
		return ephid.Payload{}, err
	}
	if !pm.Verify(req.Packet) {
		return ephid.Payload{}, ErrBadPacketMAC
	}
	return p, nil
}

// notifyRevoked fires the revocation hook, if any.
func (a *Agent) notifyRevoked(e ephid.EphID, expTime uint32) {
	a.mu.Lock()
	fn := a.onRevoke
	a.mu.Unlock()
	if fn != nil {
		fn(e, expTime)
	}
}

// HandleShutoff validates a shutoff request and, if valid, revokes the
// source EphID on all border routers. It implements the agent's side of
// Figure 5: the requester-proof checks of VerifyEvidence, then the
// expiry and host-standing gates, then the revocation itself.
func (a *Agent) HandleShutoff(req *Request) (*Result, error) {
	p, err := a.VerifyEvidence(req)
	if err != nil {
		return nil, err
	}
	return a.ShutoffVerified(req, p)
}

// ShutoffVerified executes the revocation for evidence a prior
// VerifyEvidence call already validated, re-checking only the clock-
// and state-dependent gates (expiry, host standing). Callers that
// verify first to classify — the inter-domain engine — use it to avoid
// paying the Figure 5 cryptography twice.
func (a *Agent) ShutoffVerified(req *Request, p ephid.Payload) (*Result, error) {
	now := a.now()
	if p.Expired(now) {
		return nil, fmt.Errorf("%w: expired", ErrBadSrcEphID)
	}
	// The host must still be in good standing. The cause is chained
	// (%w) so callers building signed receipts can tell "host already
	// revoked" (hostdb.ErrRevoked — a no-op shutoff) apart from a
	// genuinely unknown HID.
	if _, err := a.db.MACKey(p.HID); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrUnknownHost, err)
	}
	srcEphID := wire.FrameSrcEphID(req.Packet)

	// Order every border router to revoke the EphID.
	order, err := border.SignOrder(a.secret, srcEphID, p.ExpTime)
	if err != nil {
		return nil, err
	}
	a.mu.Lock()
	routers := append([]*border.Router(nil), a.routers...)
	a.mu.Unlock()
	for _, r := range routers {
		if err := r.ApplyOrder(order); err != nil {
			return nil, err
		}
	}
	a.notifyRevoked(srcEphID, p.ExpTime)

	res := &Result{}
	res.Strikes, err = a.db.AddStrike(p.HID)
	if err != nil {
		return nil, err
	}
	if a.cfg.StrikeLimit > 0 && res.Strikes >= a.cfg.StrikeLimit {
		// Timestamped so the lifecycle GC can reap the entry once the
		// retention window (max EphID lifetime) passes.
		a.db.RevokeAt(p.HID, now)
	}
	return res, nil
}

// RevokeVoluntary lets a local host preemptively revoke one of its own
// EphIDs (Section VIII-G2: "a host could revoke an EphID that is no
// longer needed"). The caller must have authenticated the host; the
// agent checks only that the EphID belongs to the claimed HID.
func (a *Agent) RevokeVoluntary(hid ephid.HID, e ephid.EphID) error {
	p, err := a.sealer.Open(e)
	if err != nil {
		return fmt.Errorf("%w: %w", ErrBadSrcEphID, err)
	}
	if p.HID != hid {
		return ErrNotAuthorized
	}
	order, err := border.SignOrder(a.secret, e, p.ExpTime)
	if err != nil {
		return err
	}
	a.mu.Lock()
	routers := append([]*border.Router(nil), a.routers...)
	a.mu.Unlock()
	for _, r := range routers {
		if err := r.ApplyOrder(order); err != nil {
			return err
		}
	}
	a.notifyRevoked(e, p.ExpTime)
	return nil
}
