package accountability

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"

	"apna/internal/aa"
	"apna/internal/cert"
	"apna/internal/crypto"
	"apna/internal/ephid"
)

// Message kinds, carried as the first byte of every ProtoAcct payload.
const (
	// MsgComplaint is a host-to-AA complaint about unwanted traffic.
	MsgComplaint byte = 1
	// MsgShutoffRequest is an AA-to-AA signed shutoff request.
	MsgShutoffRequest byte = 2
	// MsgReceipt is the source AA's signed answer to a shutoff request.
	MsgReceipt byte = 3
	// MsgDigest is a signed revocation digest flooded between AAs.
	MsgDigest byte = 4
	// MsgComplaintAck is the AA-to-host answer closing a complaint:
	// one status byte (1 = a receipt follows) plus the encoded receipt.
	MsgComplaintAck byte = 5
	// MsgDigestBatch carries several origin-signed digests in one frame:
	// the relay overlay's per-tick aggregate, forwarding everything an AS
	// learned since its last flush to each overlay neighbor in a single
	// message.
	MsgDigestBatch byte = 6
	// MsgSnapshotRequest asks an origin for a full snapshot digest after
	// a seq gap: the body names the origin whose chain broke.
	MsgSnapshotRequest byte = 7
)

// Signature labels, domain-separating the three signed artifacts.
const (
	reqSigLabel     = "apna/v1/acct/shutoff-req"
	receiptSigLabel = "apna/v1/acct/receipt"
	digestSigLabel  = "apna/v1/acct/digest"
)

// Codec and verification errors.
var (
	ErrBadComplaint = errors.New("accountability: malformed complaint")
	ErrBadRequest   = errors.New("accountability: malformed shutoff request")
	ErrBadReceipt   = errors.New("accountability: malformed receipt")
	ErrBadDigest    = errors.New("accountability: malformed digest")
	ErrBadSignature = errors.New("accountability: AS signature verification failed")
)

// Complaint is what a victim host hands its own accountability agent:
// the standard shutoff evidence (aa.Request — the offending packet,
// the victim's signature over it, and the victim's certificate) plus
// the offender's certificate, which names the offending AS and the
// EphID of its accountability agent so the complaint can be routed
// across the border. The victim-side AA verifies everything it can
// locally (certificate chains, signature, addressing) before spending
// an inter-domain round trip; only the per-packet MAC — keyed between
// the offending host and its own AS — must wait for the source AA.
type Complaint struct {
	// OffenderCert is the certificate the offender presented during
	// connection establishment.
	OffenderCert cert.Cert
	// Req is the shutoff evidence: victim certificate, victim signature
	// and the offending packet.
	Req aa.Request
}

// NewComplaint builds and signs a complaint. signer must hold the
// private key bound to victimCert.
func NewComplaint(packet []byte, victimCert, offenderCert *cert.Cert, signer *crypto.Signer) *Complaint {
	return &Complaint{
		OffenderCert: *offenderCert,
		Req:          *aa.BuildRequest(packet, victimCert, signer),
	}
}

// Encode serializes the complaint.
func (c *Complaint) Encode() ([]byte, error) {
	reqRaw, err := c.Req.Encode()
	if err != nil {
		return nil, err
	}
	offRaw, err := c.OffenderCert.MarshalBinary()
	if err != nil {
		return nil, err
	}
	return append(offRaw, reqRaw...), nil
}

// DecodeComplaint parses a serialized complaint.
func DecodeComplaint(data []byte) (*Complaint, error) {
	var c Complaint
	n, err := c.OffenderCert.Decode(data)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadComplaint, err)
	}
	req, err := aa.DecodeRequest(data[n:])
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadComplaint, err)
	}
	c.Req = *req
	return &c, nil
}

// ShutoffRequest is the AA-to-AA form of a complaint: the encoded
// complaint wrapped with the origin (victim-side) AS's identity and
// Ed25519 signature, verifiable by the source AS through the RPKI
// trust store. Seq and IssuedAt make requests distinguishable in logs;
// replay safety comes from the receiver's request-hash idempotency
// cache, not from these fields.
type ShutoffRequest struct {
	// Origin is the requesting (victim-side) AS.
	Origin ephid.AID
	// Seq is the origin's request counter.
	Seq uint64
	// IssuedAt is the origin's clock at signing, in Unix seconds.
	IssuedAt int64
	// Complaint is the encoded Complaint being forwarded.
	Complaint []byte
	// Signature is the origin AS's signature over all fields above.
	Signature [crypto.SignatureSize]byte
}

func (r *ShutoffRequest) appendTBS(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(r.Origin))
	dst = binary.BigEndian.AppendUint64(dst, r.Seq)
	dst = binary.BigEndian.AppendUint64(dst, uint64(r.IssuedAt))
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(r.Complaint)))
	return append(dst, r.Complaint...)
}

// Sign computes and stores the origin AS's signature.
func (r *ShutoffRequest) Sign(signer Signer) {
	copy(r.Signature[:], signer.Sign(reqSigLabel, r.appendTBS(nil)))
}

// Verify checks the origin AS's signature, resolving its key through
// the trust store.
func (r *ShutoffRequest) Verify(trust TrustStore, nowUnix int64) error {
	key, err := trust.SigKey(r.Origin, nowUnix)
	if err != nil {
		return fmt.Errorf("%w: %w", ErrBadSignature, err)
	}
	if !crypto.Verify(key, reqSigLabel, r.appendTBS(nil), r.Signature[:]) {
		return ErrBadSignature
	}
	return nil
}

// Encode serializes the signed request.
func (r *ShutoffRequest) Encode() []byte {
	return append(r.appendTBS(nil), r.Signature[:]...)
}

// DecodeShutoffRequest parses a serialized request (without verifying
// it; call Verify).
func DecodeShutoffRequest(data []byte) (*ShutoffRequest, error) {
	const fixed = 4 + 8 + 8 + 4
	if len(data) < fixed+crypto.SignatureSize {
		return nil, fmt.Errorf("%w: %d bytes", ErrBadRequest, len(data))
	}
	var r ShutoffRequest
	r.Origin = ephid.AID(binary.BigEndian.Uint32(data))
	r.Seq = binary.BigEndian.Uint64(data[4:])
	r.IssuedAt = int64(binary.BigEndian.Uint64(data[12:]))
	n := int(binary.BigEndian.Uint32(data[20:]))
	if len(data) != fixed+n+crypto.SignatureSize {
		return nil, fmt.Errorf("%w: complaint length %d vs %d", ErrBadRequest, n, len(data)-fixed-crypto.SignatureSize)
	}
	r.Complaint = data[fixed : fixed+n]
	copy(r.Signature[:], data[fixed+n:])
	return &r, nil
}

// RequestHash identifies a shutoff request for idempotency: the SHA-256
// of its full encoding. A bit-exact replay (or retransmission) hashes
// identically and is answered with the cached receipt.
func RequestHash(encoded []byte) [32]byte { return sha256.Sum256(encoded) }

// Status classifies the outcome of a cross-AS shutoff request.
type Status uint8

const (
	// StatusRevoked: the source AA revoked the EphID now.
	StatusRevoked Status = iota + 1
	// StatusAlreadyRevoked: the EphID (or its host) was already
	// revoked — a no-op shutoff, acknowledged without a second strike.
	StatusAlreadyRevoked
	// StatusExpiredNoOp: the EphID had already expired, so there is
	// nothing to revoke — expiry stops its traffic everywhere.
	StatusExpiredNoOp
	// StatusRejected: the complaint failed verification (forged proof,
	// unauthorized requester, unknown source).
	StatusRejected
)

// Stopped reports whether the status means the offending EphID can no
// longer send (revoked now, revoked before, or expired).
func (s Status) Stopped() bool {
	return s == StatusRevoked || s == StatusAlreadyRevoked || s == StatusExpiredNoOp
}

// String names the status.
func (s Status) String() string {
	switch s {
	case StatusRevoked:
		return "revoked"
	case StatusAlreadyRevoked:
		return "already-revoked"
	case StatusExpiredNoOp:
		return "expired-noop"
	case StatusRejected:
		return "rejected"
	default:
		return fmt.Sprintf("status(%d)", uint8(s))
	}
}

// Receipt is the source AA's signed answer to a shutoff request: what
// happened, to which EphID, bound to the request by its hash. The
// victim-side AA (and ultimately the complaining host) verifies it
// end-to-end against the source AS's RPKI key.
type Receipt struct {
	// Issuer is the source AS that processed the request.
	Issuer ephid.AID
	// Status is the outcome.
	Status Status
	// SrcEphID is the offending EphID the request named.
	SrcEphID ephid.EphID
	// ExpTime is the EphID's expiration (0 when it never decrypted).
	ExpTime uint32
	// ReqHash binds the receipt to the request it answers.
	ReqHash [32]byte
	// IssuedAt is the issuer's clock at signing, in Unix seconds.
	IssuedAt int64
	// Signature is the issuer AS's signature over all fields above.
	Signature [crypto.SignatureSize]byte
}

// ReceiptSize is the wire size of a receipt.
const ReceiptSize = 4 + 1 + ephid.Size + 4 + 32 + 8 + crypto.SignatureSize

func (r *Receipt) appendTBS(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(r.Issuer))
	dst = append(dst, byte(r.Status))
	dst = append(dst, r.SrcEphID[:]...)
	dst = binary.BigEndian.AppendUint32(dst, r.ExpTime)
	dst = append(dst, r.ReqHash[:]...)
	return binary.BigEndian.AppendUint64(dst, uint64(r.IssuedAt))
}

// Sign computes and stores the issuer AS's signature.
func (r *Receipt) Sign(signer Signer) {
	copy(r.Signature[:], signer.Sign(receiptSigLabel, r.appendTBS(nil)))
}

// Verify checks the issuer AS's signature, resolving its key through
// the trust store.
func (r *Receipt) Verify(trust TrustStore, nowUnix int64) error {
	key, err := trust.SigKey(r.Issuer, nowUnix)
	if err != nil {
		return fmt.Errorf("%w: %w", ErrBadSignature, err)
	}
	if !crypto.Verify(key, receiptSigLabel, r.appendTBS(nil), r.Signature[:]) {
		return ErrBadSignature
	}
	return nil
}

// Encode serializes the signed receipt.
func (r *Receipt) Encode() []byte {
	return append(r.appendTBS(make([]byte, 0, ReceiptSize)), r.Signature[:]...)
}

// DecodeReceipt parses a serialized receipt (without verifying it;
// call Verify).
func DecodeReceipt(data []byte) (*Receipt, error) {
	if len(data) != ReceiptSize {
		return nil, fmt.Errorf("%w: %d bytes", ErrBadReceipt, len(data))
	}
	var r Receipt
	r.Issuer = ephid.AID(binary.BigEndian.Uint32(data))
	off := 4
	r.Status = Status(data[off])
	off++
	copy(r.SrcEphID[:], data[off:])
	off += ephid.Size
	r.ExpTime = binary.BigEndian.Uint32(data[off:])
	off += 4
	copy(r.ReqHash[:], data[off:])
	off += 32
	r.IssuedAt = int64(binary.BigEndian.Uint64(data[off:]))
	off += 8
	copy(r.Signature[:], data[off:])
	return &r, nil
}

// DigestEntry is one revoked EphID with its expiration time.
type DigestEntry struct {
	EphID   ephid.EphID
	ExpTime uint32
}

// Digest kinds, carried on the wire so receivers know whether Entries
// is a full state or a change set.
const (
	// DigestSnapshot carries the origin's entire live revocation set —
	// the anti-entropy form that repairs any loss or reorder.
	DigestSnapshot byte = 1
	// DigestDelta carries only the changes since the origin's previous
	// flush: Entries were added, Removed expired out of the announced
	// set. A delta applies only on top of seq-1.
	DigestDelta byte = 2
)

// Digest is a signed batch of an AS's revocation state, disseminated
// periodically to peer AAs. Seq increases with every flush and chains
// deltas to their predecessor: a DigestDelta with seq s applies only to
// a receiver whose applied seq is exactly s-1, while a DigestSnapshot
// applies on top of any older seq. Receivers that detect a seq gap
// recover from the next snapshot — the
// periodic anti-entropy round, or a unicast answer to a
// MsgSnapshotRequest. Replays (seq at or below the newest accepted)
// are dropped either way.
type Digest struct {
	// Origin is the AS whose revocations these are.
	Origin ephid.AID
	// Seq is the origin's flush counter.
	Seq uint64
	// IssuedAt is the origin's clock at signing, in Unix seconds.
	IssuedAt int64
	// Kind is DigestSnapshot or DigestDelta.
	Kind byte
	// Entries lists revocations in EphID order: the full live set for a
	// snapshot, the additions since seq-1 for a delta.
	Entries []DigestEntry
	// Removed lists EphIDs that left the origin's announced set since
	// seq-1 (expiry pruning), in EphID order. Always empty on snapshots.
	// It is advisory: receivers' remote lists reap expired entries by
	// their own GC, so nothing installs or uninstalls from it.
	Removed []ephid.EphID
	// Signature is the origin AS's signature over all fields above.
	Signature [crypto.SignatureSize]byte
}

func (d *Digest) appendTBS(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(d.Origin))
	dst = binary.BigEndian.AppendUint64(dst, d.Seq)
	dst = binary.BigEndian.AppendUint64(dst, uint64(d.IssuedAt))
	dst = append(dst, d.Kind)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(d.Entries)))
	for _, e := range d.Entries {
		dst = append(dst, e.EphID[:]...)
		dst = binary.BigEndian.AppendUint32(dst, e.ExpTime)
	}
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(d.Removed)))
	for _, id := range d.Removed {
		dst = append(dst, id[:]...)
	}
	return dst
}

// Sign computes and stores the origin AS's signature.
func (d *Digest) Sign(signer Signer) {
	copy(d.Signature[:], signer.Sign(digestSigLabel, d.appendTBS(nil)))
}

// Verify checks the origin AS's signature, resolving its key through
// the trust store.
func (d *Digest) Verify(trust TrustStore, nowUnix int64) error {
	key, err := trust.SigKey(d.Origin, nowUnix)
	if err != nil {
		return fmt.Errorf("%w: %w", ErrBadSignature, err)
	}
	if !crypto.Verify(key, digestSigLabel, d.appendTBS(nil), d.Signature[:]) {
		return ErrBadSignature
	}
	return nil
}

// Encode serializes the signed digest.
func (d *Digest) Encode() []byte {
	return append(d.appendTBS(nil), d.Signature[:]...)
}

// DecodeDigest parses a serialized digest (without verifying it; call
// Verify). It rejects unknown kinds and snapshots carrying removals, so
// malformed state never reaches the install path.
func DecodeDigest(data []byte) (*Digest, error) {
	const fixed = 4 + 8 + 8 + 1 + 4
	const entrySize = ephid.Size + 4
	if len(data) < fixed+4+crypto.SignatureSize {
		return nil, fmt.Errorf("%w: %d bytes", ErrBadDigest, len(data))
	}
	var d Digest
	d.Origin = ephid.AID(binary.BigEndian.Uint32(data))
	d.Seq = binary.BigEndian.Uint64(data[4:])
	d.IssuedAt = int64(binary.BigEndian.Uint64(data[12:]))
	d.Kind = data[20]
	if d.Kind != DigestSnapshot && d.Kind != DigestDelta {
		return nil, fmt.Errorf("%w: kind %d", ErrBadDigest, d.Kind)
	}
	n := int(binary.BigEndian.Uint32(data[21:]))
	// Bound n by the bytes actually present before allocating.
	if n < 0 || len(data)-fixed-4-crypto.SignatureSize < n*entrySize {
		return nil, fmt.Errorf("%w: %d entries vs %d bytes", ErrBadDigest, n, len(data))
	}
	off := fixed + n*entrySize
	m := int(binary.BigEndian.Uint32(data[off:]))
	off += 4
	if m < 0 || len(data) != off+m*ephid.Size+crypto.SignatureSize {
		return nil, fmt.Errorf("%w: %d entries + %d removed vs %d bytes", ErrBadDigest, n, m, len(data))
	}
	if d.Kind == DigestSnapshot && m != 0 {
		return nil, fmt.Errorf("%w: snapshot with %d removals", ErrBadDigest, m)
	}
	d.Entries = make([]DigestEntry, n)
	eoff := fixed
	for i := range d.Entries {
		copy(d.Entries[i].EphID[:], data[eoff:])
		d.Entries[i].ExpTime = binary.BigEndian.Uint32(data[eoff+ephid.Size:])
		eoff += entrySize
	}
	d.Removed = make([]ephid.EphID, m)
	for i := range d.Removed {
		copy(d.Removed[i][:], data[off:])
		off += ephid.Size
	}
	copy(d.Signature[:], data[off:])
	return &d, nil
}

// EncodeDigestBatch frames several raw signed digests into one
// MsgDigestBatch body: a 2-byte count followed by 4-byte-length-prefixed
// encodings. Relays batch so one tick costs one message per overlay
// neighbor no matter how many origins were active.
func EncodeDigestBatch(raws [][]byte) []byte {
	size := 2
	for _, r := range raws {
		size += 4 + len(r)
	}
	out := make([]byte, 0, size)
	out = binary.BigEndian.AppendUint16(out, uint16(len(raws)))
	for _, r := range raws {
		out = binary.BigEndian.AppendUint32(out, uint32(len(r)))
		out = append(out, r...)
	}
	return out
}

// MaxDigestBatch bounds the digests one batch may carry.
const MaxDigestBatch = 1 << 14

// DecodeDigestBatch splits a MsgDigestBatch body back into the raw
// digest encodings. The returned slices alias data; they are not
// decoded or verified here — each goes through DecodeDigest + Verify
// individually, so one malformed element cannot poison its siblings.
func DecodeDigestBatch(data []byte) ([][]byte, error) {
	if len(data) < 2 {
		return nil, fmt.Errorf("%w: batch of %d bytes", ErrBadDigest, len(data))
	}
	n := int(binary.BigEndian.Uint16(data))
	if n > MaxDigestBatch {
		return nil, fmt.Errorf("%w: batch of %d digests", ErrBadDigest, n)
	}
	raws := make([][]byte, 0, n)
	off := 2
	for i := 0; i < n; i++ {
		if len(data)-off < 4 {
			return nil, fmt.Errorf("%w: batch truncated at element %d", ErrBadDigest, i)
		}
		l := int(binary.BigEndian.Uint32(data[off:]))
		off += 4
		if l < 0 || len(data)-off < l {
			return nil, fmt.Errorf("%w: batch element %d of %d bytes", ErrBadDigest, i, l)
		}
		raws = append(raws, data[off:off+l])
		off += l
	}
	if off != len(data) {
		return nil, fmt.Errorf("%w: %d trailing batch bytes", ErrBadDigest, len(data)-off)
	}
	return raws, nil
}

// EncodeSnapshotRequest builds a MsgSnapshotRequest body naming the
// origin whose delta chain the requester lost.
func EncodeSnapshotRequest(origin ephid.AID) []byte {
	return binary.BigEndian.AppendUint32(nil, uint32(origin))
}

// DecodeSnapshotRequest parses a MsgSnapshotRequest body.
func DecodeSnapshotRequest(data []byte) (ephid.AID, error) {
	if len(data) != 4 {
		return 0, fmt.Errorf("%w: snapshot request of %d bytes", ErrBadDigest, len(data))
	}
	return ephid.AID(binary.BigEndian.Uint32(data)), nil
}
