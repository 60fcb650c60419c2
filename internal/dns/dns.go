// Package dns implements the name service of Section VII-A: servers
// publish a receive-only EphID certificate under a domain name, and
// clients resolve names to certificates before dialing. Records are
// signed by a zone authority (the paper assumes DNSSEC), and queries
// travel over ordinary APNA sessions, so "only the DNS server and the
// host know the content of the query".
package dns

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"apna/internal/cert"
	"apna/internal/crypto"
	"apna/internal/host"
)

// Errors returned by the resolver machinery.
var (
	ErrNameTooLong      = errors.New("dns: name exceeds 255 bytes")
	ErrBadMessage       = errors.New("dns: malformed message")
	ErrBadRecord        = errors.New("dns: record signature invalid")
	ErrStaleRecord      = errors.New("dns: record expired")
	ErrNXDomain         = errors.New("dns: no such name")
	ErrNotAuthoritative = errors.New("dns: name outside zone apex")
	ErrBadDenial        = errors.New("dns: denial signature invalid")
	ErrBadReferral      = errors.New("dns: referral signature invalid")
)

const recordSigLabel = "apna/v1/dns/record"

// SignedRecord binds a name to an EphID certificate, signed by the zone
// authority (DNSSEC stand-in).
type SignedRecord struct {
	Name     string
	Cert     cert.Cert
	NotAfter int64
	Sig      [crypto.SignatureSize]byte
}

func (r *SignedRecord) appendTBS(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(r.Name)))
	dst = append(dst, r.Name...)
	raw, _ := r.Cert.MarshalBinary()
	dst = append(dst, raw...)
	return binary.BigEndian.AppendUint64(dst, uint64(r.NotAfter))
}

// Encode serializes the signed record.
func (r *SignedRecord) Encode() []byte {
	out := r.appendTBS(nil)
	return append(out, r.Sig[:]...)
}

// DecodeRecord parses a signed record.
func DecodeRecord(data []byte) (*SignedRecord, error) {
	if len(data) < 2 {
		return nil, ErrBadMessage
	}
	n := int(binary.BigEndian.Uint16(data))
	off := 2 + n
	if len(data) < off {
		return nil, fmt.Errorf("%w: record length %d, name needs %d", ErrBadMessage, len(data), off)
	}
	var r SignedRecord
	r.Name = string(data[2:off])
	k, err := r.Cert.Decode(data[off:])
	if err != nil {
		return nil, err
	}
	off += k
	if want := off + 8 + crypto.SignatureSize; len(data) != want {
		return nil, fmt.Errorf("%w: record length %d, want %d", ErrBadMessage, len(data), want)
	}
	r.NotAfter = int64(binary.BigEndian.Uint64(data[off:]))
	off += 8
	copy(r.Sig[:], data[off:])
	return &r, nil
}

// Verify checks the zone signature and freshness of a record.
func (r *SignedRecord) Verify(zonePub []byte, nowUnix int64) error {
	if !crypto.Verify(zonePub, recordSigLabel, r.appendTBS(nil), r.Sig[:]) {
		return ErrBadRecord
	}
	if r.NotAfter < nowUnix {
		return ErrStaleRecord
	}
	return nil
}

// Zone is a signed name database. The root zone (empty apex) stands in
// for the global DNS plus its DNSSEC chain; per-AS zones (apex "asN")
// are authoritative only for names under their apex, and delegate to
// each other through signed referrals (see interdomain.go).
type Zone struct {
	signer *crypto.Signer
	apex   string

	mu      sync.RWMutex
	records map[string]*SignedRecord
}

// NewZone creates a root zone (empty apex) with a fresh signing key.
func NewZone() (*Zone, error) { return NewZoneFor("") }

// NewZoneFor creates a zone authoritative for names under apex (or a
// root zone when apex is empty), with a fresh signing key.
func NewZoneFor(apex string) (*Zone, error) {
	s, err := crypto.GenerateSigner()
	if err != nil {
		return nil, err
	}
	return &Zone{signer: s, apex: apex, records: make(map[string]*SignedRecord)}, nil
}

// PublicKey returns the zone verification key clients pin.
func (z *Zone) PublicKey() []byte { return z.signer.PublicKey() }

// Apex returns the zone's apex name ("" for the root zone).
func (z *Zone) Apex() string { return z.apex }

// Authoritative reports whether the zone is authoritative for name: the
// root zone answers for everything, an apex zone only for the apex
// itself and names ending in ".apex".
func (z *Zone) Authoritative(name string) bool {
	if z.apex == "" {
		return true
	}
	if name == z.apex {
		return true
	}
	suffix := "." + z.apex
	return len(name) > len(suffix) && name[len(name)-len(suffix):] == suffix
}

// Register signs and stores a record for name. Re-registering a name
// replaces the record — the paper's rotation path when a published
// EphID must change. Apex zones refuse names outside their authority:
// a signature over a foreign name would let one AS speak for another.
func (z *Zone) Register(name string, c *cert.Cert, notAfter int64) (*SignedRecord, error) {
	if len(name) > 255 {
		return nil, ErrNameTooLong
	}
	if !z.Authoritative(name) {
		return nil, fmt.Errorf("%w: %q not under %q", ErrNotAuthoritative, name, z.apex)
	}
	r := &SignedRecord{Name: name, Cert: *c, NotAfter: notAfter}
	copy(r.Sig[:], z.signer.Sign(recordSigLabel, r.appendTBS(nil)))
	z.mu.Lock()
	defer z.mu.Unlock()
	z.records[name] = r
	return r, nil
}

// Lookup returns the record for name.
func (z *Zone) Lookup(name string) (*SignedRecord, error) {
	z.mu.RLock()
	defer z.mu.RUnlock()
	r, ok := z.records[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNXDomain, name)
	}
	return r, nil
}

// Wire messages carried inside APNA sessions.
const (
	msgQuery    = 0x01
	msgResponse = 0x02

	// Response status codes. The status discriminates the body:
	// StatusOK carries a SignedRecord, StatusNXDomain a SignedDenial
	// (authenticated negative response), StatusReferral a
	// SignedReferral delegating to another AS's zone.
	StatusOK       = 0
	StatusNXDomain = 1
	StatusReferral = 2
)

// EncodeQuery builds a query message for name.
func EncodeQuery(name string) ([]byte, error) {
	if len(name) > 255 {
		return nil, ErrNameTooLong
	}
	buf := make([]byte, 0, 3+len(name))
	buf = append(buf, msgQuery)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(name)))
	return append(buf, name...), nil
}

// DecodeQuery parses a query message. A name longer than EncodeQuery
// takes is ErrNameTooLong: the length field has room for one, but no
// resolver sends it.
func DecodeQuery(data []byte) (string, error) {
	if len(data) < 3 || data[0] != msgQuery {
		return "", ErrBadMessage
	}
	n := int(binary.BigEndian.Uint16(data[1:]))
	if len(data) != 3+n {
		return "", ErrBadMessage
	}
	if n > 255 {
		return "", ErrNameTooLong
	}
	return string(data[3:]), nil
}

// Response is a fully parsed response message. Exactly one of Record,
// Denial and Referral is set, matching Status.
type Response struct {
	Status   uint8
	Record   *SignedRecord
	Denial   *SignedDenial
	Referral *SignedReferral
}

// ParseResponse parses a response message and its status-typed body.
// A denial must carry its signed body: a bare NXDOMAIN is malformed.
func ParseResponse(data []byte) (*Response, error) {
	if len(data) < 4 || data[0] != msgResponse {
		return nil, ErrBadMessage
	}
	status := data[1]
	n := int(binary.BigEndian.Uint16(data[2:]))
	if len(data) != 4+n {
		return nil, ErrBadMessage
	}
	body := data[4:]
	r := &Response{Status: status}
	var err error
	switch status {
	case StatusOK:
		r.Record, err = DecodeRecord(body)
	case StatusNXDomain:
		r.Denial, err = DecodeDenial(body)
	case StatusReferral:
		r.Referral, err = DecodeReferral(body)
	default:
		err = fmt.Errorf("%w: unknown status %d", ErrBadMessage, status)
	}
	if err != nil {
		return nil, err
	}
	return r, nil
}

// encodeBody wraps a status-typed body in the response framing.
func encodeBody(status uint8, body []byte) []byte {
	buf := make([]byte, 0, 4+len(body))
	buf = append(buf, msgResponse, status)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(body)))
	return append(buf, body...)
}

// Service mounts a resolver onto a host stack: incoming session
// messages are parsed as queries and answered from the AS's local zone
// when it is authoritative, delegated via signed referral when another
// AS's zone is, and answered from the root zone otherwise. Misses are
// answered with a signed denial, never a bare status — clients must be
// able to authenticate "no" as strongly as "yes" (Section VII-A).
type Service struct {
	root      *Zone
	local     *Zone
	referrals map[string]*SignedReferral
	now       func() int64
	denialTTL int64
}

// DefaultDenialTTL is how long signed denials stay valid (and hence how
// long clients may negatively cache them).
const DefaultDenialTTL int64 = 60

// NewService creates a resolver backed by the root zone.
func NewService(root *Zone) *Service {
	return &Service{root: root, referrals: make(map[string]*SignedReferral), denialTTL: DefaultDenialTTL}
}

// SetLocal installs the AS's authoritative zone: queries for names
// under its apex are answered (or denied) locally.
func (s *Service) SetLocal(z *Zone) { s.local = z }

// SetNow supplies the clock used to stamp denial expiries (the
// simulator's virtual clock; denials never expire without one).
func (s *Service) SetNow(fn func() int64) { s.now = fn }

// AddReferral installs a delegation: queries for names under the
// referral's apex are answered with it instead of a lookup.
func (s *Service) AddReferral(r *SignedReferral) { s.referrals[r.Apex] = r }

// referralFor returns the delegation covering name, if any: the apex is
// the last dot-separated label.
func (s *Service) referralFor(name string) *SignedReferral {
	for i := len(name) - 1; i >= 0; i-- {
		if name[i] == '.' {
			return s.referrals[name[i+1:]]
		}
	}
	return s.referrals[name]
}

// answer resolves one query to a wire response.
func (s *Service) answer(name string) []byte {
	zone := s.root
	if s.local != nil && s.local.Authoritative(name) {
		zone = s.local
	} else if ref := s.referralFor(name); ref != nil {
		return encodeBody(StatusReferral, ref.Encode())
	}
	rec, err := zone.Lookup(name)
	if err != nil {
		notAfter := int64(1<<62 - 1)
		if s.now != nil {
			notAfter = s.now() + s.denialTTL
		}
		return encodeBody(StatusNXDomain, zone.Deny(name, notAfter).Encode())
	}
	return encodeBody(StatusOK, rec.Encode())
}

// Mount installs the query handler on the service's host stack.
func (s *Service) Mount(h *host.Host) {
	h.OnMessage(func(m host.Message) {
		name, err := DecodeQuery(m.Payload)
		if err != nil {
			return
		}
		_ = h.Respond(m, s.answer(name))
	})
}
