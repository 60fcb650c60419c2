// Inter-domain resolution: per-AS zones delegate to each other through
// signed referrals, and misses are answered with signed denials, so a
// resolving host can authenticate every step of a cross-AS lookup —
// the referral chain stands in for the DNSSEC delegation chain the
// paper assumes (Section VII-A), scoped to the AS-level simulation.
package dns

import (
	"encoding/binary"
	"fmt"

	"apna/internal/cert"
	"apna/internal/crypto"
)

const (
	denialSigLabel   = "apna/v1/dns/denial"
	referralSigLabel = "apna/v1/dns/referral"
)

// SignedDenial is an authenticated negative response: the zone asserts
// name does not exist, valid until NotAfter. Without it, an on-path
// attacker could suppress a name by forging bare NXDOMAINs.
type SignedDenial struct {
	Name     string
	NotAfter int64
	Sig      [crypto.SignatureSize]byte
}

func (d *SignedDenial) appendTBS(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(d.Name)))
	dst = append(dst, d.Name...)
	return binary.BigEndian.AppendUint64(dst, uint64(d.NotAfter))
}

// Encode serializes the signed denial.
func (d *SignedDenial) Encode() []byte {
	out := d.appendTBS(nil)
	return append(out, d.Sig[:]...)
}

// DecodeDenial parses a signed denial.
func DecodeDenial(data []byte) (*SignedDenial, error) {
	if len(data) < 2 {
		return nil, ErrBadMessage
	}
	n := int(binary.BigEndian.Uint16(data))
	want := 2 + n + 8 + crypto.SignatureSize
	if len(data) != want {
		return nil, fmt.Errorf("%w: denial length %d, want %d", ErrBadMessage, len(data), want)
	}
	var d SignedDenial
	d.Name = string(data[2 : 2+n])
	off := 2 + n
	d.NotAfter = int64(binary.BigEndian.Uint64(data[off:]))
	copy(d.Sig[:], data[off+8:])
	return &d, nil
}

// Verify checks the zone signature and freshness of a denial.
func (d *SignedDenial) Verify(zonePub []byte, nowUnix int64) error {
	if !crypto.Verify(zonePub, denialSigLabel, d.appendTBS(nil), d.Sig[:]) {
		return ErrBadDenial
	}
	if d.NotAfter < nowUnix {
		return ErrStaleRecord
	}
	return nil
}

// Deny signs a negative response for name, valid until notAfter.
func (z *Zone) Deny(name string, notAfter int64) *SignedDenial {
	d := &SignedDenial{Name: name, NotAfter: notAfter}
	copy(d.Sig[:], z.signer.Sign(denialSigLabel, d.appendTBS(nil)))
	return d
}

// SignedReferral delegates names under Apex to another AS's resolver:
// DNSCert is the remote DNS service's EphID certificate (what the
// client dials next) and ZoneKey the remote zone's verification key
// (what the client verifies the final answer against). The referring
// zone's signature makes the local zone the trust anchor for the hop,
// exactly like a signed DS record.
type SignedReferral struct {
	Apex     string
	DNSCert  cert.Cert
	ZoneKey  []byte
	NotAfter int64
	Sig      [crypto.SignatureSize]byte
}

func (r *SignedReferral) appendTBS(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(r.Apex)))
	dst = append(dst, r.Apex...)
	raw, _ := r.DNSCert.MarshalBinary()
	dst = append(dst, raw...)
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(r.ZoneKey)))
	dst = append(dst, r.ZoneKey...)
	return binary.BigEndian.AppendUint64(dst, uint64(r.NotAfter))
}

// Encode serializes the signed referral.
func (r *SignedReferral) Encode() []byte {
	out := r.appendTBS(nil)
	return append(out, r.Sig[:]...)
}

// DecodeReferral parses a signed referral.
func DecodeReferral(data []byte) (*SignedReferral, error) {
	if len(data) < 2 {
		return nil, ErrBadMessage
	}
	n := int(binary.BigEndian.Uint16(data))
	off := 2 + n
	if len(data) < off {
		return nil, ErrBadMessage
	}
	var r SignedReferral
	r.Apex = string(data[2:off])
	c, err := r.DNSCert.Decode(data[off:])
	if err != nil {
		return nil, err
	}
	off += c
	if len(data) < off+2 {
		return nil, ErrBadMessage
	}
	k := int(binary.BigEndian.Uint16(data[off:]))
	off += 2
	want := off + k + 8 + crypto.SignatureSize
	if len(data) != want {
		return nil, fmt.Errorf("%w: referral length %d, want %d", ErrBadMessage, len(data), want)
	}
	r.ZoneKey = append([]byte(nil), data[off:off+k]...)
	off += k
	r.NotAfter = int64(binary.BigEndian.Uint64(data[off:]))
	copy(r.Sig[:], data[off+8:])
	return &r, nil
}

// Verify checks the referring zone's signature and freshness.
func (r *SignedReferral) Verify(zonePub []byte, nowUnix int64) error {
	if !crypto.Verify(zonePub, referralSigLabel, r.appendTBS(nil), r.Sig[:]) {
		return ErrBadReferral
	}
	if r.NotAfter < nowUnix {
		return ErrStaleRecord
	}
	return nil
}

// Refer signs a delegation of apex to the resolver behind dnsCert,
// whose answers verify under zoneKey.
func (z *Zone) Refer(apex string, dnsCert *cert.Cert, zoneKey []byte, notAfter int64) (*SignedReferral, error) {
	if len(apex) > 255 {
		return nil, ErrNameTooLong
	}
	r := &SignedReferral{Apex: apex, DNSCert: *dnsCert, ZoneKey: append([]byte(nil), zoneKey...), NotAfter: notAfter}
	copy(r.Sig[:], z.signer.Sign(referralSigLabel, r.appendTBS(nil)))
	return r, nil
}

// Cache is a host-side verified resolution cache. Entries are only
// inserted after signature verification, so a hit never re-verifies;
// denials populate the negative side for the denial's validity window.
// It holds at most maxCacheEntries entries: a read drops the expired
// entry it finds, an insert at the cap first drops every expired
// entry, and an insert that still finds the cache full is not cached
// (the lookup that verified it answers all the same). It is driven
// from simulator callbacks on one goroutine, like the host stacks
// themselves, so it is unsynchronized.
type Cache struct {
	records map[string]cachedRecord
	denials map[string]int64
}

// maxCacheEntries bounds a cache's records and denials together.
const maxCacheEntries = 1024

type cachedRecord struct {
	cert     cert.Cert
	notAfter int64
}

// NewCache creates an empty cache.
func NewCache() *Cache {
	return &Cache{records: make(map[string]cachedRecord), denials: make(map[string]int64)}
}

// Record returns the cached certificate for name if present and fresh.
func (c *Cache) Record(name string, nowUnix int64) (*cert.Cert, bool) {
	e, ok := c.records[name]
	if !ok {
		return nil, false
	}
	if e.notAfter < nowUnix {
		delete(c.records, name)
		return nil, false
	}
	crt := e.cert
	return &crt, true
}

// PutRecord stores a verified record's certificate until notAfter, and
// clears any negative entry for the name.
func (c *Cache) PutRecord(name string, crt *cert.Cert, notAfter, nowUnix int64) {
	delete(c.denials, name)
	if _, ok := c.records[name]; ok || c.room(nowUnix) {
		c.records[name] = cachedRecord{cert: *crt, notAfter: notAfter}
	}
}

// Denied reports whether a fresh verified denial for name is cached.
func (c *Cache) Denied(name string, nowUnix int64) bool {
	until, ok := c.denials[name]
	if ok && until < nowUnix {
		delete(c.denials, name)
		return false
	}
	return ok
}

// PutDenial stores a verified denial for name until notAfter.
func (c *Cache) PutDenial(name string, notAfter, nowUnix int64) {
	if _, ok := c.denials[name]; ok || c.room(nowUnix) {
		c.denials[name] = notAfter
	}
}

// room reports whether a new name fits, dropping every expired entry
// first when the cache is at its cap.
func (c *Cache) room(nowUnix int64) bool {
	if len(c.records)+len(c.denials) < maxCacheEntries {
		return true
	}
	for name, e := range c.records {
		if e.notAfter < nowUnix {
			delete(c.records, name)
		}
	}
	for name, until := range c.denials {
		if until < nowUnix {
			delete(c.denials, name)
		}
	}
	return len(c.records)+len(c.denials) < maxCacheEntries
}
