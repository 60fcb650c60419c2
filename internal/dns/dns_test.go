package dns

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"apna/internal/cert"
	"apna/internal/crypto"
	"apna/internal/ephid"
)

func sampleCert(t testing.TB) (*cert.Cert, *crypto.Signer) {
	t.Helper()
	signer, err := crypto.GenerateSigner()
	if err != nil {
		t.Fatal(err)
	}
	c := &cert.Cert{Kind: ephid.KindReceiveOnly, ExpTime: 5000, AID: 64512}
	c.EphID[0] = 0xAB
	c.Sign(signer)
	return c, signer
}

func TestZoneRegisterLookupVerify(t *testing.T) {
	z, err := NewZone()
	if err != nil {
		t.Fatal(err)
	}
	c, _ := sampleCert(t)
	rec, err := z.Register("shop.example", c, 5000)
	if err != nil {
		t.Fatal(err)
	}
	got, err := z.Lookup("shop.example")
	if err != nil {
		t.Fatal(err)
	}
	if got != rec {
		t.Error("lookup returned different record")
	}
	if err := got.Verify(z.PublicKey(), 1000); err != nil {
		t.Errorf("verify: %v", err)
	}
	if err := got.Verify(z.PublicKey(), 5001); !errors.Is(err, ErrStaleRecord) {
		t.Errorf("stale: %v", err)
	}
	other, _ := NewZone()
	if err := got.Verify(other.PublicKey(), 1000); !errors.Is(err, ErrBadRecord) {
		t.Errorf("wrong zone key: %v", err)
	}
}

func TestZoneLookupUnknown(t *testing.T) {
	z, _ := NewZone()
	if _, err := z.Lookup("nope"); !errors.Is(err, ErrNXDomain) {
		t.Errorf("err = %v", err)
	}
}

func TestZoneReRegisterReplaces(t *testing.T) {
	z, _ := NewZone()
	c1, _ := sampleCert(t)
	c2, _ := sampleCert(t)
	c2.EphID[0] = 0xCD
	if _, err := z.Register("x", c1, 100); err != nil {
		t.Fatal(err)
	}
	if _, err := z.Register("x", c2, 100); err != nil {
		t.Fatal(err)
	}
	got, _ := z.Lookup("x")
	if got.Cert.EphID != c2.EphID {
		t.Error("re-registration did not replace record")
	}
}

func TestZonePoisonFailsVerification(t *testing.T) {
	z, _ := NewZone()
	c, _ := sampleCert(t)
	rogue, _ := sampleCert(t)
	if _, err := z.Register("bank.example", c, 1<<62-1); err != nil {
		t.Fatal(err)
	}
	rec, err := z.Lookup("bank.example")
	if err != nil {
		t.Fatal(err)
	}
	rec.Cert = *rogue // a malicious resolver rewrites the stored record
	if err := rec.Verify(z.PublicKey(), 0); !errors.Is(err, ErrBadRecord) {
		t.Errorf("poisoned record verified: %v", err)
	}
}

func TestZoneNameTooLong(t *testing.T) {
	z, _ := NewZone()
	c, _ := sampleCert(t)
	if _, err := z.Register(strings.Repeat("a", 256), c, 0); !errors.Is(err, ErrNameTooLong) {
		t.Errorf("err = %v", err)
	}
	if _, err := EncodeQuery(strings.Repeat("a", 256)); !errors.Is(err, ErrNameTooLong) {
		t.Errorf("query: %v", err)
	}
}

func TestRecordCodecRoundTrip(t *testing.T) {
	z, _ := NewZone()
	c, _ := sampleCert(t)
	rec, _ := z.Register("roundtrip.example", c, 9999)
	got, err := DecodeRecord(rec.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != rec.Name || got.NotAfter != rec.NotAfter || got.Sig != rec.Sig || !got.Cert.Equal(&rec.Cert) {
		t.Error("roundtrip mismatch")
	}
	if err := got.Verify(z.PublicKey(), 0); err != nil {
		t.Errorf("roundtripped record: %v", err)
	}
	if _, err := DecodeRecord([]byte{0}); !errors.Is(err, ErrBadMessage) {
		t.Errorf("short record: %v", err)
	}
	if _, err := DecodeRecord(rec.Encode()[:10]); !errors.Is(err, ErrBadMessage) {
		t.Errorf("truncated record: %v", err)
	}
}

func TestQueryCodec(t *testing.T) {
	q, err := EncodeQuery("a.example")
	if err != nil {
		t.Fatal(err)
	}
	name, err := DecodeQuery(q)
	if err != nil || name != "a.example" {
		t.Errorf("DecodeQuery = %q, %v", name, err)
	}
	if _, err := DecodeQuery([]byte{9, 9, 9, 9}); !errors.Is(err, ErrBadMessage) {
		t.Errorf("bad type: %v", err)
	}
	if _, err := DecodeQuery(q[:2]); !errors.Is(err, ErrBadMessage) {
		t.Errorf("short: %v", err)
	}
	if _, err := DecodeQuery(append(q, 0)); !errors.Is(err, ErrBadMessage) {
		t.Errorf("long: %v", err)
	}
}

func TestResponseCodec(t *testing.T) {
	z, _ := NewZone()
	c, _ := sampleCert(t)
	rec, _ := z.Register("r.example", c, 100)

	resp := encodeBody(StatusOK, rec.Encode())
	r, err := ParseResponse(resp)
	if err != nil || r.Status != StatusOK || r.Record == nil {
		t.Fatalf("decode: %+v, %v", r, err)
	}
	if !bytes.Equal(r.Record.Encode(), rec.Encode()) {
		t.Error("record mismatch")
	}

	if _, err := ParseResponse([]byte{1, 2}); !errors.Is(err, ErrBadMessage) {
		t.Errorf("short: %v", err)
	}
	if _, err := ParseResponse(append(resp, 0)); !errors.Is(err, ErrBadMessage) {
		t.Errorf("long: %v", err)
	}
}
