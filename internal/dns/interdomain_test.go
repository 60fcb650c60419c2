package dns

import (
	"errors"
	"fmt"
	"testing"

	"apna/internal/cert"
)

func testCert(t *testing.T, b byte) *cert.Cert {
	t.Helper()
	var c cert.Cert
	raw, err := c.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	raw[0] = b
	if err := c.UnmarshalBinary(raw); err != nil {
		// A zero cert round-trips in this codebase; if a future codec
		// rejects it, fall back to the zero value.
		c = cert.Cert{}
	}
	return &c
}

func TestZoneApexAuthority(t *testing.T) {
	z, err := NewZoneFor("as100")
	if err != nil {
		t.Fatal(err)
	}
	if z.Apex() != "as100" {
		t.Fatalf("apex = %q", z.Apex())
	}
	for name, want := range map[string]bool{
		"as100": true, "svc.as100": true, "a.b.as100": true,
		"as1000": false, "svc.as101": false, "xas100": false, "": false,
	} {
		if got := z.Authoritative(name); got != want {
			t.Fatalf("Authoritative(%q) = %v, want %v", name, got, want)
		}
	}
	if _, err := z.Register("svc.as101", testCert(t, 1), 1<<40); !errors.Is(err, ErrNotAuthoritative) {
		t.Fatalf("foreign register: err = %v", err)
	}
	if _, err := z.Register("svc.as100", testCert(t, 1), 1<<40); err != nil {
		t.Fatalf("local register: %v", err)
	}

	root, err := NewZone()
	if err != nil {
		t.Fatal(err)
	}
	if !root.Authoritative("anything.at.all") {
		t.Fatal("root zone must be authoritative for everything")
	}
}

func TestSignedDenialRoundTrip(t *testing.T) {
	z, err := NewZoneFor("as7")
	if err != nil {
		t.Fatal(err)
	}
	d := z.Deny("gone.as7", 5000)
	got, err := DecodeDenial(d.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != "gone.as7" || got.NotAfter != 5000 {
		t.Fatalf("round trip: %+v", got)
	}
	if err := got.Verify(z.PublicKey(), 4000); err != nil {
		t.Fatalf("verify: %v", err)
	}
	if err := got.Verify(z.PublicKey(), 6000); !errors.Is(err, ErrStaleRecord) {
		t.Fatalf("stale denial: err = %v", err)
	}
	other, _ := NewZone()
	if err := got.Verify(other.PublicKey(), 4000); !errors.Is(err, ErrBadDenial) {
		t.Fatalf("wrong key: err = %v", err)
	}
	// Tampering breaks the signature.
	got.Name = "other.as7"
	if err := got.Verify(z.PublicKey(), 4000); !errors.Is(err, ErrBadDenial) {
		t.Fatalf("tampered denial: err = %v", err)
	}
}

func TestSignedReferralRoundTrip(t *testing.T) {
	local, err := NewZoneFor("as1")
	if err != nil {
		t.Fatal(err)
	}
	remote, err := NewZoneFor("as2")
	if err != nil {
		t.Fatal(err)
	}
	crt := testCert(t, 9)
	ref, err := local.Refer("as2", crt, remote.PublicKey(), 9000)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeReferral(ref.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Apex != "as2" || got.NotAfter != 9000 {
		t.Fatalf("round trip: %+v", got)
	}
	if string(got.ZoneKey) != string(remote.PublicKey()) {
		t.Fatal("zone key lost in round trip")
	}
	if err := got.Verify(local.PublicKey(), 8000); err != nil {
		t.Fatalf("verify: %v", err)
	}
	if err := got.Verify(remote.PublicKey(), 8000); !errors.Is(err, ErrBadReferral) {
		t.Fatalf("wrong anchor: err = %v", err)
	}
	// A swapped zone key must not verify: that is the attack the
	// signature exists to stop.
	got.ZoneKey = local.PublicKey()
	if err := got.Verify(local.PublicKey(), 8000); !errors.Is(err, ErrBadReferral) {
		t.Fatalf("tampered referral: err = %v", err)
	}
}

func TestServiceAnswerPaths(t *testing.T) {
	root, err := NewZone()
	if err != nil {
		t.Fatal(err)
	}
	local, err := NewZoneFor("as1")
	if err != nil {
		t.Fatal(err)
	}
	remote, err := NewZoneFor("as2")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := local.Register("svc.as1", testCert(t, 1), 1<<40); err != nil {
		t.Fatal(err)
	}
	if _, err := root.Register("global-name", testCert(t, 2), 1<<40); err != nil {
		t.Fatal(err)
	}
	ref, err := local.Refer("as2", testCert(t, 3), remote.PublicKey(), 1<<40)
	if err != nil {
		t.Fatal(err)
	}

	svc := NewService(root)
	svc.SetLocal(local)
	svc.AddReferral(ref)
	now := int64(1000)
	svc.SetNow(func() int64 { return now })

	parse := func(name string) *Response {
		t.Helper()
		r, err := ParseResponse(svc.answer(name))
		if err != nil {
			t.Fatalf("answer(%q): %v", name, err)
		}
		return r
	}

	// Authoritative hit.
	if r := parse("svc.as1"); r.Status != StatusOK || r.Record == nil || r.Record.Name != "svc.as1" {
		t.Fatalf("local hit: %+v", r)
	}
	// Authoritative miss: signed denial from the local zone with a
	// bounded validity window.
	r := parse("nope.as1")
	if r.Status != StatusNXDomain || r.Denial == nil {
		t.Fatalf("local miss: %+v", r)
	}
	if err := r.Denial.Verify(local.PublicKey(), now); err != nil {
		t.Fatalf("denial verify: %v", err)
	}
	if r.Denial.NotAfter != now+DefaultDenialTTL {
		t.Fatalf("denial NotAfter = %d, want %d", r.Denial.NotAfter, now+DefaultDenialTTL)
	}
	// Delegated apex: referral, verified against the local anchor.
	r = parse("anything.as2")
	if r.Status != StatusReferral || r.Referral == nil || r.Referral.Apex != "as2" {
		t.Fatalf("referral: %+v", r)
	}
	if err := r.Referral.Verify(local.PublicKey(), now); err != nil {
		t.Fatalf("referral verify: %v", err)
	}
	// Root fallback hit and miss (denial signed by the root zone).
	if r := parse("global-name"); r.Status != StatusOK || r.Record == nil {
		t.Fatalf("root hit: %+v", r)
	}
	r = parse("missing-global")
	if r.Status != StatusNXDomain || r.Denial == nil {
		t.Fatalf("root miss: %+v", r)
	}
	if err := r.Denial.Verify(root.PublicKey(), now); err != nil {
		t.Fatalf("root denial verify: %v", err)
	}
}

func TestCache(t *testing.T) {
	c := NewCache()
	crt := testCert(t, 4)
	if _, ok := c.Record("x", 0); ok {
		t.Fatal("empty cache hit")
	}
	c.PutRecord("x", crt, 100, 0)
	if got, ok := c.Record("x", 50); !ok || got == nil {
		t.Fatal("fresh record missed")
	}
	c.PutDenial("y", 200, 0)
	if !c.Denied("y", 150) {
		t.Fatal("fresh denial missed")
	}
	// A record insert clears the negative entry: the name exists now.
	c.PutDenial("x", 300, 0)
	c.PutRecord("x", crt, 400, 0)
	if c.Denied("x", 250) {
		t.Fatal("record insert left stale denial")
	}
	if r, d := len(c.records), len(c.denials); r != 1 || d != 1 {
		t.Fatalf("%d records, %d denials", r, d)
	}
	// A read past an entry's expiry both misses and forgets it.
	if _, ok := c.Record("x", 401); ok {
		t.Fatal("expired record served")
	}
	if c.Denied("y", 201) {
		t.Fatal("expired denial served")
	}
	if r, d := len(c.records), len(c.denials); r != 0 || d != 0 {
		t.Fatalf("%d records, %d denials after reading both expired entries, want 0, 0", r, d)
	}
}

// TestCacheBounded: a host that resolves ever more names holds at most
// maxCacheEntries of them. A full cache of fresh entries turns new ones
// away and keeps answering the old; once entries expire, an insert
// makes room by dropping them.
func TestCacheBounded(t *testing.T) {
	c := NewCache()
	crt := testCert(t, 4)
	for i := 0; i < maxCacheEntries+10; i++ {
		name := fmt.Sprintf("n%d.example", i)
		if i%2 == 0 {
			c.PutRecord(name, crt, 100, 0)
		} else {
			c.PutDenial(name, 100, 0)
		}
	}
	if r, d := len(c.records), len(c.denials); r+d != maxCacheEntries {
		t.Fatalf("%d records, %d denials; want %d entries in all", r, d, maxCacheEntries)
	}
	if _, ok := c.Record("n0.example", 50); !ok {
		t.Error("full cache stopped answering a cached record")
	}
	if !c.Denied("n1.example", 50) {
		t.Error("full cache stopped answering a cached denial")
	}
	if _, ok := c.Record(fmt.Sprintf("n%d.example", maxCacheEntries+8), 50); ok {
		t.Error("record past the cap was cached")
	}
	// A name already cached is refreshed in place even at the cap.
	c.PutRecord("n0.example", crt, 300, 50)
	if _, ok := c.Record("n0.example", 200); !ok {
		t.Error("refresh at the cap was dropped")
	}

	// Everything but n0 has expired by 150: the next insert sweeps.
	c.PutRecord("late.example", crt, 400, 150)
	if r, d := len(c.records), len(c.denials); r != 2 || d != 0 {
		t.Fatalf("%d records, %d denials after the sweep, want 2, 0", r, d)
	}
	if _, ok := c.Record("late.example", 150); !ok {
		t.Error("insert after the sweep was not cached")
	}
}

func TestParseResponseRejectsGarbage(t *testing.T) {
	for _, data := range [][]byte{
		nil,
		{msgResponse},
		{msgQuery, 0, 0, 0},
		{msgResponse, 99, 0, 0},             // unknown status
		{msgResponse, StatusOK, 0, 5},       // length lies
		{msgResponse, StatusOK, 0, 1, 7},    // truncated record
		{msgResponse, StatusNXDomain, 0, 0}, // denial without its signed body
	} {
		if _, err := ParseResponse(data); !errors.Is(err, ErrBadMessage) {
			t.Fatalf("ParseResponse(%v) = %v, want ErrBadMessage", data, err)
		}
	}
}
