package dns

import (
	"bytes"
	"strings"
	"testing"

	"apna/internal/cert"
)

// FuzzDNSCodec drives the resolver's decoders — a query as the server
// parses it, a response as the client does, and the signed record,
// denial and referral a response carries — with arbitrary bytes. None
// may panic, and every input a decoder accepts must re-encode to the same
// bytes: none of these formats has slack.
func FuzzDNSCodec(f *testing.F) {
	for _, msg := range realMessages(f) {
		f.Add(msg)
	}
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		if name, err := DecodeQuery(data); err == nil {
			if enc, err := EncodeQuery(name); err != nil || !bytes.Equal(enc, data) {
				t.Fatalf("query re-encodes to %x (%v), want %x", enc, err, data)
			}
		}
		if r, err := DecodeRecord(data); err == nil && !bytes.Equal(r.Encode(), data) {
			t.Fatalf("record re-encodes to %x, want %x", r.Encode(), data)
		}
		if d, err := DecodeDenial(data); err == nil && !bytes.Equal(d.Encode(), data) {
			t.Fatalf("denial re-encodes to %x, want %x", d.Encode(), data)
		}
		if r, err := DecodeReferral(data); err == nil && !bytes.Equal(r.Encode(), data) {
			t.Fatalf("referral re-encodes to %x, want %x", r.Encode(), data)
		}
		r, err := ParseResponse(data)
		if err != nil {
			return
		}
		var body []byte
		switch {
		case r.Record != nil:
			body = r.Record.Encode()
		case r.Denial != nil:
			body = r.Denial.Encode()
		case r.Referral != nil:
			body = r.Referral.Encode()
		}
		if enc := encodeBody(r.Status, body); !bytes.Equal(enc, data) {
			t.Fatalf("response re-encodes to %x, want %x", enc, data)
		}
	})
}

// realMessages are what a resolver really sends: the queries for a few
// names, the longest a name may be among them, and its answers to them —
// a record, a denial and a referral, each alone and in its response. One
// record and the referral carry a certificate from a batch of three, so
// its authentication path is two hashes long.
func realMessages(tb testing.TB) [][]byte {
	tb.Helper()
	root, err := NewZone()
	if err != nil {
		tb.Fatal(err)
	}
	local, err := NewZoneFor("as100")
	if err != nil {
		tb.Fatal(err)
	}
	remote, err := NewZoneFor("as200")
	if err != nil {
		tb.Fatal(err)
	}
	c, signer := sampleCert(tb)
	deep := *c
	cert.SignBatch([]*cert.Cert{&deep, {ExpTime: c.ExpTime}, {ExpTime: c.ExpTime}}, signer)
	if deep.Depth == 0 {
		tb.Fatal("batch of three signed at depth 0")
	}
	if _, err := root.Register("shop.example", c, 5000); err != nil {
		tb.Fatal(err)
	}
	if _, err := local.Register("www.as100", &deep, 5000); err != nil {
		tb.Fatal(err)
	}
	ref, err := root.Refer("as200", &deep, remote.PublicKey(), 5000)
	if err != nil {
		tb.Fatal(err)
	}
	s := NewService(root)
	s.SetLocal(local)
	s.AddReferral(ref)
	s.SetNow(func() int64 { return 1000 })
	var msgs [][]byte
	longest := strings.Repeat("n", 251) + ".as9" // as long as a name may be
	for _, name := range []string{"shop.example", "www.as100", "gone.as100", "missing.example", "x.as200", longest} {
		q, err := EncodeQuery(name)
		if err != nil {
			tb.Fatal(err)
		}
		resp := s.answer(name)
		msgs = append(msgs, q, resp, resp[4:])
	}
	return msgs
}
