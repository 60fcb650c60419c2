package cert

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"apna/internal/crypto"
	"apna/internal/ephid"
)

func sampleCert(t *testing.T) (*Cert, *crypto.Signer) {
	t.Helper()
	signer, err := crypto.GenerateSigner()
	if err != nil {
		t.Fatal(err)
	}
	c := &Cert{
		Kind:    ephid.KindData,
		ExpTime: 2_000_000_000,
		AID:     64512,
	}
	copy(c.EphID[:], bytes.Repeat([]byte{1}, ephid.Size))
	copy(c.AAEphID[:], bytes.Repeat([]byte{2}, ephid.Size))
	copy(c.DHPub[:], bytes.Repeat([]byte{3}, crypto.X25519PublicKeySize))
	copy(c.SigPub[:], bytes.Repeat([]byte{4}, crypto.SigningPublicKeySize))
	c.Sign(signer)
	return c, signer
}

func TestCertSignVerify(t *testing.T) {
	c, signer := sampleCert(t)
	if err := c.Verify(signer.PublicKey(), 1_000_000_000); err != nil {
		t.Fatalf("Verify: %v", err)
	}
}

func TestCertVerifyWrongKey(t *testing.T) {
	c, _ := sampleCert(t)
	other, _ := crypto.GenerateSigner()
	if err := c.Verify(other.PublicKey(), 0); !errors.Is(err, ErrBadSignature) {
		t.Errorf("err = %v, want ErrBadSignature", err)
	}
}

func TestCertVerifyExpired(t *testing.T) {
	c, signer := sampleCert(t)
	if err := c.Verify(signer.PublicKey(), int64(c.ExpTime)+1); !errors.Is(err, ephid.ErrExpired) {
		t.Errorf("err = %v, want ErrExpired", err)
	}
	if c.Expired(int64(c.ExpTime)) {
		t.Error("Expired at exactly ExpTime")
	}
	if !c.Expired(int64(c.ExpTime) + 1) {
		t.Error("not Expired after ExpTime")
	}
}

func TestCertTamperedFieldsRejected(t *testing.T) {
	c, signer := sampleCert(t)
	mutations := []func(*Cert){
		func(c *Cert) { c.Kind = ephid.KindReceiveOnly },
		func(c *Cert) { c.EphID[0] ^= 1 },
		func(c *Cert) { c.ExpTime++ },
		func(c *Cert) { c.DHPub[5] ^= 1 },
		func(c *Cert) { c.SigPub[5] ^= 1 },
		func(c *Cert) { c.AID++ },
		func(c *Cert) { c.AAEphID[3] ^= 1 },
	}
	for i, mutate := range mutations {
		m := *c
		mutate(&m)
		if err := m.Verify(signer.PublicKey(), 0); !errors.Is(err, ErrBadSignature) {
			t.Errorf("mutation %d: err = %v, want ErrBadSignature", i, err)
		}
	}
}

func TestCertMarshalRoundTrip(t *testing.T) {
	c, signer := sampleCert(t)
	raw, err := c.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) != MinSize {
		t.Fatalf("marshalled size %d, want %d", len(raw), MinSize)
	}
	var got Cert
	if err := got.UnmarshalBinary(raw); err != nil {
		t.Fatal(err)
	}
	if !got.Equal(c) {
		t.Errorf("roundtrip mismatch:\n got %+v\nwant %+v", got, *c)
	}
	if err := got.Verify(signer.PublicKey(), 0); err != nil {
		t.Errorf("roundtripped cert does not verify: %v", err)
	}
}

// TestCertAppendBinary: AppendBinary writes MarshalBinary's bytes after
// whatever dst holds, a full path fills exactly MaxSize, and with room
// in dst the append allocates nothing.
func TestCertAppendBinary(t *testing.T) {
	c, signer := sampleCert(t)
	certs := make([]*Cert, MaxBatch)
	for i := range certs {
		cc := *c
		certs[i] = &cc
	}
	SignBatch(certs, signer)
	for _, cc := range []*Cert{c, certs[0]} {
		want, err := cc.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		got, err := cc.AppendBinary([]byte("prefix"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got[:6], []byte("prefix")) || !bytes.Equal(got[6:], want) {
			t.Errorf("depth %d: AppendBinary = %x, want prefix then %x", cc.Depth, got, want)
		}
	}
	if raw, _ := certs[0].MarshalBinary(); len(raw) != MaxSize {
		t.Errorf("full path: %d bytes, want MaxSize %d", len(raw), MaxSize)
	}
	buf := make([]byte, 0, MaxSize)
	if allocs := testing.AllocsPerRun(100, func() { buf, _ = certs[0].AppendBinary(buf[:0]) }); allocs != 0 {
		t.Errorf("AppendBinary with room allocates %.0f times", allocs)
	}
}

func TestCertMarshalRoundTripProperty(t *testing.T) {
	f := func(kind uint8, eid, aaeid [16]byte, exp uint32, dh [32]byte, sig [32]byte, aid uint32, sigBytes [64]byte) bool {
		c := Cert{
			Kind:    ephid.Kind(kind),
			EphID:   ephid.EphID(eid),
			ExpTime: exp,
			AID:     ephid.AID(aid),
			AAEphID: ephid.EphID(aaeid),
			DHPub:   dh,
			SigPub:  sig,
		}
		c.Signature = sigBytes
		raw, _ := c.MarshalBinary()
		var got Cert
		if err := got.UnmarshalBinary(raw); err != nil {
			return false
		}
		return got.Equal(&c)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCertUnmarshalErrors(t *testing.T) {
	var c Cert
	short := make([]byte, MinSize-1)
	short[0] = Version
	if err := c.UnmarshalBinary(short); !errors.Is(err, ErrBadLength) {
		t.Errorf("short: %v", err)
	}
	long := make([]byte, MinSize+1)
	long[0] = Version
	if err := c.UnmarshalBinary(long); !errors.Is(err, ErrBadLength) {
		t.Errorf("long: %v", err)
	}
	bad := make([]byte, MinSize)
	bad[0] = 99 // wrong version
	if err := c.UnmarshalBinary(bad); !errors.Is(err, ErrBadVersion) {
		t.Errorf("version: %v", err)
	}
}

func TestCertVerifyCorruptSignature(t *testing.T) {
	c, signer := sampleCert(t)
	c.Signature[10] ^= 0xFF
	if err := c.Verify(signer.PublicKey(), 0); !errors.Is(err, ErrBadSignature) {
		t.Errorf("err = %v", err)
	}
}
