package rpki

import (
	"bytes"
	"errors"
	"testing"

	"apna/internal/crypto"
)

func testAuthority(t *testing.T) *Authority {
	t.Helper()
	a, err := NewAuthority()
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func testKeys(t *testing.T) ([]byte, []byte) {
	t.Helper()
	s, err := crypto.GenerateSigner()
	if err != nil {
		t.Fatal(err)
	}
	kp, err := crypto.GenerateKeyPair()
	if err != nil {
		t.Fatal(err)
	}
	return s.PublicKey(), kp.PublicKey()
}

func TestCertifyAndLookup(t *testing.T) {
	auth := testAuthority(t)
	sigPub, dhPub := testKeys(t)
	rec, err := auth.Certify(64512, sigPub, dhPub, 1000)
	if err != nil {
		t.Fatal(err)
	}

	store := NewTrustStore(auth.PublicKey())
	if err := store.Add(rec); err != nil {
		t.Fatal(err)
	}
	got, err := store.Lookup(64512, 500)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.SigPub[:], sigPub) || !bytes.Equal(got.DHPub[:], dhPub) {
		t.Error("lookup returned wrong keys")
	}
	if k, err := store.SigKey(64512, 500); err != nil || !bytes.Equal(k, sigPub) {
		t.Errorf("SigKey: %x, %v", k, err)
	}
}

func TestTrustStoreRejectsForgedRecord(t *testing.T) {
	auth := testAuthority(t)
	rogue := testAuthority(t)
	sigPub, dhPub := testKeys(t)
	rec, err := rogue.Certify(64512, sigPub, dhPub, 1000)
	if err != nil {
		t.Fatal(err)
	}
	store := NewTrustStore(auth.PublicKey())
	if err := store.Add(rec); !errors.Is(err, ErrBadSig) {
		t.Errorf("Add forged record: %v", err)
	}
	if _, err := store.Lookup(64512, 0); !errors.Is(err, ErrUnknownAS) {
		t.Errorf("forged record cached: %v", err)
	}
}

func TestTrustStoreRejectsTamperedRecord(t *testing.T) {
	auth := testAuthority(t)
	sigPub, dhPub := testKeys(t)
	rec, _ := auth.Certify(1, sigPub, dhPub, 1000)
	rec.AID = 2 // re-point the record at another AS
	store := NewTrustStore(auth.PublicKey())
	if err := store.Add(rec); !errors.Is(err, ErrBadSig) {
		t.Errorf("tampered record accepted: %v", err)
	}
}

func TestLookupStaleRecord(t *testing.T) {
	auth := testAuthority(t)
	sigPub, dhPub := testKeys(t)
	rec, _ := auth.Certify(7, sigPub, dhPub, 100)
	store := NewTrustStore(auth.PublicKey())
	if err := store.Add(rec); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Lookup(7, 101); !errors.Is(err, ErrRecordStale) {
		t.Errorf("stale lookup: %v", err)
	}
	if _, err := store.Lookup(7, 100); err != nil {
		t.Errorf("boundary lookup: %v", err)
	}
	if _, err := store.SigKey(99, 0); !errors.Is(err, ErrUnknownAS) {
		t.Errorf("unknown SigKey: %v", err)
	}
}

func TestCertifyRejectsBadKeySizes(t *testing.T) {
	auth := testAuthority(t)
	sigPub, dhPub := testKeys(t)
	if _, err := auth.Certify(1, sigPub[:31], dhPub, 0); err == nil {
		t.Error("short sig key accepted")
	}
	if _, err := auth.Certify(1, sigPub, dhPub[:31], 0); err == nil {
		t.Error("short dh key accepted")
	}
}
