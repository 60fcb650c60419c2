package registry

import (
	"bytes"
	"errors"
	"testing"

	"apna/internal/crypto"
	"apna/internal/ephid"
	"apna/internal/hostdb"
)

type fixture struct {
	svc    *Service
	db     *hostdb.DB
	sealer *ephid.Sealer
	signer *crypto.Signer
	asDH   *crypto.KeyPair
	now    int64
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	secret, err := crypto.ASSecretFromBytes(bytes.Repeat([]byte{9}, crypto.SymKeySize))
	if err != nil {
		t.Fatal(err)
	}
	sealer, err := ephid.NewSealer(secret)
	if err != nil {
		t.Fatal(err)
	}
	signer, err := crypto.GenerateSigner()
	if err != nil {
		t.Fatal(err)
	}
	asDH, err := crypto.GenerateKeyPair()
	if err != nil {
		t.Fatal(err)
	}
	f := &fixture{db: hostdb.New(), sealer: sealer, signer: signer, asDH: asDH, now: 1_000_000}
	auth := CredentialTable{"alice-token": "alice", "bob-token": "bob"}
	f.svc = New(64512, auth,
		sealer, signer, asDH, f.db, func() int64 { return f.now })

	// Install service certs (normally built by the facade).
	aaID, err := f.svc.AllocServiceIdentity(ephid.KindControl, 86400, ephid.EphID{})
	if err != nil {
		t.Fatal(err)
	}
	msID, err := f.svc.AllocServiceIdentity(ephid.KindControl, 86400, aaID.EphID)
	if err != nil {
		t.Fatal(err)
	}
	dnsID, err := f.svc.AllocServiceIdentity(ephid.KindControl, 86400, aaID.EphID)
	if err != nil {
		t.Fatal(err)
	}
	f.svc.InstallServiceCerts(&msID.Cert, &dnsID.Cert)
	return f
}

func hostKey(t *testing.T) *crypto.KeyPair {
	t.Helper()
	k, err := crypto.GenerateKeyPair()
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func TestBootstrapHappyPath(t *testing.T) {
	f := newFixture(t)
	hk := hostKey(t)
	res, err := f.svc.Bootstrap([]byte("alice-token"), hk.PublicKey())
	if err != nil {
		t.Fatal(err)
	}

	// The signed IDInfo verifies against the AS key.
	if err := res.IDInfo.Verify(f.signer.PublicKey()); err != nil {
		t.Errorf("IDInfo: %v", err)
	}
	// The control EphID decodes to the host's HID with the right
	// lifetime.
	p, err := f.sealer.Open(res.IDInfo.ControlEphID)
	if err != nil {
		t.Fatal(err)
	}
	if p.HID != res.HID {
		t.Errorf("EphID HID %v != assigned %v", p.HID, res.HID)
	}
	if p.ExpTime != uint32(f.now)+controlEphIDLifetime {
		t.Errorf("ExpTime = %d", p.ExpTime)
	}
	// The host can derive the same kHA the AS stored.
	secret, err := hk.SharedSecret(res.ASDHPub[:])
	if err != nil {
		t.Fatal(err)
	}
	hostKeys := crypto.DeriveHostASKeys(secret)
	entry, err := f.db.Get(res.HID)
	if err != nil {
		t.Fatal(err)
	}
	if entry.Keys != hostKeys {
		t.Error("host and AS derived different kHA")
	}
	// Service certs came along.
	if res.MSCert.AID != 64512 || res.DNSCert.AID != 64512 {
		t.Error("service certs missing")
	}
}

func TestBootstrapAuthFailure(t *testing.T) {
	f := newFixture(t)
	hk := hostKey(t)
	if _, err := f.svc.Bootstrap([]byte("wrong"), hk.PublicKey()); !errors.Is(err, ErrAuthFailed) {
		t.Errorf("err = %v", err)
	}
}

func TestBootstrapBadHostKey(t *testing.T) {
	f := newFixture(t)
	if _, err := f.svc.Bootstrap([]byte("alice-token"), make([]byte, 16)); !errors.Is(err, ErrBadHostKey) {
		t.Errorf("err = %v", err)
	}
}

func TestRebootstrapRevokesOldHID(t *testing.T) {
	// Identity-minting defence (Section VI-A): one live HID per
	// subscriber.
	f := newFixture(t)
	hk := hostKey(t)
	first, err := f.svc.Bootstrap([]byte("alice-token"), hk.PublicKey())
	if err != nil {
		t.Fatal(err)
	}
	second, err := f.svc.Bootstrap([]byte("alice-token"), hk.PublicKey())
	if err != nil {
		t.Fatal(err)
	}
	if first.HID == second.HID {
		t.Error("re-bootstrap reused HID")
	}
	if f.db.Valid(first.HID) {
		t.Error("old HID still valid after re-bootstrap")
	}
	if !f.db.Valid(second.HID) {
		t.Error("new HID invalid")
	}
}

func TestDistinctSubscribersDistinctHIDs(t *testing.T) {
	f := newFixture(t)
	a, err := f.svc.Bootstrap([]byte("alice-token"), hostKey(t).PublicKey())
	if err != nil {
		t.Fatal(err)
	}
	b, err := f.svc.Bootstrap([]byte("bob-token"), hostKey(t).PublicKey())
	if err != nil {
		t.Fatal(err)
	}
	if a.HID == b.HID {
		t.Error("two subscribers share a HID")
	}
}

func TestBootstrapWithoutServiceCerts(t *testing.T) {
	secret, _ := crypto.ASSecretFromBytes(bytes.Repeat([]byte{1}, 16))
	sealer, _ := ephid.NewSealer(secret)
	signer, _ := crypto.GenerateSigner()
	asDH, _ := crypto.GenerateKeyPair()
	svc := New(1, CredentialTable{"t": "s"}, sealer, signer, asDH,
		hostdb.New(), func() int64 { return 0 })
	if _, err := svc.Bootstrap([]byte("t"), hostKey(t).PublicKey()); !errors.Is(err, ErrNoService) {
		t.Errorf("err = %v", err)
	}
}

func TestHIDExhaustion(t *testing.T) {
	f := newFixture(t)
	f.svc.nextHID = ^uint32(0) - 1 // one HID left
	if _, err := f.svc.Bootstrap([]byte("alice-token"), hostKey(t).PublicKey()); err != nil {
		t.Fatalf("last HID: %v", err)
	}
	if _, err := f.svc.Bootstrap([]byte("bob-token"), hostKey(t).PublicKey()); !errors.Is(err, ErrExhausted) {
		t.Errorf("err = %v", err)
	}
}

func TestIDInfoTamperRejected(t *testing.T) {
	f := newFixture(t)
	res, err := f.svc.Bootstrap([]byte("alice-token"), hostKey(t).PublicKey())
	if err != nil {
		t.Fatal(err)
	}
	info := res.IDInfo
	info.ExpTime++
	if err := info.Verify(f.signer.PublicKey()); !errors.Is(err, ErrBadIDInfo) {
		t.Errorf("tampered IDInfo: %v", err)
	}
}

func TestAllocServiceIdentity(t *testing.T) {
	f := newFixture(t)
	aa, err := f.svc.AllocServiceIdentity(ephid.KindControl, 1000, ephid.EphID{})
	if err != nil {
		t.Fatal(err)
	}
	// Self-referencing AA EphID.
	if aa.Cert.AAEphID != aa.EphID {
		t.Error("AA cert does not self-reference")
	}
	// Cert verifies and is registered in the db.
	if err := aa.Cert.Verify(f.signer.PublicKey(), f.now); err != nil {
		t.Errorf("cert: %v", err)
	}
	if !f.db.Valid(aa.HID) {
		t.Error("service HID not in db")
	}
	// The EphID decodes to the service's HID.
	p, err := f.sealer.Open(aa.EphID)
	if err != nil || p.HID != aa.HID {
		t.Errorf("open: %+v, %v", p, err)
	}

	other, err := f.svc.AllocServiceIdentity(ephid.KindControl, 1000, aa.EphID)
	if err != nil {
		t.Fatal(err)
	}
	if other.Cert.AAEphID != aa.EphID {
		t.Error("service cert AAEphID not set")
	}
}

func TestCredentialTable(t *testing.T) {
	tab := CredentialTable{"tok": "sub"}
	if s, err := tab.Authenticate([]byte("tok")); err != nil || s != "sub" {
		t.Errorf("Authenticate = %q, %v", s, err)
	}
	if _, err := tab.Authenticate([]byte("nope")); !errors.Is(err, ErrAuthFailed) {
		t.Errorf("err = %v", err)
	}
}
