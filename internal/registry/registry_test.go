package registry

import (
	"bytes"
	"errors"
	"fmt"
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
	for i := range 8 {
		auth[fmt.Sprintf("h%d-token", i)] = fmt.Sprintf("h%d", i)
	}
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

// one bootstraps a batch of one host.
func (f *fixture) one(credential string, hostPub []byte) (*BootstrapResult, error) {
	res, err := f.svc.Bootstrap([]Enrollment{{Credential: []byte(credential), HostPub: hostPub}})
	if err != nil {
		return nil, err
	}
	return &res[0], nil
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
	res, err := f.one("alice-token", hk.PublicKey())
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
	if _, err := f.one("wrong", hk.PublicKey()); !errors.Is(err, ErrAuthFailed) {
		t.Errorf("err = %v", err)
	}
}

func TestBootstrapBadHostKey(t *testing.T) {
	f := newFixture(t)
	if _, err := f.one("alice-token", make([]byte, 16)); !errors.Is(err, ErrBadHostKey) {
		t.Errorf("err = %v", err)
	}
}

func TestRebootstrapRevokesOldHID(t *testing.T) {
	// Identity-minting defence (Section VI-A): one live HID per
	// subscriber.
	f := newFixture(t)
	hk := hostKey(t)
	first, err := f.one("alice-token", hk.PublicKey())
	if err != nil {
		t.Fatal(err)
	}
	second, err := f.one("alice-token", hk.PublicKey())
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
	a, err := f.one("alice-token", hostKey(t).PublicKey())
	if err != nil {
		t.Fatal(err)
	}
	b, err := f.one("bob-token", hostKey(t).PublicKey())
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
	if _, err := svc.Bootstrap([]Enrollment{{Credential: []byte("t"), HostPub: hostKey(t).PublicKey()}}); !errors.Is(err, ErrNoService) {
		t.Errorf("err = %v", err)
	}
}

func TestHIDExhaustion(t *testing.T) {
	f := newFixture(t)
	f.svc.nextHID = ^uint32(0) - 1 // one HID left
	if _, err := f.one("alice-token", hostKey(t).PublicKey()); err != nil {
		t.Fatalf("last HID: %v", err)
	}
	if _, err := f.one("bob-token", hostKey(t).PublicKey()); !errors.Is(err, ErrExhausted) {
		t.Errorf("err = %v", err)
	}
}

func TestIDInfoTamperRejected(t *testing.T) {
	f := newFixture(t)
	res, err := f.one("alice-token", hostKey(t).PublicKey())
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

// batchOf builds a bootstrap batch of fresh host keys, one per
// credential, and returns the keys alongside.
func batchOf(t *testing.T, credentials ...string) ([]Enrollment, []*crypto.KeyPair) {
	t.Helper()
	batch := make([]Enrollment, len(credentials))
	keys := make([]*crypto.KeyPair, len(credentials))
	for i, c := range credentials {
		keys[i] = hostKey(t)
		batch[i] = Enrollment{Credential: []byte(c), HostPub: keys[i].PublicKey()}
	}
	return batch, keys
}

// TestBootstrapBatchHIDsInArgumentOrder: a batch assigns HIDs in
// argument order, the HIDs one call per entry assigns.
func TestBootstrapBatchHIDsInArgumentOrder(t *testing.T) {
	creds := []string{"h5-token", "h2-token", "h7-token", "h0-token", "alice-token", "h3-token"}
	batched, serial := newFixture(t), newFixture(t)
	batch, _ := batchOf(t, creds...)
	res, err := batched.svc.Bootstrap(batch)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(creds) {
		t.Fatalf("%d results for %d entries", len(res), len(creds))
	}
	for i, c := range creds {
		one, err := serial.one(c, hostKey(t).PublicKey())
		if err != nil {
			t.Fatal(err)
		}
		if res[i].HID != one.HID || res[i].HID != res[0].HID+ephid.HID(i) {
			t.Errorf("entry %d (%s): HID %v, one call per entry gives %v", i, c, res[i].HID, one.HID)
		}
	}
}

// TestBootstrapBatchAllOrNothing: a bad credential, a short key or a
// small-order key at any index fails the whole batch: no HID is
// consumed, no hostdb record written and no earlier HID of a subscriber
// in the batch revoked. Of two entries that fail the same check, the
// lower one's error is returned.
func TestBootstrapBatchAllOrNothing(t *testing.T) {
	short := make([]byte, 16)
	cases := []struct {
		name       string
		bad, later Enrollment // later, if set, fails too, at index 7
		want       error
	}{
		{"credential", Enrollment{Credential: []byte("wrong")},
			Enrollment{Credential: []byte("h7-token"), HostPub: short}, ErrAuthFailed},
		{"16-byte key", Enrollment{Credential: []byte("bob-token"), HostPub: short},
			Enrollment{Credential: []byte("wrong")}, ErrBadHostKey},
		{"small-order key", Enrollment{Credential: []byte("bob-token"), HostPub: make([]byte, crypto.X25519PublicKeySize)},
			Enrollment{}, ErrBadHostKey},
	}
	for _, tc := range cases {
		for _, k := range []int{0, 3, 7} {
			f := newFixture(t)
			prior, err := f.one("h0-token", hostKey(t).PublicKey())
			if err != nil {
				t.Fatal(err)
			}
			records := f.db.Len()
			batch, _ := batchOf(t, "h0-token", "h1-token", "h2-token", "h3-token",
				"h4-token", "h5-token", "h6-token", "h7-token")
			if k < 7 && tc.later.Credential != nil {
				batch[7] = tc.later
			}
			bad := tc.bad
			if bad.HostPub == nil {
				bad.HostPub = batch[k].HostPub
			}
			batch[k] = bad
			res, err := f.svc.Bootstrap(batch)
			if !errors.Is(err, tc.want) || res != nil {
				t.Errorf("%s at %d: %d results, err %v, want %v", tc.name, k, len(res), err, tc.want)
			}
			if n := f.db.Len(); n != records {
				t.Errorf("%s at %d: hostdb holds %d records, %d before", tc.name, k, n, records)
			}
			if !f.db.Valid(prior.HID) {
				t.Errorf("%s at %d: the failed batch revoked h0's HID", tc.name, k)
			}
			next, err := f.one("alice-token", hostKey(t).PublicKey())
			if err != nil {
				t.Fatal(err)
			}
			if next.HID != prior.HID+1 {
				t.Errorf("%s at %d: next HID %v, want %v: the failed batch consumed HIDs", tc.name, k, next.HID, prior.HID+1)
			}
		}
	}
}

// TestBootstrapBatchRepeatedCredential: a credential twice in one batch
// revokes its first HID, as two calls in a row do.
func TestBootstrapBatchRepeatedCredential(t *testing.T) {
	f := newFixture(t)
	batch, _ := batchOf(t, "alice-token", "bob-token", "alice-token")
	res, err := f.svc.Bootstrap(batch)
	if err != nil {
		t.Fatal(err)
	}
	if res[0].HID == res[2].HID {
		t.Fatal("re-bootstrap in one batch reused a HID")
	}
	if f.db.Valid(res[0].HID) {
		t.Error("alice's first HID still valid after her second entry")
	}
	if !f.db.Valid(res[1].HID) || !f.db.Valid(res[2].HID) {
		t.Error("bob's HID or alice's second HID invalid")
	}
}

// TestBootstrapBatchResults: every entry's IDInfo verifies, its control
// EphID opens to its own HID, and the kHA the host derives from its own
// key is the record the AS wrote under that HID.
func TestBootstrapBatchResults(t *testing.T) {
	f := newFixture(t)
	batch, keys := batchOf(t, "h0-token", "h1-token", "h2-token", "h3-token",
		"h4-token", "h5-token", "h6-token", "h7-token")
	res, err := f.svc.Bootstrap(batch)
	if err != nil {
		t.Fatal(err)
	}
	for i := range res {
		r := &res[i]
		if err := r.IDInfo.Verify(f.signer.PublicKey()); err != nil {
			t.Errorf("entry %d: IDInfo: %v", i, err)
		}
		p, err := f.sealer.Open(r.IDInfo.ControlEphID)
		if err != nil {
			t.Fatalf("entry %d: %v", i, err)
		}
		if p.HID != r.HID || p.ExpTime != r.IDInfo.ExpTime {
			t.Errorf("entry %d: control EphID opens to %+v, assigned HID %v", i, p, r.HID)
		}
		secret, err := keys[i].SharedSecret(r.ASDHPub[:])
		if err != nil {
			t.Fatal(err)
		}
		entry, err := f.db.Get(r.HID)
		if err != nil {
			t.Fatal(err)
		}
		if entry.Keys != crypto.DeriveHostASKeys(secret) {
			t.Errorf("entry %d: the AS stored another host's kHA", i)
		}
	}
}
