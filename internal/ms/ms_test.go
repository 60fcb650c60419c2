package ms

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"

	"apna/internal/cert"
	"apna/internal/crypto"
	"apna/internal/ephid"
	"apna/internal/hostdb"
)

type fixture struct {
	svc     *Service
	sealer  *ephid.Sealer
	signer  *crypto.Signer
	db      *hostdb.DB
	now     int64
	hid     ephid.HID
	keys    crypto.HostASKeys
	ctrlID  ephid.EphID
	aaEphID ephid.EphID
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	secret, err := crypto.ASSecretFromBytes(bytes.Repeat([]byte{5}, crypto.SymKeySize))
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
	f := &fixture{sealer: sealer, signer: signer, db: hostdb.New(), now: 1_000_000, hid: 42}
	f.keys = crypto.DeriveHostASKeys([]byte("host42-shared"))
	f.db.Put(hostdb.Entry{HID: f.hid, Keys: f.keys, RegisteredAt: f.now})
	f.ctrlID = sealer.Mint(ephid.Payload{HID: f.hid, ExpTime: uint32(f.now) + 3600})
	f.aaEphID = sealer.Mint(ephid.Payload{HID: 1, ExpTime: uint32(f.now) + 86400})
	f.svc = New(64512, sealer, signer, f.db, DefaultPolicy(), f.aaEphID,
		func() int64 { return f.now })
	return f
}

func sampleRequest(t *testing.T) (*Request, *crypto.KeyPair, *crypto.Signer) {
	t.Helper()
	dh, err := crypto.GenerateKeyPair()
	if err != nil {
		t.Fatal(err)
	}
	sig, err := crypto.GenerateSigner()
	if err != nil {
		t.Fatal(err)
	}
	req := &Request{Kind: ephid.KindData, Lifetime: 600}
	copy(req.DHPub[:], dh.PublicKey())
	copy(req.SigPub[:], sig.PublicKey())
	return req, dh, sig
}

func TestIssuanceEndToEnd(t *testing.T) {
	f := newFixture(t)
	req, _, _ := sampleRequest(t)

	// Host side: encrypt request under kHA.
	ct, err := EncodeRequest(f.keys.Enc[:], f.ctrlID, req)
	if err != nil {
		t.Fatal(err)
	}
	// MS side.
	reply, err := f.svc.HandleRequest(f.ctrlID, ct)
	if err != nil {
		t.Fatal(err)
	}
	// Host side: decrypt certificate.
	c, err := DecodeReply(f.keys.Enc[:], f.ctrlID, reply)
	if err != nil {
		t.Fatal(err)
	}

	if err := c.Verify(f.signer.PublicKey(), f.now); err != nil {
		t.Errorf("cert does not verify: %v", err)
	}
	if c.Kind != ephid.KindData || c.AID != 64512 || c.AAEphID != f.aaEphID {
		t.Errorf("cert fields: %+v", c)
	}
	if c.DHPub != req.DHPub || c.SigPub != req.SigPub {
		t.Error("cert keys do not match request")
	}
	if c.ExpTime != uint32(f.now)+600 {
		t.Errorf("ExpTime = %d", c.ExpTime)
	}
	// The EphID decodes to the requesting host's HID.
	p, err := f.sealer.Open(c.EphID)
	if err != nil || p.HID != f.hid {
		t.Errorf("EphID payload: %+v, %v", p, err)
	}
	// The new EphID differs from the control EphID (unlinkability).
	if c.EphID == f.ctrlID {
		t.Error("issued EphID equals control EphID")
	}
}

func TestHandleRequestForgedEphID(t *testing.T) {
	f := newFixture(t)
	var forged ephid.EphID
	forged[0] = 0xFF
	if _, err := f.svc.HandleRequest(forged, []byte("x")); !errors.Is(err, ErrBadEphID) {
		t.Errorf("err = %v", err)
	}
}

func TestHandleRequestExpiredControlEphID(t *testing.T) {
	f := newFixture(t)
	expired := f.sealer.Mint(ephid.Payload{HID: f.hid, ExpTime: uint32(f.now) - 1})
	if _, err := f.svc.HandleRequest(expired, []byte("x")); !errors.Is(err, ErrExpiredEphID) {
		t.Errorf("err = %v", err)
	}
}

func TestHandleRequestRevokedHost(t *testing.T) {
	f := newFixture(t)
	f.db.Revoke(f.hid)
	req, _, _ := sampleRequest(t)
	ct, _ := EncodeRequest(f.keys.Enc[:], f.ctrlID, req)
	if _, err := f.svc.HandleRequest(f.ctrlID, ct); !errors.Is(err, ErrUnknownHost) {
		t.Errorf("err = %v", err)
	}
}

func TestHandleRequestUnknownHost(t *testing.T) {
	f := newFixture(t)
	ghost := f.sealer.Mint(ephid.Payload{HID: 999, ExpTime: uint32(f.now) + 100})
	if _, err := f.svc.HandleRequest(ghost, []byte("x")); !errors.Is(err, ErrUnknownHost) {
		t.Errorf("err = %v", err)
	}
}

func TestHandleRequestGarbageCiphertext(t *testing.T) {
	f := newFixture(t)
	if _, err := f.svc.HandleRequest(f.ctrlID, bytes.Repeat([]byte{7}, 64)); !errors.Is(err, ErrDecryptFailed) {
		t.Errorf("err = %v", err)
	}
}

func TestHandleRequestWrongKeyCiphertext(t *testing.T) {
	// A request encrypted under another host's key must not decrypt —
	// this is what stops an observer forging requests for someone
	// else's control EphID.
	f := newFixture(t)
	req, _, _ := sampleRequest(t)
	otherKeys := crypto.DeriveHostASKeys([]byte("mallory"))
	ct, _ := EncodeRequest(otherKeys.Enc[:], f.ctrlID, req)
	if _, err := f.svc.HandleRequest(f.ctrlID, ct); !errors.Is(err, ErrDecryptFailed) {
		t.Errorf("err = %v", err)
	}
}

func TestHandleRequestBoundToSourceEphID(t *testing.T) {
	// The request AEAD binds the control EphID as AAD: splicing a
	// ciphertext onto a different (valid) EphID of the same host must
	// fail.
	f := newFixture(t)
	req, _, _ := sampleRequest(t)
	ct, _ := EncodeRequest(f.keys.Enc[:], f.ctrlID, req)
	otherCtrl := f.sealer.Mint(ephid.Payload{HID: f.hid, ExpTime: uint32(f.now) + 3600})
	if _, err := f.svc.HandleRequest(otherCtrl, ct); !errors.Is(err, ErrDecryptFailed) {
		t.Errorf("err = %v", err)
	}
}

func TestRequestCodec(t *testing.T) {
	req, _, _ := sampleRequest(t)
	var got Request
	if err := got.UnmarshalBinary(req.Append(nil)); err != nil {
		t.Fatal(err)
	}
	if got != *req {
		t.Errorf("roundtrip: %+v vs %+v", got, req)
	}
	if err := got.UnmarshalBinary(make([]byte, RequestSize-1)); !errors.Is(err, ErrBadRequest) {
		t.Errorf("short: %v", err)
	}
	if err := got.UnmarshalBinary(make([]byte, RequestSize+1)); !errors.Is(err, ErrBadRequest) {
		t.Errorf("long: %v", err)
	}
}

func TestPolicyClamp(t *testing.T) {
	p := Policy{DefaultLifetime: 900, MaxLifetime: 3600}
	if got := p.Clamp(0); got != 900 {
		t.Errorf("Clamp(0) = %d", got)
	}
	if got := p.Clamp(100); got != 100 {
		t.Errorf("Clamp(100) = %d", got)
	}
	if got := p.Clamp(100_000); got != 3600 {
		t.Errorf("Clamp(100000) = %d", got)
	}
	def := DefaultPolicy()
	if def.DefaultLifetime != 15*60 {
		t.Errorf("default lifetime %d", def.DefaultLifetime)
	}
}

func TestIssueDirect(t *testing.T) {
	f := newFixture(t)
	req, _, _ := sampleRequest(t)
	req.Lifetime = 0 // use default
	c, err := f.svc.Issue(f.hid, req)
	if err != nil {
		t.Fatal(err)
	}
	if c.ExpTime != uint32(f.now)+DefaultPolicy().DefaultLifetime {
		t.Errorf("ExpTime = %d", c.ExpTime)
	}
}

func TestDecodeReplyGarbage(t *testing.T) {
	f := newFixture(t)
	if _, err := DecodeReply(f.keys.Enc[:], f.ctrlID, []byte("junk-reply-bytes-too-short")); err == nil {
		t.Error("garbage reply accepted")
	}
}

// renewalExchange runs one renewal round trip against the fixture's
// service, returning the host-side decode result.
func (f *fixture) renewalExchange(t *testing.T, req *Request) (*cert.Cert, error) {
	t.Helper()
	ct, err := EncodeRequest(f.keys.Enc[:], f.ctrlID, req)
	if err != nil {
		t.Fatal(err)
	}
	reply, err := f.svc.HandleRequest(f.ctrlID, ct)
	if err != nil {
		return nil, err
	}
	return DecodeReply(f.keys.Enc[:], f.ctrlID, reply)
}

func TestRenewalEndToEnd(t *testing.T) {
	f := newFixture(t)
	prev := f.sealer.Mint(ephid.Payload{HID: f.hid, ExpTime: uint32(f.now) + 30})
	req, _, _ := sampleRequest(t)
	req.Flags = ReqFlagRenew
	req.Prev = prev

	c, err := f.renewalExchange(t, req)
	if err != nil {
		t.Fatal(err)
	}
	if c.EphID == prev {
		t.Error("renewal returned the predecessor")
	}
	if p, err := f.sealer.Open(c.EphID); err != nil || p.HID != f.hid {
		t.Errorf("successor payload: %+v, %v", p, err)
	}
}

// TestRenewalOfExpiredPredecessor: renewing an identifier that lapsed
// while its flow idled is the recovery path and must succeed.
func TestRenewalOfExpiredPredecessor(t *testing.T) {
	f := newFixture(t)
	req, _, _ := sampleRequest(t)
	req.Flags = ReqFlagRenew
	req.Prev = f.sealer.Mint(ephid.Payload{HID: f.hid, ExpTime: uint32(f.now) - 100})
	if _, err := f.renewalExchange(t, req); err != nil {
		t.Fatalf("expired-predecessor renewal: %v", err)
	}
}

// TestRenewalForeignPredecessor: a host cannot renew another host's
// identifier; the denial comes back as a typed reply, not a silent
// drop (silent drops would desynchronize the host's FIFO reply
// matching).
func TestRenewalForeignPredecessor(t *testing.T) {
	f := newFixture(t)
	f.db.Put(hostdb.Entry{HID: 99, Keys: crypto.DeriveHostASKeys([]byte("other"))})
	req, _, _ := sampleRequest(t)
	req.Flags = ReqFlagRenew
	req.Prev = f.sealer.Mint(ephid.Payload{HID: 99, ExpTime: uint32(f.now) + 600})
	if _, err := f.renewalExchange(t, req); !errors.Is(err, ErrForeignPrev) {
		t.Errorf("foreign predecessor: %v", err)
	}
}

// TestRenewalForgedPredecessor: a fabricated Prev fails the sealer's
// authentication. The requester itself IS authenticated (the request
// decrypted under its kHA), so the denial comes back as a typed reply
// — like every denial, because a silent drop would desynchronize the
// host's FIFO reply matching.
func TestRenewalForgedPredecessor(t *testing.T) {
	f := newFixture(t)
	req, _, _ := sampleRequest(t)
	req.Flags = ReqFlagRenew
	req.Prev = ephid.EphID{1, 2, 3}
	if _, err := f.renewalExchange(t, req); !errors.Is(err, ErrForeignPrev) {
		t.Errorf("forged predecessor: %v", err)
	}
}

func TestRenewalRateLimit(t *testing.T) {
	f := newFixture(t)
	f.svc.policy.RenewBurst = 3
	f.svc.policy.RenewWindow = 60

	renew := func() error {
		req, _, _ := sampleRequest(t)
		req.Flags = ReqFlagRenew
		req.Prev = f.sealer.Mint(ephid.Payload{HID: f.hid, ExpTime: uint32(f.now) + 600})
		_, err := f.renewalExchange(t, req)
		return err
	}
	for i := 0; i < 3; i++ {
		if err := renew(); err != nil {
			t.Fatalf("renewal %d: %v", i, err)
		}
	}
	if err := renew(); !errors.Is(err, ErrRenewRateLimited) {
		t.Fatalf("over budget: %v", err)
	}
	// The window rolls over and the budget refills.
	f.now += 61
	if err := renew(); err != nil {
		t.Errorf("after window rollover: %v", err)
	}
	// Plain issuance is never rate limited.
	req, _, _ := sampleRequest(t)
	ct, err := EncodeRequest(f.keys.Enc[:], f.ctrlID, req)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.svc.HandleRequest(f.ctrlID, ct); err != nil {
		t.Errorf("plain issuance throttled: %v", err)
	}
}

func TestRenewalRateLimitDisabled(t *testing.T) {
	f := newFixture(t)
	f.svc.policy.RenewBurst = 0
	for i := 0; i < 50; i++ {
		req, _, _ := sampleRequest(t)
		req.Flags = ReqFlagRenew
		req.Prev = f.sealer.Mint(ephid.Payload{HID: f.hid, ExpTime: uint32(f.now) + 600})
		if _, err := f.renewalExchange(t, req); err != nil {
			t.Fatalf("renewal %d with limit disabled: %v", i, err)
		}
	}
}

func TestRequestCodecRenewal(t *testing.T) {
	req, _, _ := sampleRequest(t)
	req.Flags = ReqFlagRenew
	req.Prev = ephid.EphID{9, 8, 7}
	var got Request
	if err := got.UnmarshalBinary(req.Append(nil)); err != nil {
		t.Fatal(err)
	}
	if got != *req {
		t.Errorf("roundtrip: %+v vs %+v", got, req)
	}
	if !got.Renewing() {
		t.Error("renew flag lost")
	}
}

// TestRenewalStormPerHIDBudgets: N hosts all renewing in the same tick
// — the synchronized validity-window-edge storm the population engine
// generates — drain their per-HID budgets independently and refill
// them at the window rollover, and every over-budget request is
// answered with an encrypted status reply (never silently dropped:
// hosts match replies to requests FIFO, so a silent drop would
// desynchronize every later exchange on that host).
func TestRenewalStormPerHIDBudgets(t *testing.T) {
	f := newFixture(t)
	const hosts = 300 // spans several renewal shards
	const burst = 2
	f.svc.policy.RenewBurst = burst
	f.svc.policy.RenewWindow = 60

	type stormHost struct {
		hid  ephid.HID
		keys crypto.HostASKeys
		ctrl ephid.EphID
	}
	hs := make([]stormHost, hosts)
	entries := make([]hostdb.Entry, 0, hosts)
	for i := range hs {
		hid := ephid.HID(1000 + i)
		keys := crypto.DeriveHostASKeys([]byte{byte(i), byte(i >> 8), 0xA})
		hs[i] = stormHost{
			hid: hid, keys: keys,
			ctrl: f.sealer.Mint(ephid.Payload{HID: hid, ExpTime: uint32(f.now) + 3600}),
		}
		entries = append(entries, hostdb.Entry{HID: hid, Keys: keys, RegisteredAt: f.now})
	}
	f.db.PutBatch(entries)

	// One storm wave: every host fires burst+1 renewals at the same
	// virtual instant, from one goroutine per host (the concurrency the
	// sharded budget table exists for).
	storm := func() (granted, denied, silent int) {
		var mu sync.Mutex
		var wg sync.WaitGroup
		for i := range hs {
			wg.Add(1)
			go func(h stormHost) {
				defer wg.Done()
				g, d, s := 0, 0, 0
				for r := 0; r < burst+1; r++ {
					req, _, _ := sampleRequest(t)
					req.Flags = ReqFlagRenew
					req.Prev = f.sealer.Mint(ephid.Payload{HID: h.hid, ExpTime: uint32(f.now) + 30})
					ct, err := EncodeRequest(h.keys.Enc[:], h.ctrl, req)
					if err != nil {
						t.Error(err)
						return
					}
					reply, err := f.svc.HandleRequest(h.ctrl, ct)
					if err != nil {
						// A denial surfacing as a transport-level error is
						// exactly the silent drop the reply protocol forbids.
						s++
						continue
					}
					if _, err := DecodeReply(h.keys.Enc[:], h.ctrl, reply); err == nil {
						g++
					} else if errors.Is(err, ErrRenewRateLimited) {
						d++
					} else {
						t.Errorf("host %v: unexpected reply error %v", h.hid, err)
					}
				}
				mu.Lock()
				granted += g
				denied += d
				silent += s
				mu.Unlock()
			}(hs[i])
		}
		wg.Wait()
		return
	}

	granted, denied, silent := storm()
	if silent != 0 {
		t.Fatalf("%d renewals got no reply at all", silent)
	}
	if granted != hosts*burst {
		t.Errorf("granted = %d, want %d (budgets must be per-HID, not shared)", granted, hosts*burst)
	}
	if denied != hosts {
		t.Errorf("denied = %d, want %d (exactly the over-budget request per host)", denied, hosts)
	}

	// The window rolls over: every budget refills in full.
	f.now += 61
	granted, denied, silent = storm()
	if silent != 0 || granted != hosts*burst || denied != hosts {
		t.Errorf("post-rollover storm: granted=%d denied=%d silent=%d, want %d/%d/0",
			granted, denied, silent, hosts*burst, hosts)
	}
}

// exchange is what one request's trip through the service shows the
// outside: the service's error, or the reply as the host decodes it.
// The certificate is kept minus
// its EphIDs and signature, which no two services share (the sealer's
// IV base and the AS key are random per fixture); the EphID's payload
// is kept instead, and the agent EphID and signature are checked.
type exchange struct {
	err, denial string
	cert        cert.Cert
	payload     ephid.Payload
}

func (f *fixture) exchangeOf(t *testing.T, reply []byte, err error) exchange {
	t.Helper()
	x := exchange{err: fmt.Sprint(err)}
	if err == nil {
		c, derr := DecodeReply(f.keys.Enc[:], f.ctrlID, reply)
		x.denial = fmt.Sprint(derr)
		if derr == nil {
			if verr := c.Verify(f.signer.PublicKey(), f.now); verr != nil {
				t.Errorf("issued certificate does not verify: %v", verr)
			}
			p, oerr := f.sealer.Open(c.EphID)
			if oerr != nil {
				t.Errorf("issued EphID does not open: %v", oerr)
			}
			if c.AAEphID != f.aaEphID {
				t.Errorf("certificate names agent %x, want %x", c.AAEphID, f.aaEphID)
			}
			x.payload = p
			x.cert = *c
			x.cert.EphID, x.cert.AAEphID, x.cert.Signature = ephid.EphID{}, ephid.EphID{}, [crypto.SignatureSize]byte{}
		}
	}
	return x
}

// fixedRequest is a plain request whose bound keys are the same in
// every call, so two services' certificates for it can be compared.
func fixedRequest() *Request {
	req := &Request{Kind: ephid.KindData, Lifetime: 600}
	copy(req.DHPub[:], bytes.Repeat([]byte{0x11}, len(req.DHPub)))
	copy(req.SigPub[:], bytes.Repeat([]byte{0x22}, len(req.SigPub)))
	return req
}

// TestAdmitSealMatchesHandleRequest: AdmitInPlace, Sign and Seal are
// HandleRequest on every path through Figure 3 — the same error, or a
// reply that decodes to the same certificate or the same denial. Each
// case runs on a fresh fixture per path.
func TestAdmitSealMatchesHandleRequest(t *testing.T) {
	renewal := func(f *fixture, prevHID ephid.HID) *Request {
		req := fixedRequest()
		req.Flags = ReqFlagRenew
		req.Prev = f.sealer.Mint(ephid.Payload{HID: prevHID, ExpTime: uint32(f.now) + 30})
		return req
	}
	encode := func(f *fixture, req *Request) (ephid.EphID, []byte) {
		ct, err := EncodeRequest(f.keys.Enc[:], f.ctrlID, req)
		if err != nil {
			t.Fatal(err)
		}
		return f.ctrlID, ct
	}
	cases := []struct {
		name  string
		build func(*fixture) (ephid.EphID, []byte)
	}{
		{"issue", func(f *fixture) (ephid.EphID, []byte) {
			req := fixedRequest()
			return encode(f, req)
		}},
		{"renewal", func(f *fixture) (ephid.EphID, []byte) {
			return encode(f, renewal(f, f.hid))
		}},
		{"rate-limited", func(f *fixture) (ephid.EphID, []byte) {
			f.svc.policy.RenewBurst = 1
			req := renewal(f, f.hid)
			if err := f.svc.checkRenewal(f.hid, req, f.now); err != nil {
				t.Fatal(err)
			}
			return encode(f, req)
		}},
		{"foreign-prev", func(f *fixture) (ephid.EphID, []byte) {
			f.db.Put(hostdb.Entry{HID: 99, Keys: crypto.DeriveHostASKeys([]byte("other"))})
			return encode(f, renewal(f, 99))
		}},
		{"forged-ctrl", func(f *fixture) (ephid.EphID, []byte) {
			_, ct := encode(f, renewal(f, f.hid))
			return ephid.EphID{0: 0xFF}, ct
		}},
		{"expired-ctrl", func(f *fixture) (ephid.EphID, []byte) {
			return f.sealer.Mint(ephid.Payload{HID: f.hid, ExpTime: uint32(f.now) - 1}), []byte("x")
		}},
		{"unknown-hid", func(f *fixture) (ephid.EphID, []byte) {
			return f.sealer.Mint(ephid.Payload{HID: 999, ExpTime: uint32(f.now) + 100}), []byte("x")
		}},
		{"revoked-hid", func(f *fixture) (ephid.EphID, []byte) {
			f.db.Revoke(f.hid)
			req := fixedRequest()
			return encode(f, req)
		}},
		{"wrong-key", func(f *fixture) (ephid.EphID, []byte) {
			req := fixedRequest()
			other := crypto.DeriveHostASKeys([]byte("mallory"))
			ct, err := EncodeRequest(other.Enc[:], f.ctrlID, req)
			if err != nil {
				t.Fatal(err)
			}
			return f.ctrlID, ct
		}},
		{"malformed", func(f *fixture) (ephid.EphID, []byte) {
			aead, err := crypto.NewAEAD(f.keys.Enc[:], 0)
			if err != nil {
				t.Fatal(err)
			}
			ct, err := aead.SealOnce(nil, make([]byte, RequestSize-1), f.ctrlID[:])
			if err != nil {
				t.Fatal(err)
			}
			return f.ctrlID, ct
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := newFixture(t)
			src, ct := tc.build(f)
			reply, err := f.svc.HandleRequest(src, ct)
			want := f.exchangeOf(t, reply, err)

			f = newFixture(t)
			src, ct = tc.build(f)
			a, err := admitCopy(f.svc, src, ct)
			if err == nil {
				// The decisions are readable before the signature.
				denial, id, exp := a.Denial(), a.EphID(), a.ExpTime()
				if _, err := a.Seal(); denial == nil && !errors.Is(err, ErrUnsigned) {
					t.Fatalf("seal before sign: %v, want ErrUnsigned", err)
				}
				f.svc.Sign([]*Admitted{a})
				if reply, err = a.Seal(); err != nil {
					t.Fatalf("seal: %v", err)
				}
				c, derr := DecodeReply(f.keys.Enc[:], f.ctrlID, reply)
				switch {
				case denial != nil:
					if !errors.Is(derr, denial) || a.Cert() != nil || id != (ephid.EphID{}) || exp != 0 {
						t.Errorf("admitted denial %v decoded to %v (cert %v, EphID %x, exp %d)", denial, derr, a.Cert(), id, exp)
					}
				case derr != nil || !c.Equal(a.Cert()) || c.EphID != id || c.ExpTime != exp:
					t.Errorf("reply decoded to %+v, %v; admitted %+v", c, derr, a.Cert())
				}
			}
			if got := f.exchangeOf(t, reply, err); got != want {
				t.Errorf("AdmitInPlace+Sign+Seal %+v\nHandleRequest %+v", got, want)
			}
		})
	}
}

// TestSealConcurrent: admitted requests, signed as one batch, are
// sealed from eight goroutines while the admitting goroutine reads
// their decisions; each reply decodes under its own host's key to the
// admitted certificate, which verifies against the AS key. Run it
// under -race.
func TestSealConcurrent(t *testing.T) {
	f := newFixture(t)
	const n, sealers = 64, 8
	type host struct {
		keys crypto.HostASKeys
		ctrl ephid.EphID
		adm  *Admitted
	}
	hs := make([]host, n)
	for i := range hs {
		hid := ephid.HID(2000 + i)
		h := &hs[i]
		h.keys = crypto.DeriveHostASKeys([]byte{byte(i), 0xC})
		h.ctrl = f.sealer.Mint(ephid.Payload{HID: hid, ExpTime: uint32(f.now) + 3600})
		f.db.Put(hostdb.Entry{HID: hid, Keys: h.keys, RegisteredAt: f.now})
		req, _, _ := sampleRequest(t)
		ct, err := EncodeRequest(h.keys.Enc[:], h.ctrl, req)
		if err != nil {
			t.Fatal(err)
		}
		if h.adm, err = admitCopy(f.svc, h.ctrl, ct); err != nil {
			t.Fatal(err)
		}
	}
	batch := make([]*Admitted, n)
	for i := range hs {
		batch[i] = hs[i].adm
	}
	f.svc.Sign(batch)
	replies := make([][]byte, n)
	var wg sync.WaitGroup
	for s := range sealers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := s; i < n; i += sealers {
				var err error
				if replies[i], err = hs[i].adm.Seal(); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	ids := make(map[ephid.EphID]uint32, n)
	for i := range hs {
		ids[hs[i].adm.EphID()] = hs[i].adm.ExpTime()
	}
	wg.Wait()
	if len(ids) != n {
		t.Fatalf("%d distinct EphIDs minted for %d requests", len(ids), n)
	}
	for i, h := range hs {
		c, err := DecodeReply(h.keys.Enc[:], h.ctrl, replies[i])
		if err != nil {
			t.Fatalf("reply %d: %v", i, err)
		}
		if !c.Equal(h.adm.Cert()) || ids[c.EphID] != c.ExpTime {
			t.Errorf("reply %d carries %+v, admitted %+v", i, c, h.adm.Cert())
		}
		if err := c.Verify(f.signer.PublicKey(), f.now); err != nil {
			t.Errorf("reply %d: %v", i, err)
		}
	}
}

// TestMessageNoncesAreFresh: requests and replies share the host's kHA
// key for as long as it is registered, so every message needs a nonce
// no other message under that key has. Before SealOnce each one was a
// 4-byte random prefix and a counter that always read 1, and
// collisions were likely after about 2¹⁶ messages.
func TestMessageNoncesAreFresh(t *testing.T) {
	f := newFixture(t)
	const n = 4096
	seen := make(map[[crypto.NonceSize]byte]bool, 2*n)
	tails := map[bool]map[[8]byte]bool{false: {}, true: {}}
	note := func(msg []byte, reply bool) {
		var nonce [crypto.NonceSize]byte
		copy(nonce[:], msg)
		if seen[nonce] {
			t.Fatalf("nonce %x repeated", nonce)
		}
		seen[nonce] = true
		if dir := nonce[0]&1 == 1; dir != reply {
			t.Fatalf("nonce %x: direction bit %v on a reply=%v message", nonce, dir, reply)
		}
		tails[reply][[8]byte(nonce[4:])] = true
	}
	req, _, _ := sampleRequest(t)
	for range n {
		ct, err := EncodeRequest(f.keys.Enc[:], f.ctrlID, req)
		if err != nil {
			t.Fatal(err)
		}
		reply, err := f.svc.HandleRequest(f.ctrlID, ct)
		if err != nil {
			t.Fatal(err)
		}
		note(ct, false)
		note(reply, true)
	}
	for reply, set := range tails {
		if len(set) < 2 {
			t.Errorf("reply=%v: nonce bytes 4-11 are constant across %d messages", reply, n)
		}
	}
}

// TestReplyNonceDirection pins bit 0 of every nonce's first byte to
// the message's direction under the host's kHA key: 0 on each request
// (EncodeRequest), 1 on each reply — from HandleRequest, from
// AdmitInPlace, Sign and Seal, and for a denial by either path. Seal
// reuses the AEAD AdmitInPlace opened the request with, so this is what holds that AEAD to
// the reply direction. Thirty-two rounds leave a nonce whose bit is
// random, not set, a 2⁻³² chance per path to pass.
func TestReplyNonceDirection(t *testing.T) {
	f := newFixture(t)
	f.db.Put(hostdb.Entry{HID: 99, Keys: crypto.DeriveHostASKeys([]byte("other"))})
	denied := fixedRequest()
	denied.Flags = ReqFlagRenew
	denied.Prev = f.sealer.Mint(ephid.Payload{HID: 99, ExpTime: uint32(f.now) + 30})
	direction := func(path string, msg []byte, want byte) {
		t.Helper()
		if len(msg) < crypto.NonceSize {
			t.Fatalf("%s: %d-byte message", path, len(msg))
		}
		if got := msg[0] & 1; got != want {
			t.Fatalf("%s: nonce %x has direction bit %d, want %d", path, msg[:crypto.NonceSize], got, want)
		}
	}
	for range 32 {
		for _, tc := range []struct {
			name   string
			req    *Request
			denial error
		}{{"issue", fixedRequest(), nil}, {"denial", denied, ErrForeignPrev}} {
			ct, err := EncodeRequest(f.keys.Enc[:], f.ctrlID, tc.req)
			if err != nil {
				t.Fatal(err)
			}
			direction(tc.name+" request", ct, 0)

			reply, err := f.svc.HandleRequest(f.ctrlID, ct)
			if err != nil {
				t.Fatal(err)
			}
			direction(tc.name+" HandleRequest reply", reply, 1)

			a, err := admitCopy(f.svc, f.ctrlID, ct)
			if err != nil {
				t.Fatal(err)
			}
			f.svc.Sign([]*Admitted{a})
			if reply, err = a.Seal(); err != nil {
				t.Fatal(err)
			}
			direction(tc.name+" AdmitInPlace/Sign/Seal reply", reply, 1)
			if _, err := DecodeReply(f.keys.Enc[:], f.ctrlID, reply); !errors.Is(err, tc.denial) {
				t.Fatalf("%s reply decodes to %v, want %v", tc.name, err, tc.denial)
			}
		}
	}
}

// TestRenewalWindowPruning: lapsed renewal windows are swept once a
// shard sees renewPruneEvery insertions, so a churning population
// cannot grow the budget table without bound.
func TestRenewalWindowPruning(t *testing.T) {
	f := newFixture(t)
	f.svc.policy.RenewBurst = 4
	f.svc.policy.RenewWindow = 60

	// Insert windows for renewShardCount*renewPruneEvery distinct HIDs
	// via checkRenewal directly (the exchange path's cost is irrelevant
	// here), advancing the clock so earlier windows lapse.
	total := renewShardCount * renewPruneEvery
	for i := 0; i < total; i++ {
		hid := ephid.HID(10_000 + i)
		req := &Request{Flags: ReqFlagRenew,
			Prev: f.sealer.Mint(ephid.Payload{HID: hid, ExpTime: uint32(f.now) + 30})}
		if err := f.svc.checkRenewal(hid, req, f.now+int64(i)/100); err != nil {
			t.Fatal(err)
		}
	}
	// Every window inserted in the first sweep-eligible stretch has
	// lapsed by the end (clock advanced by total/100 >> window), so the
	// table must hold far fewer than every HID ever seen.
	if got := f.svc.RenewTracked(); got >= total {
		t.Errorf("RenewTracked = %d, want < %d (pruning never ran)", got, total)
	}
}

// TestOneSignaturePerBatch counts signatures from the outside: the
// distinct Signature values on the certificates Sign certifies. A full
// batch of cert.MaxBatch admitted requests takes one signature and one
// more request a second; requests for two lifetimes (two ExpTimes) take
// one root each; a denial takes no leaf; HandleRequest signs alone; and
// a request's leaf index does not follow its admission order.
func TestOneSignaturePerBatch(t *testing.T) {
	f := newFixture(t)
	req, _, _ := sampleRequest(t)
	admit := func(r *Request) *Admitted {
		t.Helper()
		ct, err := EncodeRequest(f.keys.Enc[:], f.ctrlID, r)
		if err != nil {
			t.Fatal(err)
		}
		a, err := admitCopy(f.svc, f.ctrlID, ct)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	admitN := func(n int, r *Request) []*Admitted {
		batch := make([]*Admitted, n)
		for i := range batch {
			batch[i] = admit(r)
		}
		return batch
	}
	// signatures signs batch and returns how many leaves each distinct
	// signature covers, per ExpTime, after checking every certificate.
	signatures := func(batch []*Admitted) map[[crypto.SignatureSize]byte]map[uint32]int {
		t.Helper()
		f.svc.Sign(batch)
		sigs := map[[crypto.SignatureSize]byte]map[uint32]int{}
		for _, a := range batch {
			c := a.Cert()
			if c == nil {
				continue
			}
			if err := c.Verify(f.signer.PublicKey(), f.now); err != nil {
				t.Fatal(err)
			}
			if sigs[c.Signature] == nil {
				sigs[c.Signature] = map[uint32]int{}
			}
			sigs[c.Signature][c.ExpTime]++
		}
		return sigs
	}

	if got := signatures(admitN(cert.MaxBatch, req)); len(got) != 1 {
		t.Errorf("%d admitted requests: %d signatures, want 1", cert.MaxBatch, len(got))
	}
	if got := signatures(admitN(cert.MaxBatch+1, req)); len(got) != 2 {
		t.Errorf("%d admitted requests: %d signatures, want 2", cert.MaxBatch+1, len(got))
	}

	long := *req
	long.Lifetime = req.Lifetime + 300
	mixed := append(admitN(5, req), admitN(5, &long)...)
	got := signatures(mixed)
	if len(got) != 2 {
		t.Errorf("two ExpTimes: %d signatures, want 2", len(got))
	}
	for _, byExp := range got {
		if len(byExp) != 1 {
			t.Errorf("one root covers ExpTimes %v", byExp)
		}
	}

	f.db.Put(hostdb.Entry{HID: 99, Keys: crypto.DeriveHostASKeys([]byte("other"))})
	foreign := *req
	foreign.Flags = ReqFlagRenew
	foreign.Prev = f.sealer.Mint(ephid.Payload{HID: 99, ExpTime: uint32(f.now) + 30})
	denied := admit(&foreign)
	if denied.Denial() == nil {
		t.Fatal("renewal of a foreign EphID was admitted")
	}
	withDenial := append(admitN(cert.MaxBatch, req), denied)
	if got := signatures(withDenial); len(got) != 1 {
		t.Errorf("%d requests and a denial: %d signatures, want 1", cert.MaxBatch, len(got))
	}
	if denied.Cert() != nil {
		t.Error("a denial carries a certificate")
	}
	if reply, err := denied.Seal(); err != nil {
		t.Errorf("denial seal: %v", err)
	} else if _, err := DecodeReply(f.keys.Enc[:], f.ctrlID, reply); !errors.Is(err, ErrForeignPrev) {
		t.Errorf("denial decodes to %v", err)
	}

	ct, err := EncodeRequest(f.keys.Enc[:], f.ctrlID, req)
	if err != nil {
		t.Fatal(err)
	}
	reply, err := f.svc.HandleRequest(f.ctrlID, ct)
	if err != nil {
		t.Fatal(err)
	}
	c, err := DecodeReply(f.keys.Enc[:], f.ctrlID, reply)
	if err != nil {
		t.Fatal(err)
	}
	if c.Depth != 0 || c.Index != 0 {
		t.Errorf("HandleRequest: depth %d, index %d, want a one-leaf batch", c.Depth, c.Index)
	}

	const batches = 200
	first := 0
	for range batches {
		pair := admitN(2, req)
		f.svc.Sign(pair)
		if pair[0].Cert().Index == 0 {
			first++
		}
	}
	if first == batches {
		t.Errorf("the first-admitted request sat at index 0 in all %d batches", batches)
	}
}

// TestRequestKinds: the MS issues data and receive-only EphIDs and
// nothing else. Every other value of the kind byte — the RS's control
// kind and the 253 undefined ones — is ErrBadRequest, from the decoder
// and from AdmitInPlace, so no certificate of that kind is ever signed.
func TestRequestKinds(t *testing.T) {
	f := newFixture(t)
	for k := range 256 {
		kind := ephid.Kind(k)
		req := fixedRequest()
		req.Kind = kind
		want := kind == ephid.KindData || kind == ephid.KindReceiveOnly
		if got := Issuable(kind); got != want {
			t.Fatalf("Issuable(%v) = %v", kind, got)
		}
		var r Request
		err := r.UnmarshalBinary(req.Append(nil))
		if want != (err == nil) || !want && !errors.Is(err, ErrBadRequest) {
			t.Fatalf("decoding kind %v: %v", kind, err)
		}
		if want && r != *req {
			t.Fatalf("kind %v decodes to %+v, want %+v", kind, r, req)
		}
		ct, err := EncodeRequest(f.keys.Enc[:], f.ctrlID, req)
		if err != nil {
			t.Fatal(err)
		}
		a, err := admitCopy(f.svc, f.ctrlID, ct)
		if want != (err == nil) || !want && !errors.Is(err, ErrBadRequest) {
			t.Fatalf("AdmitInPlace(kind %v): %v", kind, err)
		}
		if want && a.Cert().Kind != kind {
			t.Fatalf("kind %v request minted a %v certificate", kind, a.Cert().Kind)
		}
	}
}

// admitCopy is AdmitInPlace on a copy of ciphertext, which it leaves
// intact.
func admitCopy(s *Service, srcEphID ephid.EphID, ciphertext []byte) (*Admitted, error) {
	return s.AdmitInPlace(srcEphID, slices.Clone(ciphertext))
}

// admitFor seals req for the host with keys and control EphID ctrl and
// admits it.
func (f *fixture) admitFor(t *testing.T, keys crypto.HostASKeys, ctrl ephid.EphID, req *Request) (*Admitted, error) {
	t.Helper()
	ct, err := EncodeRequest(keys.Enc[:], ctrl, req)
	if err != nil {
		t.Fatal(err)
	}
	return admitCopy(f.svc, ctrl, ct)
}

// TestAdmitCacheHit: a host's second request is opened, and its reply
// sealed, under the schedule its first one built.
func TestAdmitCacheHit(t *testing.T) {
	f := newFixture(t)
	first, err := f.admitFor(t, f.keys, f.ctrlID, fixedRequest())
	if err != nil {
		t.Fatal(err)
	}
	second, err := f.admitFor(t, f.keys, f.ctrlID, fixedRequest())
	if err != nil {
		t.Fatal(err)
	}
	if first.aead != second.aead {
		t.Fatal("the second request built a second AEAD for the same host and key")
	}
	f.svc.Sign([]*Admitted{first, second})
	for _, a := range []*Admitted{first, second} {
		reply, err := a.Seal()
		if err != nil {
			t.Fatal(err)
		}
		if c, err := DecodeReply(f.keys.Enc[:], f.ctrlID, reply); err != nil || !c.Equal(a.Cert()) {
			t.Fatalf("reply decodes to %+v, %v", c, err)
		}
	}
}

// TestAdmitCacheRekey: a HID registered again under new keys is served
// under the new key's schedule at once, although the old one is still
// cached, and a request sealed under the old key no longer opens.
func TestAdmitCacheRekey(t *testing.T) {
	f := newFixture(t)
	old, err := f.admitFor(t, f.keys, f.ctrlID, fixedRequest())
	if err != nil {
		t.Fatal(err)
	}
	rekeyed := crypto.DeriveHostASKeys([]byte("host42-rekeyed"))
	f.db.Put(hostdb.Entry{HID: f.hid, Keys: rekeyed, RegisteredAt: f.now})

	a, err := f.admitFor(t, rekeyed, f.ctrlID, fixedRequest())
	if err != nil {
		t.Fatalf("request under the new key: %v", err)
	}
	if a.aead == old.aead {
		t.Fatal("the new key was served the old key's schedule")
	}
	f.svc.Sign([]*Admitted{a})
	reply, err := a.Seal()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeReply(rekeyed.Enc[:], f.ctrlID, reply); err != nil {
		t.Fatalf("reply under the new key: %v", err)
	}
	if _, err := f.admitFor(t, f.keys, f.ctrlID, fixedRequest()); !errors.Is(err, ErrDecryptFailed) {
		t.Fatalf("request under the old key: %v, want ErrDecryptFailed", err)
	}
}

// TestAdmitCacheRevoked: hostdb, not the cache, decides who is
// registered. A revoked host whose schedule is warm is refused.
func TestAdmitCacheRevoked(t *testing.T) {
	f := newFixture(t)
	if _, err := f.admitFor(t, f.keys, f.ctrlID, fixedRequest()); err != nil {
		t.Fatal(err)
	}
	f.db.Revoke(f.hid)
	if _, err := f.admitFor(t, f.keys, f.ctrlID, fixedRequest()); !errors.Is(err, ErrUnknownHost) {
		t.Fatalf("revoked host with a warm schedule: %v, want ErrUnknownHost", err)
	}
}

// TestAdmitCacheConcurrent: eight goroutines admit requests of one host
// from a cold cache, so several may build and store its schedule at
// once; every request is admitted and every reply decodes. Run it under
// -race.
func TestAdmitCacheConcurrent(t *testing.T) {
	f := newFixture(t)
	const goroutines, each = 8, 16
	var wg sync.WaitGroup
	for range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range each {
				ct, err := EncodeRequest(f.keys.Enc[:], f.ctrlID, fixedRequest())
				if err != nil {
					t.Error(err)
					return
				}
				reply, err := f.svc.HandleRequest(f.ctrlID, ct)
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := DecodeReply(f.keys.Enc[:], f.ctrlID, reply); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// awaitKeyRefills waits until no key-stock refill goroutine and no
// session-key derivation (session.Start) is running:
// testing.AllocsPerRun counts every goroutine's allocations, and the
// fixture's signer came from the stock.
func awaitKeyRefills() {
	buf := make([]byte, 64<<10)
	for {
		n := runtime.Stack(buf, true)
		if n == len(buf) {
			buf = make([]byte, 2*len(buf))
			continue
		}
		if !bytes.Contains(buf[:n], []byte("created by apna/internal/crypto.(*stock[")) &&
			!bytes.Contains(buf[:n], []byte("created by apna/internal/session.Start")) {
			return
		}
		runtime.Gosched()
	}
}

// TestRoundTripAllocs prices a warm issuance round trip in heap
// allocations: a full batch of cert.MaxBatch hosts, each holding its
// kHA AEAD, request buffer, reply buffer and certificate, runs
// AppendRequest → AdmitInPlace → one Sign → AppendSeal → OpenReply with
// the service's schedules cached. What is left per request is the
// Admitted and a share of the batch signature's.
func TestRoundTripAllocs(t *testing.T) {
	f := newFixture(t)
	const n = cert.MaxBatch
	type host struct {
		ctrl  ephid.EphID
		aead  *crypto.AEAD
		ct    [SealedRequestSize]byte
		reply []byte
		cert  cert.Cert
	}
	hs := make([]host, n)
	for i := range hs {
		hid := ephid.HID(3000 + i)
		keys := crypto.DeriveHostASKeys([]byte{byte(i), 0xA})
		f.db.Put(hostdb.Entry{HID: hid, Keys: keys, RegisteredAt: f.now})
		hs[i].ctrl = f.sealer.Mint(ephid.Payload{HID: hid, ExpTime: uint32(f.now) + 3600})
		var err error
		if hs[i].aead, err = crypto.NewAEAD(keys.Enc[:], 0); err != nil {
			t.Fatal(err)
		}
	}
	req := fixedRequest()
	batch := make([]*Admitted, n)
	var failed error
	round := func() {
		for i := range hs {
			h := &hs[i]
			ct, err := AppendRequest(h.ct[:0], h.aead, &h.ctrl, req)
			if err == nil {
				batch[i], err = f.svc.AdmitInPlace(h.ctrl, ct)
			}
			if err != nil {
				failed = err
				return
			}
		}
		f.svc.Sign(batch)
		for i := range hs {
			h := &hs[i]
			var err error
			if h.reply, err = batch[i].AppendSeal(h.reply[:0]); err == nil {
				err = OpenReply(&h.cert, h.aead, &h.ctrl, h.reply)
			}
			if err == nil && !h.cert.Equal(batch[i].Cert()) {
				err = fmt.Errorf("reply %d carries %+v", i, h.cert)
			}
			if err != nil {
				failed = err
				return
			}
		}
	}
	round() // warm the schedule cache and size the reply buffers
	awaitKeyRefills()
	perRequest := testing.AllocsPerRun(10, round) / n
	if failed != nil {
		t.Fatal(failed)
	}
	if perRequest > 2 {
		t.Errorf("a warm round trip allocates %.2f times per request, want at most 2", perRequest)
	}
	t.Logf("%.2f allocations per request", perRequest)
}
