package host

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"errors"
	"testing"

	"apna/internal/cert"
	"apna/internal/crypto"
	"apna/internal/ephid"
	"apna/internal/hostdb"
	"apna/internal/ms"
	"apna/internal/netsim"
	"apna/internal/wire"
)

// FuzzHandshake drives the decoders on the connect path — what a host
// parses out of a handshake or an ack, and both halves of the EphID
// issuance exchange — with arbitrary bytes. None may panic, and every
// input a decoder accepts must re-encode to the same bytes: none of
// these formats has slack. The issuance messages travel sealed under the
// host's kHA key and bound to its control EphID, which the target fixes:
// each input is decoded as it would arrive on the wire and, to reach the
// parsers behind the AEAD, also sealed as a plaintext. One seed carries
// a certificate from a batch of three, with a two-hash path.
func FuzzHandshake(f *testing.F) {
	hs, ack := realHandshake(f)
	f.Add(hs)
	f.Add(ack)
	f.Add(hs[1 : 1+cert.MinSize])
	f.Add(batchedHandshake(f, hs))
	w, req, replies := realIssuance(f)
	f.Add(req)
	f.Add(w.open(req))
	for _, r := range replies {
		f.Add(r)
		f.Add(w.open(r))
	}
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		if m, err := decodeHandshake(data); err == nil {
			if enc, err := m.encode(); err != nil || !bytes.Equal(enc, data) {
				t.Fatalf("handshake re-encodes to %x (%v), want %x", enc, err, data)
			}
		}
		var c cert.Cert
		if c.UnmarshalBinary(data) == nil {
			if enc, err := c.MarshalBinary(); err != nil || !bytes.Equal(enc, data) {
				t.Fatalf("certificate re-encodes to %x (%v), want %x", enc, err, data)
			}
		}
		for _, plain := range [][]byte{data, w.open(data)} {
			var r ms.Request
			if r.UnmarshalBinary(plain) == nil && !bytes.Equal(r.Append(nil), plain) {
				t.Fatalf("request re-encodes to %x, want %x", r.Append(nil), plain)
			}
		}
		w.checkReply(t, data)
		w.checkReply(t, w.seal(make([]byte, crypto.NonceSize), data))
	})
}

// batchedHandshake re-signs the certificate in hs as one of a batch of
// three and returns the handshake carrying it.
func batchedHandshake(f *testing.F, hs []byte) []byte {
	m, err := decodeHandshake(hs)
	if err != nil {
		f.Fatal(err)
	}
	signer, err := crypto.GenerateSigner()
	if err != nil {
		f.Fatal(err)
	}
	exp := m.cert.ExpTime
	cert.SignBatch([]*cert.Cert{&m.cert, {ExpTime: exp}, {ExpTime: exp}}, signer)
	if m.cert.Depth == 0 {
		f.Fatal("batch of three signed at depth 0")
	}
	deep, err := m.encode()
	if err != nil {
		f.Fatal(err)
	}
	return deep
}

// issuanceWire is one host's side of the issuance exchange: messages
// are nonce ‖ AES-GCM ciphertext ‖ tag under the host's kHA encryption
// key, bound to its control EphID. It seals at a nonce the caller
// chooses, which crypto.AEAD does not offer.
type issuanceWire struct {
	keys crypto.HostASKeys
	ctrl ephid.EphID
	aead cipher.AEAD
}

func (w *issuanceWire) seal(nonce, plain []byte) []byte {
	return w.aead.Seal(append([]byte(nil), nonce...), nonce, plain, w.ctrl[:])
}

// open returns the plaintext of msg, or nil if it does not open.
func (w *issuanceWire) open(msg []byte) []byte {
	if len(msg) < crypto.NonceSize {
		return nil
	}
	plain, err := w.aead.Open(nil, msg[:crypto.NonceSize], msg[crypto.NonceSize:], w.ctrl[:])
	if err != nil {
		return nil
	}
	return plain
}

// checkReply decodes sealed as an MS reply and, if DecodeReply accepts
// it — a certificate or a typed denial — checks that sealing what it
// decoded under the same nonce gives sealed back.
func (w *issuanceWire) checkReply(t *testing.T, sealed []byte) {
	t.Helper()
	c, err := ms.DecodeReply(w.keys.Enc[:], w.ctrl, sealed)
	// The reply's plaintext is a status byte, then the certificate on
	// success.
	var plain []byte
	switch {
	case err == nil:
		raw, _ := c.MarshalBinary()
		plain = append([]byte{0}, raw...)
	case errors.Is(err, ms.ErrRenewRateLimited):
		plain = []byte{1}
	case errors.Is(err, ms.ErrForeignPrev):
		plain = []byte{2}
	default:
		return
	}
	if enc := w.seal(sealed[:crypto.NonceSize], plain); !bytes.Equal(enc, sealed) {
		t.Fatalf("reply (%v) re-encodes to %x, want %x", err, enc, sealed)
	}
}

// realHandshake dials between two stacks and returns the handshake and
// the ack payloads as they crossed the link.
func realHandshake(f *testing.F) (hs, ack []byte) {
	d := newDuplex(f)
	idA := d.issue(f, d.a, d.signA, ephid.KindData, 1)
	idB := d.issue(f, d.b, d.signB, ephid.KindData, 2)
	d.link.AddTap(func(frame []byte, _ *netsim.Port) {
		var hdr wire.Header
		if hdr.DecodeFromBytes(frame) != nil || hdr.NextProto != wire.ProtoHandshake {
			return
		}
		payload := append([]byte(nil), frame[wire.HeaderSize:]...)
		if hdr.SrcAID == 1 {
			hs = payload
		} else {
			ack = payload
		}
	})
	conn, err := d.a.Dial(idA, &idB.Cert, DialOptions{Data0RTT: []byte("0-rtt")})
	if err != nil {
		f.Fatal(err)
	}
	d.sim.Run(1000)
	if !conn.Established() || hs == nil || ack == nil {
		f.Fatal("no handshake to seed the corpus with")
	}
	return hs, ack
}

// realIssuance runs an MS for one host and returns the host's side of
// the exchange, an issuance request as the host seals it, and the MS's
// sealed replies: an issued certificate, a renewal over the rate limit,
// and a renewal naming another host's EphID.
func realIssuance(f *testing.F) (w *issuanceWire, req []byte, replies [][]byte) {
	secret, err := crypto.ASSecretFromBytes(bytes.Repeat([]byte{5}, crypto.SymKeySize))
	if err != nil {
		f.Fatal(err)
	}
	sealer, err := ephid.NewSealer(secret)
	if err != nil {
		f.Fatal(err)
	}
	signer, err := crypto.GenerateSigner()
	if err != nil {
		f.Fatal(err)
	}
	const now, hid = 1_000_000, 42
	w = &issuanceWire{
		keys: crypto.DeriveHostASKeys([]byte("fuzzed host")),
		ctrl: sealer.Mint(ephid.Payload{HID: hid, ExpTime: now + 3600}),
	}
	block, err := aes.NewCipher(w.keys.Enc[:])
	if err != nil {
		f.Fatal(err)
	}
	if w.aead, err = cipher.NewGCM(block); err != nil {
		f.Fatal(err)
	}
	db := hostdb.New()
	db.Put(hostdb.Entry{HID: hid, Keys: w.keys, RegisteredAt: now})
	policy := ms.DefaultPolicy()
	policy.RenewBurst = 1
	svc := ms.New(64512, sealer, signer, db, policy, ephid.EphID{}, func() int64 { return now })

	dh, err := crypto.GenerateKeyPair()
	if err != nil {
		f.Fatal(err)
	}
	sig, err := crypto.GenerateSigner()
	if err != nil {
		f.Fatal(err)
	}
	issue := ms.Request{Kind: ephid.KindData, Lifetime: 900}
	copy(issue.DHPub[:], dh.PublicKey())
	copy(issue.SigPub[:], sig.PublicKey())
	seal := func(r ms.Request) []byte {
		ct, err := ms.EncodeRequest(w.keys.Enc[:], w.ctrl, &r)
		if err != nil {
			f.Fatal(err)
		}
		return ct
	}
	ask := func(r ms.Request) []byte {
		reply, err := svc.HandleRequest(w.ctrl, seal(r))
		if err != nil {
			f.Fatal(err)
		}
		return reply
	}
	ok := ask(issue)
	issued, err := ms.DecodeReply(w.keys.Enc[:], w.ctrl, ok)
	if err != nil {
		f.Fatal(err)
	}
	renew := issue
	renew.Flags, renew.Prev = ms.ReqFlagRenew, issued.EphID
	ask(renew) // spends the one renewal the policy allows
	limited := ask(renew)
	foreign := renew
	foreign.Prev = sealer.Mint(ephid.Payload{HID: hid + 1, ExpTime: now + 3600})
	denied := ask(foreign)
	for reply, want := range map[*[]byte]error{&limited: ms.ErrRenewRateLimited, &denied: ms.ErrForeignPrev} {
		if _, err := ms.DecodeReply(w.keys.Enc[:], w.ctrl, *reply); !errors.Is(err, want) {
			f.Fatalf("seed reply decodes to %v, want %v", err, want)
		}
	}
	return w, seal(issue), [][]byte{ok, limited, denied}
}
