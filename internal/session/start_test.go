package session

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"encoding/hex"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"

	"apna/internal/crypto"
	"apna/internal/ephid"
	"apna/internal/spare"
)

// spareCore gives the test at least two Ps, so Start can defer, and
// restores GOMAXPROCS afterwards.
func spareCore(t *testing.T) {
	t.Helper()
	if prev := runtime.GOMAXPROCS(0); prev < 2 {
		runtime.GOMAXPROCS(2)
		t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	}
}

// setHook installs deferredHook for one test. The test must have waited
// for every derivation it started (a Seal or Open does) before it ends.
func setHook(t *testing.T, hook func() error) {
	t.Helper()
	spare.Idle()
	deferredHook = hook
	t.Cleanup(func() { deferredHook = nil })
}

// countDeferred installs a hook that counts deferred derivations.
func countDeferred(t *testing.T) *atomic.Int64 {
	var n atomic.Int64
	setHook(t, func() error { n.Add(1); return nil })
	return &n
}

// TestStartInteroperatesWithNew: a Start end and a New end talk in both
// directions, whichever end was started; and a Start end's first
// message is byte for byte what a New end built from the same keys and
// EphIDs seals — both are AES-GCM under the HKDF key of Section IV-D1,
// at counter 1 and the same direction bit, checked against a reference
// GCM built here from that key.
func TestStartInteroperatesWithNew(t *testing.T) {
	spareCore(t)
	deferredN := countDeferred(t)
	for _, tc := range []struct {
		name     string
		mkA, mkB constructor
	}{{"Start dials New", Start, New}, {"New dials Start", New, Start}} {
		t.Run(tc.name, func(t *testing.T) {
			a, b := pairOf(t, tc.mkA, tc.mkB)
			for _, dir := range []struct {
				from, to *Session
				pt       string
			}{{a, b, "a to b"}, {b, a, "b to a"}, {a, b, "a to b again"}} {
				ct, err := dir.from.Seal([]byte(dir.pt), []byte("aad"))
				if err != nil {
					t.Fatal(err)
				}
				if got, err := dir.to.Open(ct, []byte("aad")); err != nil || string(got) != dir.pt {
					t.Fatalf("%s: %q, %v", dir.pt, got, err)
				}
			}
		})
	}
	if n := deferredN.Load(); n != 2 {
		t.Errorf("%d derivations deferred, want 2 (one per Start)", n)
	}

	aKey, err := crypto.GenerateKeyPair()
	if err != nil {
		t.Fatal(err)
	}
	bKey, err := crypto.GenerateKeyPair()
	if err != nil {
		t.Fatal(err)
	}
	for _, ids := range [][2]ephid.EphID{{{0: 1}, {0: 2}}, {{0: 9}, {0: 1}}} {
		local, peer := ids[0], ids[1]
		secret, err := aKey.SharedSecret(bKey.PublicKey())
		if err != nil {
			t.Fatal(err)
		}
		salt := append(append([]byte(nil), local[:]...), peer[:]...)
		if !lexLess(local, peer) {
			salt = append(append([]byte(nil), peer[:]...), local[:]...)
		}
		block, err := aes.NewCipher(crypto.DeriveSessionKey(secret, salt))
		if err != nil {
			t.Fatal(err)
		}
		ref, err := cipher.NewGCM(block)
		if err != nil {
			t.Fatal(err)
		}
		pt, aad := []byte("same keys, same counter"), []byte("hdr")
		var sealed [][]byte
		for _, mk := range []constructor{Start, New} {
			s, err := mk(aKey, bKey.PublicKey(), local, peer)
			if err != nil {
				t.Fatal(err)
			}
			msg, err := s.Seal(pt, aad)
			if err != nil {
				t.Fatal(err)
			}
			nonce := msg[:crypto.NonceSize]
			if want := ref.Seal(append([]byte(nil), nonce...), nonce, pt, aad); !bytes.Equal(msg, want) {
				t.Fatalf("sealed %x, reference GCM under the session key %x", msg, want)
			}
			sealed = append(sealed, msg)
		}
		s, n := sealed[0], sealed[1]
		if s[0]&1 != n[0]&1 || !bytes.Equal(s[4:crypto.NonceSize], n[4:crypto.NonceSize]) {
			t.Errorf("Start and New ends differ in direction bit or counter: %x vs %x", s[:crypto.NonceSize], n[:crypto.NonceSize])
		}
	}
}

// TestStartCopiesPeerKey: the caller may overwrite the key bytes it
// handed Start as soon as Start returns; the deferred derivation still
// agrees on the key Start checked.
func TestStartCopiesPeerKey(t *testing.T) {
	spareCore(t)
	release := make(chan struct{})
	setHook(t, func() error { <-release; return nil })
	aKey, err := crypto.GenerateKeyPair()
	if err != nil {
		t.Fatal(err)
	}
	bKey, err := crypto.GenerateKeyPair()
	if err != nil {
		t.Fatal(err)
	}
	local, peer := ephid.EphID{0: 1}, ephid.EphID{0: 2}
	peerPub := bKey.PublicKey()
	a, err := Start(aKey, peerPub, local, peer)
	if err != nil {
		t.Fatal(err)
	}
	clear(peerPub) // a small-order key, had the derivation read it
	close(release)
	b, err := New(bKey, aKey.PublicKey(), peer, local)
	if err != nil {
		t.Fatal(err)
	}
	ct, err := a.Seal([]byte("checked key"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if pt, err := b.Open(ct, nil); err != nil || string(pt) != "checked key" {
		t.Fatalf("%q, %v", pt, err)
	}
}

// smallOrderKeys returns libsodium's has_small_order encodings — 0, 1,
// the two points of order 8, p-1, p, p+1 — each with bit 255 clear and
// set.
func smallOrderKeys(t *testing.T) [][]byte {
	var out [][]byte
	for _, h := range []string{
		"0000000000000000000000000000000000000000000000000000000000000000",
		"0100000000000000000000000000000000000000000000000000000000000000",
		"e0eb7a7c3b41b8ae1656e3faf19fc46ada098deb9c32b1fd866205165f49b800",
		"5f9c95bca3508c24b1d0b1559c83ef5b04445cc4581c8e86d8224eddd09f1157",
		"ecffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
		"edffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
		"eeffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
	} {
		u, err := hex.DecodeString(h)
		if err != nil {
			t.Fatal(err)
		}
		high := append([]byte(nil), u...)
		high[31] |= 0x80
		out = append(out, u, high)
	}
	return out
}

// TestSessionBadPeerKey: New and Start both refuse a 31-byte key and
// every small-order key synchronously, and Start defers nothing for
// them.
func TestSessionBadPeerKey(t *testing.T) {
	spareCore(t)
	deferredN := countDeferred(t)
	aKey, err := crypto.GenerateKeyPair()
	if err != nil {
		t.Fatal(err)
	}
	for _, mk := range []struct {
		name string
		fn   constructor
	}{{"New", New}, {"Start", Start}} {
		if s, err := mk.fn(aKey, make([]byte, 31), ephid.EphID{}, ephid.EphID{1}); err == nil || s != nil {
			t.Errorf("%s: 31-byte peer key accepted", mk.name)
		}
		for _, u := range smallOrderKeys(t) {
			if s, err := mk.fn(aKey, u, ephid.EphID{}, ephid.EphID{1}); !errors.Is(err, crypto.ErrLowOrderKey) || s != nil {
				t.Errorf("%s: small-order peer key %x: err = %v", mk.name, u, err)
			}
		}
	}
	if n := deferredN.Load(); n != 0 {
		t.Errorf("%d derivations deferred for rejected keys", n)
	}
}

// TestStartDeferredFailure: when the deferred half fails, every Seal,
// AppendSeal and Open on the session returns its error, however often
// they are called.
func TestStartDeferredFailure(t *testing.T) {
	spareCore(t)
	errInjected := errors.New("injected derivation failure")
	setHook(t, func() error { return errInjected })
	a, b := pairOf(t, Start, New)
	ct, err := b.Seal([]byte("to a"), nil)
	if err != nil {
		t.Fatal(err)
	}
	for range 2 {
		if out, err := a.Seal([]byte("x"), nil); !errors.Is(err, errInjected) || out != nil {
			t.Errorf("Seal: %x, %v", out, err)
		}
		if out, err := a.AppendSeal(make([]byte, 3, 64), []byte("x"), nil); !errors.Is(err, errInjected) || out != nil {
			t.Errorf("AppendSeal: %x, %v", out, err)
		}
		if out, err := a.Open(ct, nil); !errors.Is(err, errInjected) || out != nil {
			t.Errorf("Open: %q, %v", out, err)
		}
	}
	if a.seal != nil || a.open != nil {
		t.Error("a failed session holds AEADs")
	}
}

// TestStartInlineAtOneProc: with GOMAXPROCS 1 there is no core to
// defer to, so Start derives on the caller's.
func TestStartInlineAtOneProc(t *testing.T) {
	deferredN := countDeferred(t)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	a, b := pairOf(t, Start, Start)
	ct, err := a.Seal([]byte("inline"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if pt, err := b.Open(ct, nil); err != nil || string(pt) != "inline" {
		t.Fatalf("%q, %v", pt, err)
	}
	if n := deferredN.Load(); n != 0 {
		t.Errorf("%d derivations deferred at GOMAXPROCS 1", n)
	}
}

// TestStartBound: while deferred derivations hold the spare-core
// budget, a burst of Starts beyond it derives inline, and every
// session works.
func TestStartBound(t *testing.T) {
	spareCore(t)
	release := make(chan struct{})
	var deferredN atomic.Int64
	setHook(t, func() error { deferredN.Add(1); <-release; return nil })
	aKey, err := crypto.GenerateKeyPair()
	if err != nil {
		t.Fatal(err)
	}
	bKey, err := crypto.GenerateKeyPair()
	if err != nil {
		t.Fatal(err)
	}
	spare.Idle()
	local, peer := ephid.EphID{0: 1}, ephid.EphID{0: 2}
	sessions := make([]*Session, 64)
	for i := range sessions {
		if sessions[i], err = Start(aKey, bKey.PublicKey(), local, peer); err != nil {
			t.Fatal(err)
		}
	}
	close(release)
	peerEnd, err := New(bKey, aKey.PublicKey(), peer, local)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range sessions {
		ct, err := s.Seal([]byte("bounded"), nil)
		if err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
		if _, err := peerEnd.Open(ct, nil); err != nil {
			t.Fatalf("session %d: peer cannot open: %v", i, err)
		}
	}
	if n := deferredN.Load(); n == 0 || n == int64(len(sessions)) {
		t.Errorf("%d of %d Starts deferred, want some but not all", n, len(sessions))
	}
}
