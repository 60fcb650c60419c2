package crypto

import (
	"crypto/ecdh"
	"encoding/hex"
	"errors"
	"math/rand"
	"testing"
)

// smallOrderHex is libsodium's has_small_order blocklist written out
// independently of smallOrder's table: 0, 1, the two points of order 8,
// p-1, p and p+1, each with bit 255 clear.
var smallOrderHex = []string{
	"0000000000000000000000000000000000000000000000000000000000000000",
	"0100000000000000000000000000000000000000000000000000000000000000",
	"e0eb7a7c3b41b8ae1656e3faf19fc46ada098deb9c32b1fd866205165f49b800",
	"5f9c95bca3508c24b1d0b1559c83ef5b04445cc4581c8e86d8224eddd09f1157",
	"ecffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
	"edffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
	"eeffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
}

// smallOrderEncodings returns the 14 encodings ParseX25519PeerKey must
// reject: each of smallOrderHex with bit 255 clear and set.
func smallOrderEncodings(t testing.TB) [][]byte {
	var out [][]byte
	for _, h := range smallOrderHex {
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

// TestX25519PeerKeySmallOrder: every small-order encoding is refused
// with ErrLowOrderKey, by the validator and by SharedSecret, and
// crypto/ecdh's exchange fails on each of them too.
func TestX25519PeerKeySmallOrder(t *testing.T) {
	a, err := GenerateKeyPair()
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range smallOrderEncodings(t) {
		if _, err := ParseX25519PeerKey(u); !errors.Is(err, ErrLowOrderKey) {
			t.Errorf("%x: ParseX25519PeerKey err = %v, want ErrLowOrderKey", u, err)
		}
		if _, err := a.SharedSecret(u); !errors.Is(err, ErrLowOrderKey) {
			t.Errorf("%x: SharedSecret err = %v, want ErrLowOrderKey", u, err)
		}
		pub, err := ecdh.X25519().NewPublicKey(u)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := a.priv.ECDH(pub); err == nil {
			t.Errorf("%x: crypto/ecdh exchanged with a small-order key", u)
		}
	}
}

// FuzzX25519PeerKey: ParseX25519PeerKey rejects a key exactly when
// crypto/ecdh's X25519 exchange returns an error for it, so a session
// that validates its peer's key now and exchanges later cannot fail at
// the exchange.
func FuzzX25519PeerKey(f *testing.F) {
	for _, u := range smallOrderEncodings(f) {
		f.Add(u)
	}
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{32, 32, 32, 32, 31, 33, 0} {
		b := make([]byte, n)
		rng.Read(b)
		f.Add(b)
	}
	priv, err := KeyPairFromSeed(make([]byte, 32))
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, key []byte) {
		_, perr := ParseX25519PeerKey(key)
		eerr := func() error {
			pub, err := ecdh.X25519().NewPublicKey(key)
			if err != nil {
				return err
			}
			_, err = priv.priv.ECDH(pub)
			return err
		}()
		if (perr != nil) != (eerr != nil) {
			t.Fatalf("%x: ParseX25519PeerKey err = %v, crypto/ecdh err = %v", key, perr, eerr)
		}
	})
}
