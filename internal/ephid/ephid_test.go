package ephid

import (
	"bytes"
	"crypto/aes"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"apna/internal/crypto"
)

func testSealer(t *testing.T, key byte) *Sealer {
	t.Helper()
	secret, err := crypto.ASSecretFromBytes(bytes.Repeat([]byte{key}, crypto.SymKeySize))
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSealer(secret)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestMintOpenRoundTrip(t *testing.T) {
	s := testSealer(t, 1)
	p := Payload{HID: 0x0A000001, ExpTime: 1_700_000_000}
	e := s.Mint(p)
	got, err := s.Open(e)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if got != p {
		t.Errorf("payload = %+v, want %+v", got, p)
	}
}

func TestMintOpenProperty(t *testing.T) {
	s := testSealer(t, 2)
	f := func(hid uint32, exp uint32) bool {
		p := Payload{HID: HID(hid), ExpTime: exp}
		got, err := s.Open(s.Mint(p))
		return err == nil && got == p
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestOpenRejectsTampering(t *testing.T) {
	s := testSealer(t, 3)
	e := s.Mint(Payload{HID: 42, ExpTime: 100})
	for i := 0; i < Size; i++ {
		for _, bit := range []byte{0x01, 0x80} {
			mutated := e
			mutated[i] ^= bit
			if _, err := s.Open(mutated); err != ErrBadTag {
				t.Fatalf("byte %d bit %#x: err = %v, want ErrBadTag", i, bit, err)
			}
		}
	}
}

func TestOpenRejectsForeignAS(t *testing.T) {
	// An EphID minted by AS A must be opaque garbage to AS B
	// (EphIDs are "meaningful only to the issuing AS", Section III-B).
	a := testSealer(t, 4)
	b := testSealer(t, 5)
	e := a.Mint(Payload{HID: 7, ExpTime: 99})
	if _, err := b.Open(e); err != ErrBadTag {
		t.Errorf("foreign AS opened EphID: err = %v", err)
	}
}

func TestOpenRejectsZeroAndRandom(t *testing.T) {
	s := testSealer(t, 6)
	if _, err := s.Open(EphID{}); err != ErrBadTag {
		t.Errorf("zero EphID: err = %v", err)
	}
	f := func(raw [Size]byte) bool {
		// A random 16-byte string verifies with probability 2^-32;
		// quick's ~100 samples will not hit it.
		_, err := s.Open(EphID(raw))
		return err == ErrBadTag
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPayloadExpired(t *testing.T) {
	p := Payload{ExpTime: 500}
	if p.Expired(499) || p.Expired(500) {
		t.Error("payload expired too early")
	}
	if !p.Expired(501) {
		t.Error("payload not expired after ExpTime")
	}
}

func TestMintUniqueEphIDsSameHID(t *testing.T) {
	// Multiple EphIDs for one HID must differ (the IV makes them
	// unlinkable, Section V-A1).
	s := testSealer(t, 8)
	p := Payload{HID: 1, ExpTime: 42}
	seen := make(map[EphID]bool)
	for i := 0; i < 10_000; i++ {
		e := s.Mint(p)
		if seen[e] {
			t.Fatalf("duplicate EphID after %d mints", i)
		}
		seen[e] = true
	}
}

func TestMintConcurrentUniqueness(t *testing.T) {
	s := testSealer(t, 9)
	const workers, per = 8, 2000
	var mu sync.Mutex
	seen := make(map[EphID]bool, workers*per)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			local := make([]EphID, 0, per)
			for i := 0; i < per; i++ {
				local = append(local, s.Mint(Payload{HID: 3, ExpTime: 9}))
			}
			mu.Lock()
			defer mu.Unlock()
			for _, e := range local {
				if seen[e] {
					t.Error("concurrent duplicate EphID")
					return
				}
				seen[e] = true
			}
		}()
	}
	wg.Wait()
}

func TestConstructionMatchesFigure6(t *testing.T) {
	// Recompute the construction by hand with the derived keys and
	// check bit-exactness against mintWithIV.
	secret, _ := crypto.ASSecretFromBytes(bytes.Repeat([]byte{0xAA}, 16))
	s, err := NewSealer(secret)
	if err != nil {
		t.Fatal(err)
	}
	p := Payload{HID: 0x01020304, ExpTime: 0x05060708}
	iv := [4]byte{0xDE, 0xAD, 0xBE, 0xEF}
	e := s.mintWithIV(p, iv)

	// Manual CT: AES(kA', IV||0^12) XOR plaintext.
	enc, err := aes.NewCipher(secret.EphIDEncKey())
	if err != nil {
		t.Fatal(err)
	}
	var counter, ks [aes.BlockSize]byte
	copy(counter[:4], iv[:])
	enc.Encrypt(ks[:], counter[:])
	wantCT := []byte{
		ks[0] ^ 0x01, ks[1] ^ 0x02, ks[2] ^ 0x03, ks[3] ^ 0x04,
		ks[4] ^ 0x05, ks[5] ^ 0x06, ks[6] ^ 0x07, ks[7] ^ 0x08,
	}
	if !bytes.Equal(e[0:8], wantCT) {
		t.Errorf("CT = %x, want %x", e[0:8], wantCT)
	}
	if !bytes.Equal(e[8:12], iv[:]) {
		t.Errorf("IV field = %x, want %x", e[8:12], iv)
	}

	// Manual TAG: CBC-MAC(kA'', IV||0^4||CT)[:4]; over one block it is
	// AES under kA''.
	mac, err := aes.NewCipher(secret.EphIDMACKey())
	if err != nil {
		t.Fatal(err)
	}
	var macIn [16]byte
	copy(macIn[:4], iv[:])
	copy(macIn[8:], wantCT)
	var tag [16]byte
	mac.Encrypt(tag[:], macIn[:])
	if !bytes.Equal(e[12:16], tag[:4]) {
		t.Errorf("TAG = %x, want %x", e[12:16], tag[:4])
	}
}

func TestEphIDStringAndIsZero(t *testing.T) {
	var zero EphID
	if !zero.IsZero() {
		t.Error("zero EphID not IsZero")
	}
	s := testSealer(t, 10)
	e := s.Mint(Payload{HID: 1, ExpTime: 2})
	if e.IsZero() {
		t.Error("minted EphID IsZero")
	}
	str := e.String()
	if !strings.Contains(str, "-") || len(str) != 2*Size+2 {
		t.Errorf("String() = %q", str)
	}
}

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindData:        "data",
		KindControl:     "control",
		KindReceiveOnly: "receive-only",
		Kind(9):         "kind(9)",
	}
	for k, want := range cases {
		if k.String() != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, k, want)
		}
	}
}

func TestHIDAndAIDString(t *testing.T) {
	if got := HID(0x0A000001).String(); got != "10.0.0.1" {
		t.Errorf("HID string = %q", got)
	}
	if got := AID(64512).String(); got != "AS64512" {
		t.Errorf("AID string = %q", got)
	}
}

func TestSealerDeterministicAcrossInstances(t *testing.T) {
	// Two sealers from the same secret must open each other's EphIDs —
	// this is what lets every border router of an AS decode EphIDs
	// minted by the MS.
	secret, _ := crypto.ASSecretFromBytes(bytes.Repeat([]byte{0x42}, 16))
	s1, _ := NewSealer(secret)
	s2, _ := NewSealer(secret)
	p := Payload{HID: 77, ExpTime: 123456}
	got, err := s2.Open(s1.Mint(p))
	if err != nil || got != p {
		t.Errorf("cross-instance open: %+v, %v", got, err)
	}
}
