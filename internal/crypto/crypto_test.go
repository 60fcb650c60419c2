package crypto

import (
	"bytes"
	"errors"
	"testing"
)

func TestASSecretDerivations(t *testing.T) {
	s, err := ASSecretFromBytes(bytes.Repeat([]byte{7}, SymKeySize))
	if err != nil {
		t.Fatal(err)
	}
	keys := map[string][]byte{
		"enc": s.EphIDEncKey(),
		"mac": s.EphIDMACKey(),
		"ctl": s.InfraControlKey(),
	}
	seen := make(map[string]string)
	for name, k := range keys {
		if len(k) != SymKeySize {
			t.Errorf("%s key has size %d", name, len(k))
		}
		if prev, dup := seen[string(k)]; dup {
			t.Errorf("keys %s and %s are identical", name, prev)
		}
		seen[string(k)] = name
	}
	// Determinism.
	if !bytes.Equal(s.EphIDEncKey(), s.EphIDEncKey()) {
		t.Error("EphIDEncKey is not deterministic")
	}
}

func TestASSecretFromBytesLength(t *testing.T) {
	if _, err := ASSecretFromBytes(make([]byte, 15)); err == nil {
		t.Error("15-byte secret accepted")
	}
	if _, err := NewASSecret(); err != nil {
		t.Errorf("NewASSecret: %v", err)
	}
}

func TestDeriveHostASKeys(t *testing.T) {
	k := DeriveHostASKeys([]byte("shared-dh-secret"))
	if bytes.Equal(k.Enc[:], k.MAC[:]) {
		t.Error("enc and mac keys are identical")
	}
	k2 := DeriveHostASKeys([]byte("shared-dh-secret"))
	if k != k2 {
		t.Error("derivation not deterministic")
	}
	k3 := DeriveHostASKeys([]byte("other-secret"))
	if k == k3 {
		t.Error("different secrets gave identical keys")
	}
}

func TestX25519SharedSecretAgreement(t *testing.T) {
	a, err := GenerateKeyPair()
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateKeyPair()
	if err != nil {
		t.Fatal(err)
	}
	s1, err := a.SharedSecret(b.PublicKey())
	if err != nil {
		t.Fatal(err)
	}
	s2, err := b.SharedSecret(a.PublicKey())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(s1, s2) {
		t.Error("shared secrets disagree")
	}
	if len(a.PublicKey()) != X25519PublicKeySize {
		t.Errorf("public key size %d", len(a.PublicKey()))
	}
}

func TestX25519RFC7748Vector(t *testing.T) {
	// RFC 7748 Section 6.1 Diffie-Hellman vector.
	aliceSeed := mustHex(t, "77076d0a7318a57d3c16c17251b26645df4c2f87ebc0992ab177fba51db92c2a")
	bobPub := mustHex(t, "de9edb7d7b7dc1b4d35b61c2ece435373f8343c85b78674dadfc7e146f882b4f")
	wantShared := mustHex(t, "4a5d9d5ba4ce2de1728e3bf480350f25e07e21c947d19e3376f09b3c1e161742")

	alice, err := KeyPairFromSeed(aliceSeed)
	if err != nil {
		t.Fatal(err)
	}
	got, err := alice.SharedSecret(bobPub)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, wantShared) {
		t.Errorf("shared = %x, want %x", got, wantShared)
	}
}

func TestX25519BadPeerKey(t *testing.T) {
	a, _ := GenerateKeyPair()
	if _, err := a.SharedSecret(make([]byte, 31)); err == nil {
		t.Error("31-byte peer key accepted")
	}
	if _, err := KeyPairFromSeed(make([]byte, 5)); err == nil {
		t.Error("5-byte seed accepted")
	}
}

func TestSignVerify(t *testing.T) {
	s, err := GenerateSigner()
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("certify this EphID")
	sig := s.Sign("apna/test", msg)
	if len(sig) != SignatureSize {
		t.Errorf("signature size %d", len(sig))
	}
	if !Verify(s.PublicKey(), "apna/test", msg, sig) {
		t.Error("valid signature rejected")
	}
	if Verify(s.PublicKey(), "apna/other", msg, sig) {
		t.Error("signature accepted under wrong label (domain separation broken)")
	}
	if Verify(s.PublicKey(), "apna/test", append(msg, 'x'), sig) {
		t.Error("signature accepted for modified message")
	}
	sig[0] ^= 1
	if Verify(s.PublicKey(), "apna/test", msg, sig) {
		t.Error("corrupted signature accepted")
	}
}

func TestSignerFromSeedDeterministic(t *testing.T) {
	seed := bytes.Repeat([]byte{3}, 32)
	s1, err := SignerFromSeed(seed)
	if err != nil {
		t.Fatal(err)
	}
	s2, _ := SignerFromSeed(seed)
	if !bytes.Equal(s1.PublicKey(), s2.PublicKey()) {
		t.Error("seeded signers differ")
	}
	if _, err := SignerFromSeed(make([]byte, 16)); err == nil {
		t.Error("short seed accepted")
	}
}

func TestVerifyBadInputs(t *testing.T) {
	s, _ := GenerateSigner()
	sig := s.Sign("l", []byte("m"))
	if Verify(nil, "l", []byte("m"), sig) {
		t.Error("nil public key accepted")
	}
	if Verify(s.PublicKey(), "l", []byte("m"), sig[:10]) {
		t.Error("short signature accepted")
	}
}

func TestAEADRoundTrip(t *testing.T) {
	key := DeriveKey([]byte("secret"), "test", SessionKeySize)
	a, err := NewAEAD(key, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewAEAD(key, 1)
	if err != nil {
		t.Fatal(err)
	}
	pt := []byte("attack at dawn")
	aad := []byte("header")
	ct, err := a.Seal(nil, pt, aad)
	if err != nil {
		t.Fatal(err)
	}
	got, err := b.Open(nil, ct, aad)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if !bytes.Equal(got, pt) {
		t.Errorf("plaintext = %q, want %q", got, pt)
	}
}

func TestAEADRejectsTampering(t *testing.T) {
	key := DeriveKey([]byte("secret"), "test", SymKeySize)
	a, _ := NewAEAD(key, 0)
	ct, _ := a.Seal(nil, []byte("payload"), []byte("aad"))

	for i := range ct {
		ct[i] ^= 1
		if _, err := a.Open(nil, ct, []byte("aad")); err == nil {
			t.Fatalf("tampered byte %d accepted", i)
		}
		ct[i] ^= 1
	}
	if _, err := a.Open(nil, ct, []byte("wrong-aad")); err == nil {
		t.Error("wrong AAD accepted")
	}
	if _, err := a.Open(nil, ct[:10], []byte("aad")); err == nil {
		t.Error("truncated ciphertext accepted")
	}
}

func TestAEADNoncesUnique(t *testing.T) {
	key := DeriveKey([]byte("secret"), "test", SymKeySize)
	a, _ := NewAEAD(key, 0)
	seen := make(map[string]bool)
	for i := 0; i < 1000; i++ {
		ct, err := a.Seal(nil, []byte("x"), nil)
		if err != nil {
			t.Fatal(err)
		}
		nonce := string(ct[:NonceSize])
		if seen[nonce] {
			t.Fatalf("nonce reuse at message %d", i)
		}
		seen[nonce] = true
	}
}

// TestAEADDirectionBit: every nonce a direction-d AEAD seals, counter
// or random, carries d in bit 0 of its first byte, so the two sealers
// of one key never share a nonce — including the prefixes a XOR of the
// direction into random bits would have let collide.
func TestAEADDirectionBit(t *testing.T) {
	key := DeriveKey([]byte("secret"), "test", SymKeySize)
	for dir := byte(0); dir < 2; dir++ {
		for i := 0; i < 64; i++ {
			a, err := NewAEAD(key, dir)
			if err != nil {
				t.Fatal(err)
			}
			counted, err := a.Seal(nil, []byte("x"), nil)
			if err != nil {
				t.Fatal(err)
			}
			once, err := a.SealOnce(nil, []byte("x"), nil)
			if err != nil {
				t.Fatal(err)
			}
			if counted[0]&1 != dir || once[0]&1 != dir {
				t.Fatalf("direction %d: nonces %x, %x", dir, counted[:NonceSize], once[:NonceSize])
			}
			if got, err := a.Open(nil, once, nil); err != nil || string(got) != "x" {
				t.Fatalf("SealOnce output does not open: %q, %v", got, err)
			}
		}
	}
}

// TestAEADNonceExhausted starts the counter two seals short of maxSeals:
// the last counter nonce still seals a message that opens, and the seal
// after it is refused with ErrNonceExhausted without writing to dst.
func TestAEADNonceExhausted(t *testing.T) {
	key := DeriveKey([]byte("secret"), "test", SymKeySize)
	a, err := NewAEAD(key, 0)
	if err != nil {
		t.Fatal(err)
	}
	a.ctr.Store(maxSeals - 2)
	last, err := a.Seal(nil, []byte("last"), nil)
	if err != nil {
		t.Fatalf("seal %d: %v", maxSeals-1, err)
	}
	if got, err := a.Open(nil, last, nil); err != nil || string(got) != "last" {
		t.Fatalf("last counter nonce does not open: %q, %v", got, err)
	}
	// dst has room for the sealed message, so a write would land in
	// its spare capacity: compare all of it.
	dst := append(make([]byte, 0, 64), "prefix"...)
	before := bytes.Clone(dst[:cap(dst)])
	out, err := a.Seal(dst, []byte("one too many"), nil)
	if !errors.Is(err, ErrNonceExhausted) {
		t.Fatalf("seal %d: %v, want ErrNonceExhausted", maxSeals, err)
	}
	if out != nil || !bytes.Equal(dst[:cap(dst)], before) {
		t.Errorf("refused seal returned %x and left dst %q, want nil and %q", out, dst[:cap(dst)], before)
	}
}

func TestAEADKeySizes(t *testing.T) {
	if _, err := NewAEAD(make([]byte, 16), 0); err != nil {
		t.Errorf("16-byte key rejected: %v", err)
	}
	if _, err := NewAEAD(make([]byte, 32), 0); err != nil {
		t.Errorf("32-byte key rejected: %v", err)
	}
	if _, err := NewAEAD(make([]byte, 17), 0); err == nil {
		t.Error("17-byte key accepted")
	}
}

func TestDeriveSessionKeySymmetry(t *testing.T) {
	a, _ := GenerateKeyPair()
	b, _ := GenerateKeyPair()
	sa, _ := a.SharedSecret(b.PublicKey())
	sb, _ := b.SharedSecret(a.PublicKey())
	salt := []byte("ephid-a|ephid-b")
	ka := DeriveSessionKey(sa, salt)
	kb := DeriveSessionKey(sb, salt)
	if !bytes.Equal(ka, kb) {
		t.Error("session keys disagree")
	}
	if len(ka) != SessionKeySize {
		t.Errorf("session key size %d", len(ka))
	}
	if bytes.Equal(ka, DeriveSessionKey(sa, []byte("other-salt"))) {
		t.Error("salt does not affect session key")
	}
}
