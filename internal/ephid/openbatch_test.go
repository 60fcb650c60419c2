package ephid

import (
	"bytes"
	"crypto/aes"
	"math/rand"
	"testing"

	"apna/internal/crypto"
)

// refOpen opens e the way Figure 6 reads, through crypto/aes alone: the
// CBC-MAC over IV || 0^4 || CT first, then one block of CTR keystream.
func refOpen(t *testing.T, secret *crypto.ASSecret, e EphID) (Payload, bool) {
	t.Helper()
	mac, err := crypto.NewCBCMAC(secret.EphIDMACKey())
	if err != nil {
		t.Fatal(err)
	}
	enc, err := crypto.NewBlockCipher(secret.EphIDEncKey())
	if err != nil {
		t.Fatal(err)
	}
	var macIn, counter [aes.BlockSize]byte
	copy(macIn[:ivLen], e[ivOff:ivOff+ivLen])
	copy(macIn[ivLen+4:], e[ctOff:ctOff+ctLen])
	if !mac.Verify(e[tagOff:tagOff+tagLen], macIn[:]) {
		return Payload{}, false
	}
	copy(counter[:ivLen], e[ivOff:ivOff+ivLen])
	var pt [ctLen]byte
	copy(pt[:], e[ctOff:ctOff+ctLen])
	enc.XORKeystream(pt[:], &counter)
	return decodePlain(&pt), true
}

// TestOpenBatchAgrees checks OpenBatch, and Open on top of it, against
// the reference over every batch length around the lane count and the
// pipelines' chunk, with valid, bit-flipped, foreign-AS, random and
// expired EphIDs mixed in every position.
func TestOpenBatchAgrees(t *testing.T) {
	secret, err := crypto.ASSecretFromBytes(bytes.Repeat([]byte{9}, crypto.SymKeySize))
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSealer(secret)
	if err != nil {
		t.Fatal(err)
	}
	foreign := testSealer(t, 10)
	rng := rand.New(rand.NewSource(1))
	const now = 1_000_000
	kinds := 0
	for n := 0; n <= 67; n++ {
		ids := make([]EphID, n)
		for i := range ids {
			p := Payload{HID: HID(rng.Uint32()), ExpTime: now + 600}
			switch kind := rng.Intn(6); kind {
			case 0, 1:
				ids[i] = s.Mint(p)
			case 2:
				ids[i] = s.Mint(p)
				ids[i][rng.Intn(Size)] ^= 1 << rng.Intn(8)
			case 3:
				ids[i] = foreign.Mint(p)
			case 4:
				rng.Read(ids[i][:])
			case 5:
				p.ExpTime = now - 1
				ids[i] = s.Mint(p)
			}
		}
		// Stale results from the previous length must be overwritten.
		out, ok := make([]Payload, n+1), make([]bool, n+1)
		for i := range out {
			out[i], ok[i] = Payload{HID: 0xdead, ExpTime: 1}, i%2 == 0
		}
		s.OpenBatch(ids, out, ok)
		for i, e := range ids {
			want, wantOK := refOpen(t, secret, e)
			if ok[i] != wantOK || out[i] != want {
				t.Fatalf("length %d, EphID %d: OpenBatch = %+v, %v; reference %+v, %v", n, i, out[i], ok[i], want, wantOK)
			}
			p, err := s.Open(e)
			if (err == nil) != wantOK || p != want {
				t.Fatalf("length %d, EphID %d: Open = %+v, %v; reference %+v, %v", n, i, p, err, want, wantOK)
			}
			if wantOK && want.Expired(now) {
				kinds |= 1
			} else if wantOK {
				kinds |= 2
			} else {
				kinds |= 4
			}
		}
		if out[n].HID != 0xdead {
			t.Fatalf("length %d: OpenBatch wrote past the batch", n)
		}
	}
	if kinds != 7 {
		t.Fatalf("the batches lacked an expired, a valid or a rejected EphID (mask %b)", kinds)
	}
}

func TestOpenZeroAllocs(t *testing.T) {
	s := testSealer(t, 11)
	ids := make([]EphID, 64)
	for i := range ids {
		ids[i] = s.Mint(Payload{HID: HID(i), ExpTime: 5})
	}
	out, ok := make([]Payload, len(ids)), make([]bool, len(ids))
	if n := testing.AllocsPerRun(100, func() { s.OpenBatch(ids, out, ok) }); n != 0 {
		t.Errorf("OpenBatch allocates %.1f times per batch", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := s.Open(ids[3]); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Open allocates %.1f times per EphID", n)
	}
}

func BenchmarkOpen(b *testing.B) {
	s, ids := benchIDs(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Open(ids[i%len(ids)]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOpenBatch(b *testing.B) {
	s, ids := benchIDs(b)
	out, ok := make([]Payload, len(ids)), make([]bool, len(ids))
	b.ResetTimer()
	for i := 0; i < b.N; i += len(ids) {
		s.OpenBatch(ids, out, ok)
	}
}

func benchIDs(b *testing.B) (*Sealer, []EphID) {
	secret, err := crypto.ASSecretFromBytes(bytes.Repeat([]byte{12}, crypto.SymKeySize))
	if err != nil {
		b.Fatal(err)
	}
	s, err := NewSealer(secret)
	if err != nil {
		b.Fatal(err)
	}
	ids := make([]EphID, 64)
	for i := range ids {
		ids[i] = s.Mint(Payload{HID: HID(i), ExpTime: 5})
	}
	b.ReportAllocs()
	return s, ids
}
