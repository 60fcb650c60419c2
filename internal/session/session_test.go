package session

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"apna/internal/crypto"
	"apna/internal/ephid"
	"apna/internal/spare"
)

func pair(t *testing.T) (*Session, *Session) {
	t.Helper()
	return pairOf(t, New, New)
}

// constructor is New or Start.
type constructor func(*crypto.KeyPair, []byte, ephid.EphID, ephid.EphID) (*Session, error)

// pairOf builds the two ends of one session, a with mkA and b with mkB.
func pairOf(t *testing.T, mkA, mkB constructor) (*Session, *Session) {
	t.Helper()
	aKey, err := crypto.GenerateKeyPair()
	if err != nil {
		t.Fatal(err)
	}
	bKey, err := crypto.GenerateKeyPair()
	if err != nil {
		t.Fatal(err)
	}
	var aID, bID ephid.EphID
	aID[0], bID[0] = 1, 2
	a, err := mkA(aKey, bKey.PublicKey(), aID, bID)
	if err != nil {
		t.Fatal(err)
	}
	b, err := mkB(bKey, aKey.PublicKey(), bID, aID)
	if err != nil {
		t.Fatal(err)
	}
	return a, b
}

func TestSessionBidirectional(t *testing.T) {
	a, b := pair(t)
	ct, err := a.Seal([]byte("from a"), []byte("aad"))
	if err != nil {
		t.Fatal(err)
	}
	pt, err := b.Open(ct, []byte("aad"))
	if err != nil {
		t.Fatal(err)
	}
	if string(pt) != "from a" {
		t.Errorf("pt = %q", pt)
	}
	ct2, err := b.Seal([]byte("from b"), nil)
	if err != nil {
		t.Fatal(err)
	}
	pt2, err := a.Open(ct2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(pt2) != "from b" {
		t.Errorf("pt2 = %q", pt2)
	}
}

func TestSessionRejectsTamperAndWrongAAD(t *testing.T) {
	a, b := pair(t)
	ct, _ := a.Seal([]byte("secret"), []byte("hdr"))
	bad := append([]byte(nil), ct...)
	bad[len(bad)-1] ^= 1
	if _, err := b.Open(bad, []byte("hdr")); !errors.Is(err, crypto.ErrDecrypt) {
		t.Errorf("tamper: %v", err)
	}
	if _, err := b.Open(ct, []byte("other")); !errors.Is(err, crypto.ErrDecrypt) {
		t.Errorf("aad: %v", err)
	}
}

func TestSessionThirdPartyCannotDecrypt(t *testing.T) {
	a, _ := pair(t)
	// Eve with her own keys, even knowing both EphIDs.
	eveKey, _ := crypto.GenerateKeyPair()
	var aID, bID ephid.EphID
	aID[0], bID[0] = 1, 2 // pair's EphIDs
	eve, err := New(eveKey, eveKey.PublicKey(), aID, bID)
	if err != nil {
		t.Fatal(err)
	}
	ct, _ := a.Seal([]byte("secret"), nil)
	if _, err := eve.Open(ct, nil); err == nil {
		t.Error("eavesdropper decrypted session traffic")
	}
}

func TestSessionPerfectForwardSecrecyShape(t *testing.T) {
	// Two sessions between the same parties with fresh EphID keys must
	// have unrelated keys: ciphertext from session 1 does not open in
	// session 2 (Section VI-B).
	a1, b1 := pair(t)
	_, b2 := pair(t)
	ct, _ := a1.Seal([]byte("past traffic"), nil)
	if _, err := b2.Open(ct, nil); err == nil {
		t.Error("new session opened old traffic — PFS broken")
	}
	if _, err := b1.Open(ct, nil); err != nil {
		t.Errorf("original session failed: %v", err)
	}
}

func TestSessionDeriveSymmetricRegardlessOfOrder(t *testing.T) {
	// The EphID ordering in the salt must make derivation symmetric
	// even when local/peer compare in the other direction.
	aKey, _ := crypto.GenerateKeyPair()
	bKey, _ := crypto.GenerateKeyPair()
	var hi, lo ephid.EphID
	hi[0], lo[0] = 9, 1
	// a is the host with the *larger* EphID this time.
	a, err := New(aKey, bKey.PublicKey(), hi, lo)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(bKey, aKey.PublicKey(), lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	ct, _ := a.Seal([]byte("x"), nil)
	if _, err := b.Open(ct, nil); err != nil {
		t.Errorf("asymmetric derivation: %v", err)
	}
}

func TestSessionAcceptSeq(t *testing.T) {
	a, _ := pair(t)
	if err := a.AcceptSeq(1); err != nil {
		t.Fatal(err)
	}
	if err := a.AcceptSeq(1); !errors.Is(err, ErrReplay) {
		t.Errorf("replay: %v", err)
	}
	if err := a.AcceptSeq(5); err != nil {
		t.Errorf("forward jump: %v", err)
	}
	if err := a.AcceptSeq(3); err != nil {
		t.Errorf("in-window out-of-order: %v", err)
	}
}

func TestWindowBasics(t *testing.T) {
	w := NewWindow(64)
	if w.Accept(0) {
		t.Error("seq 0 accepted")
	}
	for i := uint64(1); i <= 64; i++ {
		if !w.Accept(i) {
			t.Fatalf("fresh seq %d rejected", i)
		}
	}
	for i := uint64(1); i <= 64; i++ {
		if w.Accept(i) {
			t.Fatalf("duplicate seq %d accepted", i)
		}
	}
	if w.highest != 64 {
		t.Errorf("highest = %d", w.highest)
	}
}

func TestWindowOutOfOrder(t *testing.T) {
	w := NewWindow(64)
	if !w.Accept(50) {
		t.Fatal("seq 50")
	}
	// Everything within the window is still acceptable once.
	for i := uint64(1); i < 50; i++ {
		if !w.Accept(i) {
			t.Fatalf("in-window seq %d rejected", i)
		}
	}
}

func TestWindowTooOld(t *testing.T) {
	w := NewWindow(64)
	if !w.Accept(100) {
		t.Fatal("seq 100")
	}
	if w.Accept(36) {
		t.Error("seq 36 accepted (100-36=64 >= span)")
	}
	if !w.Accept(37) {
		t.Error("seq 37 rejected (just inside window)")
	}
}

func TestWindowBigJumpClears(t *testing.T) {
	w := NewWindow(64)
	for i := uint64(1); i <= 10; i++ {
		w.Accept(i)
	}
	if !w.Accept(10_000) {
		t.Fatal("big jump rejected")
	}
	// Everything old is now out of range.
	if w.Accept(10) {
		t.Error("ancient seq accepted after jump")
	}
	if !w.Accept(9_999) {
		t.Error("in-window seq after jump rejected")
	}
	if w.Accept(10_000) {
		t.Error("duplicate after jump accepted")
	}
}

func TestWindowMinimumSpan(t *testing.T) {
	w := NewWindow(1)
	if got := w.span; got != 64 {
		t.Errorf("span = %d, want 64", got)
	}
	w2 := NewWindow(65)
	if got := w2.span; got != 128 {
		t.Errorf("span = %d, want 128", got)
	}
}

func TestWindowNeverAcceptsTwiceProperty(t *testing.T) {
	f := func(seqs []uint16) bool {
		w := NewWindow(128)
		accepted := make(map[uint64]bool)
		for _, s16 := range seqs {
			seq := uint64(s16%512) + 1
			if w.Accept(seq) {
				if accepted[seq] {
					return false // double accept
				}
				accepted[seq] = true
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWindowMonotoneDeliveryAllAccepted(t *testing.T) {
	w := NewWindow(256)
	for i := uint64(1); i <= 100_000; i++ {
		if !w.Accept(i) {
			t.Fatalf("monotone seq %d rejected", i)
		}
	}
}

func TestSessionSealOpenSizesProperty(t *testing.T) {
	a, b := pair(t)
	f := func(payload []byte) bool {
		ct, err := a.Seal(payload, nil)
		if err != nil {
			return false
		}
		pt, err := b.Open(ct, nil)
		return err == nil && bytes.Equal(pt, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestAppendSealInPlace: the append form writes after what dst already
// holds (a host seals behind the packet header it has just written),
// leaves those bytes alone, yields what Seal yields, and — into a buffer
// with Overhead()+len(plaintext) to spare — allocates nothing, the check
// that Start's derivation has finished included.
func TestAppendSealInPlace(t *testing.T) {
	spareCore(t)
	a, b := pairOf(t, Start, New)
	pt, aad := bytes.Repeat([]byte{0xA5}, 1024), []byte("flow and nonce")
	header := []byte("64 bytes of header in the real thing")
	buf := make([]byte, 0, len(header)+len(pt)+a.Overhead())

	out, err := a.AppendSeal(append(buf, header...), pt, aad)
	if err != nil {
		t.Fatal(err)
	}
	if &out[0] != &buf[:1][0] || !bytes.HasPrefix(out, header) || len(out) != cap(buf) {
		t.Fatalf("sealed %d bytes (cap %d), moved=%v", len(out), cap(buf), &out[0] != &buf[:1][0])
	}
	if got, err := b.Open(out[len(header):], aad); err != nil || !bytes.Equal(got, pt) {
		t.Fatalf("peer cannot open what was sealed in place: %v", err)
	}

	spare.Idle()
	if n := testing.AllocsPerRun(100, func() {
		if _, err := a.AppendSeal(append(buf, header...), pt, aad); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("AppendSeal into a sized buffer allocates %v, want 0", n)
	}
}
