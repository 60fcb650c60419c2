package cert

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"testing"

	"apna/internal/crypto"
	"apna/internal/ephid"
)

// batchOf returns n distinct unsigned certificates sharing one ExpTime.
func batchOf(n int, exp uint32) []*Cert {
	certs := make([]*Cert, n)
	for i := range certs {
		c := &Cert{Kind: ephid.KindData, ExpTime: exp, AID: 64512}
		c.EphID[0], c.EphID[1] = byte(i), byte(i>>8)
		c.DHPub[0], c.SigPub[0] = byte(i), byte(i)
		certs[i] = c
	}
	return certs
}

func newSigner(t *testing.T) *crypto.Signer {
	t.Helper()
	s, err := crypto.GenerateSigner()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// refRoot recomputes a certificate's tree root from the format's
// definition, independently of root: leaf = SHA-256(0x00 ‖ TBS), node =
// SHA-256(0x01 ‖ L ‖ R), bit k of the index says the node at height k
// is a right child.
func refRoot(c *Cert) [32]byte {
	tbs, _ := c.MarshalBinary()
	h := sha256.Sum256(append([]byte{0x00}, tbs[:tbsSize]...))
	for k := 0; k < int(c.Depth); k++ {
		l, r := h[:], c.Path[k][:]
		if c.Index>>k&1 == 1 {
			l, r = r, l
		}
		h = sha256.Sum256(append(append([]byte{0x01}, l...), r...))
	}
	return h
}

// TestBatchOracle: for every batch size up to MaxBatch, every
// certificate SignBatch signs verifies, carries a path of the smallest
// depth that holds the batch, and its signature is the AS's over the
// root the format defines; each index appears once.
func TestBatchOracle(t *testing.T) {
	signer := newSigner(t)
	for n := 1; n <= MaxBatch; n++ {
		certs := batchOf(n, 2_000_000_000)
		SignBatch(certs, signer)
		depth := 0
		for 1<<depth < n {
			depth++
		}
		seen := make(map[uint8]bool, n)
		for _, c := range certs {
			if err := c.Verify(signer.PublicKey(), 0); err != nil {
				t.Fatalf("batch %d, index %d: %v", n, c.Index, err)
			}
			if int(c.Depth) != depth || seen[c.Index] {
				t.Fatalf("batch %d: depth %d (want %d), index %d (seen %v)", n, c.Depth, depth, c.Index, seen[c.Index])
			}
			seen[c.Index] = true
			root := refRoot(c)
			if !crypto.Verify(signer.PublicKey(), rootLabel, root[:], c.Signature[:]) {
				t.Fatalf("batch %d, index %d: signature is not over the reference root", n, c.Index)
			}
			if c.Signature != certs[0].Signature {
				t.Fatalf("batch %d: two signatures in one tree", n)
			}
		}
	}
}

// TestBatchTamperRejected: one certificate from batches of several
// sizes, each alteration of it rejected with ErrBadSignature — every
// TBS field, every path hash, every index bit, the depth both ways, the
// signature, and a path grafted from another batch of the same shape.
func TestBatchTamperRejected(t *testing.T) {
	signer := newSigner(t)
	for _, n := range []int{1, 2, 3, 5, 8, 33, MaxBatch} {
		certs := batchOf(n, 2_000_000_000)
		SignBatch(certs, signer)
		other := batchOf(n, 2_000_000_000)
		for _, c := range other {
			c.AID++
		}
		SignBatch(other, signer)
		for _, c := range []*Cert{certs[0], certs[n-1]} {
			mutations := map[string]func(*Cert){
				"kind":      func(c *Cert) { c.Kind = ephid.KindReceiveOnly },
				"ephid":     func(c *Cert) { c.EphID[0] ^= 0x80 },
				"exptime":   func(c *Cert) { c.ExpTime++ },
				"dhpub":     func(c *Cert) { c.DHPub[5] ^= 1 },
				"sigpub":    func(c *Cert) { c.SigPub[5] ^= 1 },
				"aid":       func(c *Cert) { c.AID++ },
				"aaephid":   func(c *Cert) { c.AAEphID[3] ^= 1 },
				"signature": func(c *Cert) { c.Signature[10] ^= 0xFF },
				"depth+1":   func(c *Cert) { c.Depth++ },
				"index≥2^d": func(c *Cert) { c.Index = uint8(1) << c.Depth },
			}
			if c.Depth > 0 {
				mutations["depth-1"] = func(c *Cert) { c.Depth-- }
			}
			for k := range int(c.Depth) {
				mutations["path"+string(rune('0'+k))] = func(c *Cert) { c.Path[k][7] ^= 1 }
				mutations["index-bit"+string(rune('0'+k))] = func(c *Cert) { c.Index ^= 1 << k }
			}
			for _, o := range other {
				if o.Index == c.Index && n > 1 {
					mutations["grafted path"] = func(c *Cert) { c.Path = o.Path }
				}
			}
			for name, mutate := range mutations {
				m := *c
				mutate(&m)
				if err := m.VerifySignature(signer.PublicKey()); !errors.Is(err, ErrBadSignature) {
					t.Errorf("batch %d, index %d, %s: err = %v, want ErrBadSignature", n, c.Index, name, err)
				}
			}
		}
	}
}

// TestNodeIsNotALeaf: an inner node cannot stand in for a leaf (a
// second preimage). A certificate's TBS is hashed under the leaf
// prefix, so the leaf hash of a node's two children, concatenated, is
// not the node's hash — without the prefixes it would be — and the
// padding leaf is neither.
func TestNodeIsNotALeaf(t *testing.T) {
	signer := newSigner(t)
	certs := batchOf(4, 2_000_000_000)
	SignBatch(certs, signer)
	var leaves [4][HashSize]byte
	for _, c := range certs {
		leaves[c.Index] = c.leaf()
	}
	inner := node(&leaves[0], &leaves[1])
	if leafHash(append(bytes.Clone(leaves[0][:]), leaves[1][:]...)) == inner {
		t.Fatal("leaf hash of two children equals their parent node")
	}
	if padLeaf == inner || padLeaf == leaves[0] {
		t.Fatal("padding leaf collides with a tree hash")
	}
	if want := sha256.Sum256([]byte{0x02}); padLeaf != want {
		t.Fatalf("padding leaf %x, want SHA-256(0x02)", padLeaf)
	}
}

// TestSignClearsPath: a certificate signed in a batch and then signed
// alone carries depth 0, index 0 and a zero path, so it survives an
// encode/decode round trip unchanged and verifies.
func TestSignClearsPath(t *testing.T) {
	signer := newSigner(t)
	certs := batchOf(MaxBatch, 2_000_000_000)
	SignBatch(certs, signer)
	for _, c := range certs[:4] {
		c.Sign(signer)
		if c.Depth != 0 || c.Index != 0 || c.Path != ([MaxDepth][HashSize]byte{}) {
			t.Fatalf("re-signed alone: depth %d, index %d, path %x", c.Depth, c.Index, c.Path)
		}
		raw, err := c.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		var got Cert
		if err := got.UnmarshalBinary(raw); err != nil || !got.Equal(c) {
			t.Fatalf("round trip: %v, equal %v", err, got.Equal(c))
		}
		if err := got.Verify(signer.PublicKey(), 0); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSignBatchSplitsByExpTimeAndSize: a tree never mixes two ExpTime
// values and never holds more than MaxBatch leaves.
func TestSignBatchSplitsByExpTimeAndSize(t *testing.T) {
	signer := newSigner(t)
	a, b := batchOf(MaxBatch+1, 1000), batchOf(3, 1001)
	mixed := append(append([]*Cert{}, a...), b...)
	SignBatch(mixed, signer)
	roots := map[[crypto.SignatureSize]byte]map[uint32]int{}
	for _, c := range mixed {
		if err := c.VerifySignature(signer.PublicKey()); err != nil {
			t.Fatal(err)
		}
		if roots[c.Signature] == nil {
			roots[c.Signature] = map[uint32]int{}
		}
		roots[c.Signature][c.ExpTime]++
	}
	if len(roots) != 3 {
		t.Fatalf("%d signatures for 65 + 3 certificates, want 3", len(roots))
	}
	for _, byExp := range roots {
		if len(byExp) != 1 {
			t.Fatalf("one root covers ExpTimes %v", byExp)
		}
		for _, n := range byExp {
			if n > MaxBatch {
				t.Fatalf("one root covers %d leaves", n)
			}
		}
	}
}

// TestDecodeRejectsBadPaths: the decoder refuses a depth above
// MaxDepth, an index outside the tree, and a path shorter than its
// depth, and reports the length of a certificate followed by more data.
func TestDecodeRejectsBadPaths(t *testing.T) {
	signer := newSigner(t)
	certs := batchOf(5, 2_000_000_000)
	SignBatch(certs, signer)
	raw, err := certs[0].MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) != MinSize+3*HashSize {
		t.Fatalf("depth-3 certificate is %d bytes", len(raw))
	}
	var c Cert
	if n, err := c.Decode(append(raw, 0xAA, 0xBB)); err != nil || n != len(raw) || !c.Equal(certs[0]) {
		t.Fatalf("Decode with trailing data: n %d, %v", n, err)
	}
	for name, tc := range map[string]struct {
		edit func([]byte) []byte
		want error
	}{
		"depth 7":     {func(b []byte) []byte { b[MinSize-2] = MaxDepth + 1; return b }, ErrBadPath},
		"index 8":     {func(b []byte) []byte { b[MinSize-1] = 8; return b }, ErrBadPath},
		"depth 0, i1": {func(b []byte) []byte { b[MinSize-2], b[MinSize-1] = 0, 1; return b[:MinSize] }, ErrBadPath},
		"short path":  {func(b []byte) []byte { return b[:len(b)-1] }, ErrBadLength},
		"no path":     {func(b []byte) []byte { return b[:MinSize] }, ErrBadLength},
		"version 1":   {func(b []byte) []byte { b[0] = 1; return b }, ErrBadVersion},
	} {
		b := tc.edit(bytes.Clone(raw))
		if _, err := c.Decode(b); !errors.Is(err, tc.want) {
			t.Errorf("%s: %v, want %v", name, err, tc.want)
		}
	}
}

// FuzzCertDecode: the decoder never panics, and what it accepts is
// canonical — the certificate re-encodes to exactly the bytes it
// consumed, and the length it reports is that encoding's.
func FuzzCertDecode(f *testing.F) {
	signer, err := crypto.GenerateSigner()
	if err != nil {
		f.Fatal(err)
	}
	for _, n := range []int{1, 2, 5, MaxBatch} {
		certs := batchOf(n, 2_000_000_000)
		SignBatch(certs, signer)
		raw, _ := certs[n-1].MarshalBinary()
		f.Add(raw)
		f.Add(append(raw, 1, 2, 3))
		f.Add(raw[:len(raw)-1])
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var c Cert
		n, err := c.Decode(data)
		if err != nil {
			return
		}
		enc, err := c.MarshalBinary()
		if err != nil || !bytes.Equal(enc, data[:n]) || n != c.size() {
			t.Fatalf("decoded %d bytes re-encode to %x (%v), len %d, want %x", n, enc, err, c.size(), data[:n])
		}
		var u Cert
		if err := u.UnmarshalBinary(data[:n]); err != nil || u != c {
			t.Fatalf("UnmarshalBinary of the consumed bytes: %v", err)
		}
	})
}
