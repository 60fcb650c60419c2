package cert

import (
	"cmp"
	crand "crypto/rand"
	"crypto/sha256"
	"math/bits"
	"math/rand/v2"
	"slices"

	"apna/internal/crypto"
)

// Batch signing: the AS signs the root of a SHA-256 Merkle tree whose
// leaves are certificates, and each certificate carries the path from
// its leaf to that root.
//
//	leaf = SHA-256(0x00 ‖ TBS)
//	node = SHA-256(0x01 ‖ left ‖ right)
//	pad  = SHA-256(0x02), filling the leaf row up to 1<<Depth
//
// The three prefixes keep leaves, inner nodes and padding apart, so an
// inner node cannot be presented as a certificate's leaf.
const (
	// MaxDepth bounds a tree's height, and so a certificate's path.
	MaxDepth = 6
	// MaxBatch is the most certificates one signature covers.
	MaxBatch = 1 << MaxDepth
	// HashSize is the size of a leaf, node and path hash.
	HashSize = sha256.Size

	leafPrefix = 0x00
	nodePrefix = 0x01
	padPrefix  = 0x02

	rootLabel = "apna/v2/cert/root"
)

// padLeaf fills the leaf row of a tree whose batch is not a power of
// two.
var padLeaf = sha256.Sum256([]byte{padPrefix})

// leaf is the certificate's leaf hash.
func (c *Cert) leaf() [HashSize]byte {
	var buf [tbsSize]byte
	return leafHash(c.appendTBS(buf[:0]))
}

// leafHash is the leaf hash of a to-be-signed encoding.
func leafHash(tbs []byte) [HashSize]byte {
	var buf [1 + tbsSize]byte
	buf[0] = leafPrefix
	return sha256.Sum256(buf[:1+copy(buf[1:], tbs)])
}

// node is the hash of an inner node with children l and r.
func node(l, r *[HashSize]byte) [HashSize]byte {
	var buf [1 + 2*HashSize]byte
	buf[0] = nodePrefix
	copy(buf[1:], l[:])
	copy(buf[1+HashSize:], r[:])
	return sha256.Sum256(buf[:])
}

// root folds the certificate's leaf up its path to the root the
// signature covers; bit k of Index says whether the node at height k
// is a right child. ok is false for a path no tree has.
func (c *Cert) root() (h [HashSize]byte, ok bool) {
	if c.Depth > MaxDepth || int(c.Index) >= 1<<c.Depth {
		return h, false
	}
	h = c.leaf()
	for k := range c.Depth {
		if c.Index>>k&1 == 0 {
			h = node(&h, &c.Path[k])
		} else {
			h = node(&c.Path[k], &h)
		}
	}
	return h, true
}

// SignBatch signs every certificate in certs, one signature per tree,
// and writes each certificate's Signature, Depth, Index and Path. It is
// the only signer; Cert.Sign is the call for one certificate. Two rules
// keep a shared root from linking certificates that their visible
// fields do not already link:
//
//   - a tree never mixes two ExpTime values, so certificates that
//     share a root already share their (AID, ExpTime) pair;
//   - leaves are placed in a random order drawn from crypto/rand, so a
//     certificate's index does not reveal the order its request came
//     in.
//
// A tree holds at most MaxBatch certificates; a larger group of one
// ExpTime is cut into several trees.
func SignBatch(certs []*Cert, as *crypto.Signer) {
	if len(certs) <= 1 { // nothing to shuffle or split
		signTree(certs, as)
		return
	}
	order := slices.Clone(certs)
	var seed [32]byte
	crand.Read(seed[:])
	rand.New(rand.NewChaCha8(seed)).Shuffle(len(order), func(i, j int) {
		order[i], order[j] = order[j], order[i]
	})
	// Stable, so each ExpTime group keeps its shuffled order.
	slices.SortStableFunc(order, func(a, b *Cert) int { return cmp.Compare(a.ExpTime, b.ExpTime) })
	for len(order) > 0 {
		n := 1
		for n < len(order) && n < MaxBatch && order[n].ExpTime == order[0].ExpTime {
			n++
		}
		signTree(order[:n], as)
		order = order[n:]
	}
}

// signTree builds the tree over leaves (at most MaxBatch, in the order
// given), signs its root and writes every leaf's path.
func signTree(leaves []*Cert, as *crypto.Signer) {
	if len(leaves) == 0 {
		return
	}
	depth := bits.Len(uint(len(leaves) - 1))
	// row holds one level of the tree, leaves first; each pass halves it
	// in place.
	var row [MaxBatch][HashSize]byte
	for i, c := range leaves {
		row[i] = c.leaf()
		c.Depth, c.Index, c.Path = uint8(depth), uint8(i), [MaxDepth][HashSize]byte{}
	}
	width := 1 << depth
	for i := len(leaves); i < width; i++ {
		row[i] = padLeaf
	}
	for k := range depth {
		for i, c := range leaves {
			c.Path[k] = row[(i>>k)^1]
		}
		width >>= 1
		for j := range width {
			row[j] = node(&row[2*j], &row[2*j+1])
		}
	}
	sig := as.Sign(rootLabel, row[0][:])
	for _, c := range leaves {
		copy(c.Signature[:], sig)
	}
}
