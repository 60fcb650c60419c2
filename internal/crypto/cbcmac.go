package crypto

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/subtle"
	"fmt"
)

// CBCMAC computes the classic CBC-MAC used by the EphID construction
// (paper Figure 6). Raw CBC-MAC is only secure when all authenticated
// messages have the same, fixed length; the paper (and this type)
// restricts it to exactly one 16-byte block, which is the EphID case
// (Section VI-A: "our use of the CBC-MAC is secure against chosen
// plaintext attacks since the input length to the CBC-MAC is fixed to
// 16 B").
//
// For variable-length messages use CMAC instead.
type CBCMAC struct {
	block cipher.Block
}

// NewCBCMAC returns a CBC-MAC keyed with the given AES key.
func NewCBCMAC(key []byte) (*CBCMAC, error) {
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, fmt.Errorf("crypto: cbc-mac key: %w", err)
	}
	return &CBCMAC{block: block}, nil
}

// BlockSize returns the fixed input size the MAC accepts.
func (c *CBCMAC) BlockSize() int { return aes.BlockSize }

// Tag writes the 16-byte CBC-MAC of the single 16-byte block msg into
// dst. It panics if msg is not exactly one block: accepting other lengths
// would silently re-introduce the length-extension weakness of CBC-MAC.
func (c *CBCMAC) Tag(dst *[aes.BlockSize]byte, msg []byte) {
	if len(msg) != aes.BlockSize {
		panic(fmt.Sprintf("crypto: CBC-MAC input must be exactly %d bytes, got %d", aes.BlockSize, len(msg))) //apna:coldpath
	}
	c.block.Encrypt(dst[:], msg)
}

// TagTruncated computes the CBC-MAC of the one-block msg and writes its
// first n bytes into dst.
func (c *CBCMAC) TagTruncated(dst []byte, n int, msg []byte) {
	var full [aes.BlockSize]byte
	c.Tag(&full, msg)
	copy(dst[:n], full[:n])
}

// Verify reports whether tag matches the (possibly truncated) CBC-MAC of
// the one-block msg, in constant time.
func (c *CBCMAC) Verify(tag, msg []byte) bool {
	if len(tag) == 0 || len(tag) > aes.BlockSize {
		return false
	}
	var full [aes.BlockSize]byte
	c.Tag(&full, msg)
	return subtle.ConstantTimeCompare(tag, full[:len(tag)]) == 1
}
