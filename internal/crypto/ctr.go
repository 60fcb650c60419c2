package crypto

import (
	"crypto/aes"
	"crypto/cipher"
	"fmt"
)

// BlockCipher wraps an AES block cipher for the one-block counter-mode
// operation used by the EphID construction (Figure 6): the counter block
// is IV || 0^12 and exactly one block of keystream is consumed.
type BlockCipher struct {
	block cipher.Block
}

// NewBlockCipher returns an AES block cipher for the given key.
func NewBlockCipher(key []byte) (*BlockCipher, error) {
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, fmt.Errorf("crypto: block cipher key: %w", err)
	}
	return &BlockCipher{block: block}, nil
}

// Keystream writes one block of CTR keystream for the given counter block
// into dst.
func (b *BlockCipher) Keystream(dst *[aes.BlockSize]byte, counter *[aes.BlockSize]byte) {
	b.block.Encrypt(dst[:], counter[:])
}

// XORKeystream XORs up to one block of CTR keystream (for the given
// counter block) into data, in place. It panics if data is longer than a
// block; the EphID construction only ever encrypts 8 bytes.
func (b *BlockCipher) XORKeystream(data []byte, counter *[aes.BlockSize]byte) {
	if len(data) > aes.BlockSize {
		panic(fmt.Sprintf("crypto: XORKeystream input %d exceeds one block", len(data))) //apna:coldpath
	}
	var ks [aes.BlockSize]byte
	b.block.Encrypt(ks[:], counter[:])
	for i := range data {
		data[i] ^= ks[i]
	}
}
