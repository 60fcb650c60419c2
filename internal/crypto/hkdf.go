package crypto

import (
	"crypto/hmac"
	"crypto/sha256"
	"fmt"
	"hash"
)

// hashLen is the output size of the HKDF hash function (SHA-256).
const hashLen = sha256.Size

// zeroSalt is the salt HKDFExtract keys with when it is handed none;
// hmac.New copies its key, so nothing writes to it.
var zeroSalt [hashLen]byte

// HKDFExtract implements the HKDF-Extract step of RFC 5869 using
// HMAC-SHA256. A nil or empty salt is replaced by a string of hashLen
// zeros, as the RFC specifies.
func HKDFExtract(salt, ikm []byte) []byte {
	if len(salt) == 0 {
		salt = zeroSalt[:]
	}
	mac := hmac.New(sha256.New, salt)
	mac.Write(ikm)
	return mac.Sum(nil)
}

// HKDFExpand implements the HKDF-Expand step of RFC 5869 using
// HMAC-SHA256. It derives length bytes of output keying material from the
// pseudorandom key prk and the context info. It panics if length is
// larger than 255*hashLen, the RFC-imposed maximum.
func HKDFExpand(prk, info []byte, length int) []byte {
	if length > 255*hashLen {
		panic(fmt.Sprintf("crypto: HKDF expand length %d exceeds maximum %d", length, 255*hashLen))
	}
	out := make([]byte, length)
	expand(hmac.New(sha256.New, prk), out, info)
	return out
}

// expand fills dst (at most 255*hashLen bytes) with HKDF-Expand output on
// mac, an HMAC-SHA256 keyed with the PRK. Every block starts from a Reset,
// so one keyed HMAC serves all blocks and every info it is handed.
func expand(mac hash.Hash, dst, info []byte) {
	var buf [hashLen + 1]byte // the previous block, then the block counter
	prev := buf[:0]
	for buf[hashLen] = 1; len(dst) > 0; buf[hashLen]++ {
		mac.Reset()
		mac.Write(prev)
		mac.Write(info)
		mac.Write(buf[hashLen:])
		prev = mac.Sum(buf[:0])
		dst = dst[copy(dst, prev):]
	}
}

// HKDF derives length bytes from the initial keying material ikm using
// the full extract-then-expand construction of RFC 5869.
func HKDF(ikm, salt, info []byte, length int) []byte {
	return HKDFExpand(HKDFExtract(salt, ikm), info, length)
}

// DeriveKey is the repository-wide labelled key derivation: it binds the
// derived key to a human-readable purpose label so that keys derived for
// different purposes from the same secret are independent.
func DeriveKey(secret []byte, label string, length int) []byte {
	return HKDF(secret, nil, []byte(label), length)
}
