// Package crypto provides the cryptographic toolkit that the rest of the
// APNA implementation is built on.
//
// It contains from-scratch implementations of the primitives the paper
// relies on but that are not in the Go standard library:
//
//   - HKDF (RFC 5869) over SHA-256, used for every key derivation in APNA
//     (AS master key -> EphID encryption/MAC keys, host<->AS keys, session
//     keys).
//   - AES-CMAC (RFC 4493), used for the per-packet MAC that links every
//     packet to its sender (Section IV-D2 of the paper).
//   - BlockPair, one-block AES under two keys side by side, for the EphID
//     construction (Figure 6): its CTR keystream is one block under the
//     encryption key, and its CBC-MAC tag, over a fixed 16-byte input
//     (the only length at which raw CBC-MAC is secure), is one block
//     under the MAC key.
//
// Asymmetric primitives wrap the standard library: X25519 (crypto/ecdh)
// for Diffie-Hellman exchanges and Ed25519 (crypto/ed25519) for
// certificate signatures, mirroring the paper's use of Curve25519 and
// ed25519 (Section V-A2). AES-GCM (crypto/cipher) provides the CCA-secure
// encryption scheme for control messages and data sessions, as suggested
// by the paper's reference to GCM.
//
// All MAC comparisons are constant time.
package crypto
