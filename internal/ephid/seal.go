package ephid

import (
	"crypto/aes"
	"crypto/rand"
	"crypto/subtle"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync/atomic"

	"apna/internal/crypto"
)

// Errors returned by Open.
var (
	// ErrBadTag means the EphID's authentication tag does not verify:
	// it was forged, corrupted, or minted by a different AS. This is
	// the check that defeats unauthorized EphID generation
	// (Section VI-A).
	ErrBadTag = errors.New("ephid: authentication tag mismatch")
	// ErrExpired means the EphID decoded correctly but its expiration
	// time has passed.
	ErrExpired = errors.New("ephid: expired")
)

// Sealer mints and opens EphIDs for one AS. It holds the two keys kA'
// (encryption) and kA” (authentication) derived from the AS master
// secret, and an IV allocator guaranteeing a unique IV per mint — the
// requirement for CTR-mode security and the mechanism that lets one HID
// hold many EphIDs (Section V-A1).
//
// Sealer is safe for concurrent use: minting uses only an atomic counter
// plus per-call stack state, which is how the paper's MS parallelizes
// EphID generation across 4 processes with no coordination
// (Section V-A2).
type Sealer struct {
	enc *crypto.BlockCipher
	mac *crypto.CBCMAC
	// pair holds both keys again, for opening: the MAC key first.
	pair *crypto.BlockPair
	// ivCtr is the IV allocation counter. Its low 32 bits, XORed with
	// ivBase, form the per-EphID IV. A random base makes IVs
	// unpredictable to outsiders without a bookkeeping table.
	ivCtr  atomic.Uint64
	ivBase uint32
}

// NewSealer builds a Sealer from the AS master secret.
func NewSealer(secret *crypto.ASSecret) (*Sealer, error) {
	enc, err := crypto.NewBlockCipher(secret.EphIDEncKey())
	if err != nil {
		return nil, fmt.Errorf("ephid: %w", err)
	}
	mac, err := crypto.NewCBCMAC(secret.EphIDMACKey())
	if err != nil {
		return nil, fmt.Errorf("ephid: %w", err)
	}
	pair, err := crypto.NewBlockPair(secret.EphIDMACKey(), secret.EphIDEncKey())
	if err != nil {
		return nil, fmt.Errorf("ephid: %w", err)
	}
	s := &Sealer{enc: enc, mac: mac, pair: pair}
	var seed [4]byte
	if _, err := io.ReadFull(rand.Reader, seed[:]); err != nil {
		return nil, fmt.Errorf("ephid: seeding IV base: %w", err)
	}
	s.ivBase = binary.BigEndian.Uint32(seed[:])
	return s, nil
}

// nextIV allocates a unique IV. Uniqueness holds for the first 2^32
// mints, the capacity of the paper's 4-byte IV field.
func (s *Sealer) nextIV() [ivLen]byte {
	n := uint32(s.ivCtr.Add(1)) ^ s.ivBase
	var iv [ivLen]byte
	binary.BigEndian.PutUint32(iv[:], n)
	return iv
}

// Mint creates a fresh EphID for the payload, drawing a unique IV.
func (s *Sealer) Mint(p Payload) EphID {
	return s.mintWithIV(p, s.nextIV())
}

// mintWithIV implements Figure 6 with an explicit IV (exposed for tests
// that need bit-exact construction checks).
func (s *Sealer) mintWithIV(p Payload, iv [ivLen]byte) EphID {
	var e EphID

	// CipherText(8) = keystream(IV||0^12)[0:8] XOR (HID||ExpTime).
	var pt [ctLen]byte
	p.encodePlain(&pt)
	var counter [aes.BlockSize]byte
	copy(counter[:ivLen], iv[:])
	copy(e[ctOff:ctOff+ctLen], pt[:])
	s.enc.XORKeystream(e[ctOff:ctOff+ctLen], &counter)

	copy(e[ivOff:ivOff+ivLen], iv[:])

	// TAG(4) = CBC-MAC(IV || 0^4 || CT)[0:4].
	var macIn [aes.BlockSize]byte
	copy(macIn[:ivLen], iv[:])
	copy(macIn[ivLen+4:], e[ctOff:ctOff+ctLen])
	s.mac.TagTruncated(e[tagOff:tagOff+tagLen], tagLen, macIn[:])

	return e
}

// Open verifies and decrypts an EphID, returning its payload. It
// performs the Encrypt-then-MAC verification first (constant time), then
// decrypts — never touching the plaintext of a forged token. The
// steady state does not allocate.
//
// Open does not check expiration; border routers and services check it
// against their own clock (see Payload.Expired) so that the decision
// uses one consistent notion of time per call site.
//
//apna:hotpath
func (s *Sealer) Open(e EphID) (Payload, error) {
	var (
		p  [1]Payload
		ok [1]bool
	)
	s.OpenBatch([]EphID{e}, p[:], ok[:])
	if !ok[0] {
		return Payload{}, ErrBadTag
	}
	return p[0], nil
}

// OpenBatch is Open over many EphIDs at once: ok[i] reports whether
// ids[i] authenticates and out[i] is then its payload (the zero Payload
// otherwise). out and ok must be at least as long as ids. An EphID's tag
// and keystream are two independent one-block AES operations, so
// crypto.PairLanes EphIDs go through the cipher together; each tag is
// compared in constant time before its keystream is used.
//
//apna:hotpath
func (s *Sealer) OpenBatch(ids []EphID, out []Payload, ok []bool) {
	var mac, ctr [crypto.PairLanes][aes.BlockSize]byte
	for at := 0; at < len(ids); at += crypto.PairLanes {
		group := ids[at:min(at+crypto.PairLanes, len(ids))]
		for i := range group {
			e := &group[i]
			// MAC input IV || 0^4 || CT, counter block IV || 0^12.
			mac[i] = [aes.BlockSize]byte{}
			copy(mac[i][:ivLen], e[ivOff:ivOff+ivLen])
			copy(mac[i][ivLen+4:], e[ctOff:ctOff+ctLen])
			ctr[i] = [aes.BlockSize]byte{}
			copy(ctr[i][:ivLen], e[ivOff:ivOff+ivLen])
		}
		s.pair.Encrypt(&mac, &ctr, len(group))
		for i := range group {
			e := &group[i]
			ok[at+i] = subtle.ConstantTimeCompare(e[tagOff:tagOff+tagLen], mac[i][:tagLen]) == 1
			out[at+i] = Payload{}
			if ok[at+i] {
				var pt [ctLen]byte
				subtle.XORBytes(pt[:], e[ctOff:ctOff+ctLen], ctr[i][:ctLen])
				out[at+i] = decodePlain(&pt)
			}
		}
	}
}

// OpenValid is Open plus an expiration check against nowUnix. It is the
// exact sequence border routers run per packet (Figure 4).
func (s *Sealer) OpenValid(e EphID, nowUnix int64) (Payload, error) {
	p, err := s.Open(e)
	if err != nil {
		return Payload{}, err
	}
	if p.Expired(nowUnix) {
		return p, ErrExpired
	}
	return p, nil
}
