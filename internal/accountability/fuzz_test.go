package accountability

import (
	"bytes"
	"testing"

	"apna/internal/cert"
	"apna/internal/crypto"
	"apna/internal/ephid"
	"apna/internal/wire"
)

// FuzzDecodeDigest asserts the accountability codecs never panic on
// arbitrary input and that every accepted encoding round-trips
// byte-exactly. Every input goes through each decoder an AA runs on
// network bytes: digests, digest batches, complaints, shutoff requests,
// receipts and snapshot requests. None of these formats has slack — a
// length field must match the bytes that follow, fixed parts are
// copied whole, and trailing bytes are rejected — so Encode∘Decode is
// the identity on valid wire data.
func FuzzDecodeDigest(f *testing.F) {
	snap := &Digest{Origin: 7, Seq: 3, IssuedAt: 1_000_000, Kind: DigestSnapshot,
		Entries: []DigestEntry{{EphID: ephid.EphID{1, 2, 3}, ExpTime: 99}}}
	delta := &Digest{Origin: 9, Seq: 4, IssuedAt: 1_000_001, Kind: DigestDelta,
		Entries: []DigestEntry{{EphID: ephid.EphID{4}, ExpTime: 100}},
		Removed: []ephid.EphID{{5, 6}}}
	f.Add(snap.Encode())
	f.Add(delta.Encode())
	f.Add(EncodeDigestBatch([][]byte{snap.Encode(), delta.Encode()}))
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3})
	req, rcpt := signedExchange(f)
	f.Add(req.Encode())
	f.Add(req.Complaint)
	f.Add(rcpt.Encode())
	f.Add(EncodeSnapshotRequest(7))
	f.Fuzz(func(t *testing.T, data []byte) {
		if d, err := DecodeDigest(data); err == nil {
			if !bytes.Equal(d.Encode(), data) {
				t.Fatal("digest round-trip mismatch")
			}
		}
		if raws, err := DecodeDigestBatch(data); err == nil {
			if !bytes.Equal(EncodeDigestBatch(raws), data) {
				t.Fatal("batch round-trip mismatch")
			}
		}
		if c, err := DecodeComplaint(data); err == nil {
			if enc, err := c.Encode(); err != nil || !bytes.Equal(enc, data) {
				t.Fatalf("complaint round-trip mismatch (encode error %v)", err)
			}
		}
		if r, err := DecodeShutoffRequest(data); err == nil {
			if !bytes.Equal(r.Encode(), data) {
				t.Fatal("shutoff request round-trip mismatch")
			}
		}
		if r, err := DecodeReceipt(data); err == nil {
			if !bytes.Equal(r.Encode(), data) {
				t.Fatal("receipt round-trip mismatch")
			}
		}
		if origin, err := DecodeSnapshotRequest(data); err == nil {
			if !bytes.Equal(EncodeSnapshotRequest(origin), data) {
				t.Fatal("snapshot request round-trip mismatch")
			}
		}
	})
}

// signedExchange builds a real cross-AS exchange for the fuzz corpus: a
// victim's complaint about a spam frame, wrapped in its AS's signed
// shutoff request, and the offender AS's signed receipt answering it.
func signedExchange(f *testing.F) (*ShutoffRequest, *Receipt) {
	f.Helper()
	asKey, err := crypto.GenerateSigner()
	if err != nil {
		f.Fatal(err)
	}
	hostKey, err := crypto.GenerateSigner()
	if err != nil {
		f.Fatal(err)
	}
	offender := cert.Cert{Kind: ephid.KindData, EphID: ephid.EphID{9}, ExpTime: 1_000_600, AID: 100}
	victim := cert.Cert{Kind: ephid.KindData, EphID: ephid.EphID{8}, ExpTime: 1_000_600, AID: 200}
	copy(victim.SigPub[:], hostKey.PublicKey())
	offender.Sign(asKey)
	victim.Sign(asKey)
	frame, err := (&wire.Packet{
		Header: wire.Header{
			NextProto: wire.ProtoSession, HopLimit: wire.DefaultHopLimit, Nonce: 1,
			SrcAID: offender.AID, DstAID: victim.AID, SrcEphID: offender.EphID, DstEphID: victim.EphID,
		},
		Payload: []byte("spam"),
	}).Encode()
	if err != nil {
		f.Fatal(err)
	}
	complaint, err := NewComplaint(frame, &victim, &offender, hostKey).Encode()
	if err != nil {
		f.Fatal(err)
	}
	req := &ShutoffRequest{Origin: victim.AID, Seq: 1, IssuedAt: 1_000_000, Complaint: complaint}
	req.Sign(asKey)
	rcpt := &Receipt{Issuer: offender.AID, Status: StatusRevoked, SrcEphID: offender.EphID,
		ExpTime: offender.ExpTime, ReqHash: RequestHash(req.Encode()), IssuedAt: 1_000_001}
	rcpt.Sign(asKey)
	return req, rcpt
}
