package wire

import (
	"bytes"
	"encoding/binary"
	"testing"

	"apna/internal/ephid"
)

// FuzzParseHeader drives the header codec with arbitrary bytes: no
// input may panic, ValidFrame and DecodeFromBytes must agree, and any
// decodable header must survive a serialize/decode round trip bit
// exact. The border router calls these on every frame an adversary can
// craft, so the codec's total robustness is a security property, not
// just hygiene.
func FuzzParseHeader(f *testing.F) {
	// Seed corpus: a genuine frame with payload, its header, and the
	// interesting truncation/corruption boundaries.
	valid := Packet{
		Header: Header{
			NextProto: ProtoSession, Flags: FlagZeroRTT, HopLimit: 17,
			Nonce:  0xDEADBEEFCAFE,
			SrcAID: 100, DstAID: 200,
			SrcEphID: ephid.EphID{1, 2, 3}, DstEphID: ephid.EphID{4, 5, 6},
			MAC: [MACSize]byte{7, 8, 9},
		},
		Payload: []byte("seed payload"),
	}
	frame, err := valid.Encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(frame)
	f.Add(frame[:HeaderSize])                     // bare header, zero payload declared
	f.Add(frame[:HeaderSize-1])                   // one byte short of a header
	f.Add(frame[:1])                              // version only
	f.Add([]byte{})                               // empty
	f.Add(bytes.Repeat([]byte{0xFF}, HeaderSize)) // wrong version
	badLen := append([]byte(nil), frame...)
	badLen[offPayloadLen] ^= 0x40 // length field lies about the payload
	f.Add(badLen)

	f.Fuzz(func(t *testing.T, data []byte) {
		var h Header
		err := h.DecodeFromBytes(data)
		if err != nil {
			if ValidFrame(data) {
				t.Fatalf("ValidFrame accepted undecodable input: %x", data)
			}
			return
		}
		// Round trip: serialize the decoded header and decode it again.
		buf := make([]byte, HeaderSize)
		if err := h.SerializeTo(buf); err != nil {
			t.Fatalf("decoded header failed to serialize: %v", err)
		}
		var h2 Header
		if err := h2.DecodeFromBytes(buf); err != nil {
			t.Fatalf("round-tripped header failed to decode: %v", err)
		}
		if h2 != h {
			t.Fatalf("round trip changed header: %+v vs %+v", h, h2)
		}

		// Full-packet decoding must agree with the raw-frame validator
		// and never return a payload that contradicts the header.
		pkt, err := DecodePacket(data)
		if err == nil {
			if !ValidFrame(data) {
				t.Fatal("DecodePacket accepted a frame ValidFrame rejects")
			}
			if int(pkt.Header.PayloadLen) != len(pkt.Payload) {
				t.Fatalf("payload length %d vs declared %d", len(pkt.Payload), pkt.Header.PayloadLen)
			}
		} else if ValidFrame(data) {
			t.Fatal("ValidFrame accepted a frame DecodePacket rejects")
		}

		// Raw accessors must match the decoded struct on any decodable
		// frame (the fast path and slow path can never disagree).
		if FrameSrcAID(data) != h.SrcAID || FrameDstAID(data) != h.DstAID ||
			FrameSrcEphID(data) != h.SrcEphID || FrameDstEphID(data) != h.DstEphID ||
			FrameFlags(data) != h.Flags || data[offHopLimit] != h.HopLimit {
			t.Fatal("raw accessors disagree with decoded header")
		}
	})
}

// FuzzIPv4Decode drives the IPv4 header decoder with arbitrary bytes:
// no input may panic, a fragment or a header with a bad checksum is
// never accepted, and whatever is accepted encodes back byte for byte.
func FuzzIPv4Decode(f *testing.F) {
	h := IPv4Header{TotalLen: 40, ID: 7, TTL: 64, Protocol: 17, SrcIP: 0x0A000001, DstIP: 0x0A000002}
	pkt := make([]byte, 40)
	if err := h.SerializeTo(pkt); err != nil {
		f.Fatal(err)
	}
	f.Add(pkt)
	f.Add(pkt[:IPv4HeaderSize])
	for _, flags := range []uint16{ipv4DF, ipv4MF, 1, ipv4DF | 0x00b9, ipv4Reserved} {
		g := bytes.Clone(pkt)
		binary.BigEndian.PutUint16(g[6:], flags)
		binary.BigEndian.PutUint16(g[10:], 0)
		binary.BigEndian.PutUint16(g[10:], ipv4Checksum(g[:IPv4HeaderSize]))
		f.Add(g)
	}
	bad := bytes.Clone(pkt)
	bad[10] ^= 1
	f.Add(bad)

	f.Fuzz(func(t *testing.T, data []byte) {
		var h IPv4Header
		if h.DecodeFromBytes(data) != nil {
			return
		}
		if !ChecksumValid(data) {
			t.Fatalf("accepted a bad header checksum: %x", data[:IPv4HeaderSize])
		}
		if flags := binary.BigEndian.Uint16(data[6:]); flags&(ipv4MF|ipv4OffsetMask) != 0 {
			t.Fatalf("accepted a fragment (flags/offset %#04x)", flags)
		}
		hdr := make([]byte, IPv4HeaderSize)
		if err := h.SerializeTo(hdr); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(hdr, data[:IPv4HeaderSize]) {
			t.Fatalf("header %x re-encodes to %x", data[:IPv4HeaderSize], hdr)
		}
	})
}
