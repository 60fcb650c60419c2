package wire

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"testing/quick"

	"apna/internal/ephid"
)

func sampleHeader() Header {
	h := Header{
		NextProto: ProtoSession,
		Flags:     FlagZeroRTT,
		HopLimit:  DefaultHopLimit,
		Nonce:     0xDEADBEEF01020304,
		SrcAID:    100,
		DstAID:    200,
	}
	for i := range h.SrcEphID {
		h.SrcEphID[i] = byte(i)
		h.DstEphID[i] = byte(0xF0 + i)
	}
	for i := range h.MAC {
		h.MAC[i] = byte(0xA0 + i)
	}
	return h
}

func TestHeaderRoundTrip(t *testing.T) {
	h := sampleHeader()
	h.PayloadLen = 1234
	buf := make([]byte, HeaderSize)
	if err := h.SerializeTo(buf); err != nil {
		t.Fatal(err)
	}
	var got Header
	if err := got.DecodeFromBytes(buf); err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Errorf("roundtrip mismatch:\n got %+v\nwant %+v", got, h)
	}
}

func TestHeaderRoundTripProperty(t *testing.T) {
	f := func(proto, flags, hop uint8, plen uint16, nonce uint64,
		sa, da uint32, se, de [16]byte, mac [8]byte) bool {
		h := Header{
			NextProto: NextProto(proto), Flags: flags, HopLimit: hop,
			PayloadLen: plen, Nonce: nonce,
			SrcAID: ephid.AID(sa), DstAID: ephid.AID(da),
			SrcEphID: ephid.EphID(se), DstEphID: ephid.EphID(de),
			MAC: mac,
		}
		buf := make([]byte, HeaderSize)
		if err := h.SerializeTo(buf); err != nil {
			return false
		}
		var got Header
		if err := got.DecodeFromBytes(buf); err != nil {
			return false
		}
		return got == h
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHeaderDecodeErrors(t *testing.T) {
	var h Header
	if err := h.DecodeFromBytes(make([]byte, HeaderSize-1)); !errors.Is(err, ErrTruncated) {
		t.Errorf("short: %v", err)
	}
	buf := make([]byte, HeaderSize)
	buf[0] = 7
	if err := h.DecodeFromBytes(buf); !errors.Is(err, ErrBadVersion) {
		t.Errorf("version: %v", err)
	}
	if err := h.SerializeTo(make([]byte, HeaderSize-1)); !errors.Is(err, ErrTruncated) {
		t.Errorf("serialize short: %v", err)
	}
}

func TestPacketEncodeDecode(t *testing.T) {
	p := Packet{Header: sampleHeader(), Payload: []byte("hello apna")}
	frame, err := p.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if len(frame) != HeaderSize+len(p.Payload) {
		t.Fatalf("frame size %d", len(frame))
	}
	if !ValidFrame(frame) {
		t.Error("ValidFrame rejected encoded frame")
	}
	got, err := DecodePacket(frame)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Payload, p.Payload) {
		t.Errorf("payload %q", got.Payload)
	}
	if got.Header.PayloadLen != uint16(len(p.Payload)) {
		t.Errorf("payload len %d", got.Header.PayloadLen)
	}
}

func TestDecodePacketLengthMismatch(t *testing.T) {
	p := Packet{Header: sampleHeader(), Payload: []byte("xyz")}
	frame, _ := p.Encode()
	if _, err := DecodePacket(frame[:len(frame)-1]); !errors.Is(err, ErrBadLength) {
		t.Errorf("truncated payload: %v", err)
	}
	if ValidFrame(frame[:len(frame)-1]) {
		t.Error("ValidFrame accepted truncated frame")
	}
}

func TestPacketEncodeTooLarge(t *testing.T) {
	p := Packet{Payload: make([]byte, MaxPayload+1)}
	if _, err := p.Encode(); !errors.Is(err, ErrTooLarge) {
		t.Errorf("err = %v", err)
	}
}

func TestFrameAccessors(t *testing.T) {
	p := Packet{Header: sampleHeader(), Payload: nil}
	frame, _ := p.Encode()
	if FrameSrcAID(frame) != p.Header.SrcAID {
		t.Error("FrameSrcAID")
	}
	if FrameDstAID(frame) != p.Header.DstAID {
		t.Error("FrameDstAID")
	}
	if FrameSrcEphID(frame) != p.Header.SrcEphID {
		t.Error("FrameSrcEphID")
	}
	if FrameDstEphID(frame) != p.Header.DstEphID {
		t.Error("FrameDstEphID")
	}
	if FrameFlags(frame) != p.Header.Flags {
		t.Error("FrameFlags")
	}
	if frame[offHopLimit] != DefaultHopLimit {
		t.Error("hop limit offset")
	}
}

func TestFrameDecrementHopLimit(t *testing.T) {
	p := Packet{Header: sampleHeader()}
	p.Header.HopLimit = 2
	frame, _ := p.Encode()
	if !FrameDecrementHopLimit(frame) {
		t.Error("hop 2->1 should forward")
	}
	if FrameDecrementHopLimit(frame) {
		t.Error("hop 1->0 should not forward")
	}
	if FrameDecrementHopLimit(frame) {
		t.Error("hop 0 should not forward")
	}
}

func TestNextProtoString(t *testing.T) {
	names := map[NextProto]string{
		ProtoSession: "session", ProtoControl: "control",
		ProtoHandshake: "handshake", ProtoICMP: "icmp",
		ProtoShutoff: "shutoff", NextProto(200): "proto(200)",
	}
	for p, want := range names {
		if p.String() != want {
			t.Errorf("%d.String() = %q, want %q", p, p, want)
		}
	}
}

func TestEndpointAndFlow(t *testing.T) {
	h := sampleHeader()
	f := FlowFromHeader(&h)
	if f.Src.AID != h.SrcAID || f.Dst.EphID != h.DstEphID {
		t.Error("FlowFromHeader fields")
	}
	if !strings.Contains(f.String(), "->") {
		t.Errorf("Flow.String() = %q", f)
	}
	if !strings.Contains(f.Src.String(), "AS100") {
		t.Errorf("Endpoint.String() = %q", f.Src)
	}
}
