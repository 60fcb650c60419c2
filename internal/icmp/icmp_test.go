package icmp

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
)

func TestMessageRoundTrip(t *testing.T) {
	m := &Message{Type: TypeEchoRequest, Code: 0, Seq: 42, Body: []byte("ping-payload")}
	got, err := Decode(m.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != m.Type || got.Code != m.Code || got.Seq != m.Seq || !bytes.Equal(got.Body, m.Body) {
		t.Errorf("got %+v", got)
	}
}

func TestMessageRoundTripProperty(t *testing.T) {
	f := func(typ, code uint8, seq uint16, body []byte) bool {
		if len(body) > 60000 {
			body = body[:60000]
		}
		m := &Message{Type: Type(typ), Code: code, Seq: seq, Body: body}
		got, err := Decode(m.Encode())
		return err == nil && got.Type == m.Type && got.Code == m.Code &&
			got.Seq == m.Seq && bytes.Equal(got.Body, m.Body)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := Decode([]byte{1, 2, 3}); !errors.Is(err, ErrTruncated) {
		t.Errorf("short: %v", err)
	}
	m := &Message{Type: TypeEchoReply, Body: []byte("abc")}
	raw := m.Encode()
	if _, err := Decode(raw[:len(raw)-1]); !errors.Is(err, ErrBadLength) {
		t.Errorf("truncated body: %v", err)
	}
	if _, err := Decode(append(raw, 0)); !errors.Is(err, ErrBadLength) {
		t.Errorf("trailing bytes: %v", err)
	}
}

func TestQuote(t *testing.T) {
	long := make([]byte, 500)
	for i := range long {
		long[i] = byte(i)
	}
	q := Quote(long)
	if len(q) != QuoteLimit {
		t.Errorf("quote length %d", len(q))
	}
	if !bytes.Equal(q, long[:QuoteLimit]) {
		t.Error("quote content")
	}
	// Quote copies: mutating the original must not change the quote.
	long[0] = 0xFF
	if q[0] == 0xFF {
		t.Error("quote aliases original")
	}
	short := []byte{1, 2, 3}
	if got := Quote(short); !bytes.Equal(got, short) {
		t.Errorf("short quote = %v", got)
	}
}

func TestTypeString(t *testing.T) {
	names := map[Type]string{
		TypeEchoRequest:     "echo-request",
		TypeEchoReply:       "echo-reply",
		TypeDestUnreachable: "dest-unreachable",
		TypeTimeExceeded:    "time-exceeded",
		TypePacketTooBig:    "packet-too-big",
		Type(99):            "icmp(99)",
	}
	for typ, want := range names {
		if typ.String() != want {
			t.Errorf("%d = %q, want %q", typ, typ, want)
		}
	}
}

// FuzzICMPDecode drives Decode, the decoder a host runs on every ICMP
// payload it receives (internal/host/control.go), with arbitrary bytes:
// no input may panic, and any message it accepts must encode back to
// exactly the bytes it came from.
func FuzzICMPDecode(f *testing.F) {
	for _, m := range []Message{
		{Type: TypeEchoRequest, Seq: 7, Body: []byte("ping")},
		{Type: TypeDestUnreachable, Code: CodeEphIDRevoked, Body: bytes.Repeat([]byte{0xAB}, QuoteLimit)},
		{Type: TypePacketTooBig, Seq: 1280},
	} {
		f.Add(m.Encode())
	}
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0, 0, 0, 9, 'x'}) // length field lies
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Decode(data)
		if err != nil {
			return
		}
		if got := m.Encode(); !bytes.Equal(got, data) {
			t.Fatalf("Decode accepted %x, which re-encodes to %x", data, got)
		}
	})
}
