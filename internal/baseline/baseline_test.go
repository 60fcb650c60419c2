package baseline

import (
	"testing"

	"apna/internal/ephid"
	"apna/internal/wire"
)

func frame(t *testing.T, dst ephid.AID) []byte {
	t.Helper()
	p := wire.Packet{Header: wire.Header{DstAID: dst, HopLimit: 1}, Payload: []byte("x")}
	raw, err := p.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func TestForwarder(t *testing.T) {
	f := New(map[ephid.AID]ephid.AID{200: 201})
	if !f.Process(frame(t, 200)) {
		t.Error("routable frame dropped")
	}
	if f.Process(frame(t, 999)) {
		t.Error("unroutable frame forwarded")
	}
	if f.Process([]byte("garbage")) {
		t.Error("invalid frame forwarded")
	}
}
