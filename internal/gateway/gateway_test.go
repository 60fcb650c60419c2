package gateway

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
	"time"

	"apna"
	"apna/internal/ephid"
	"apna/internal/host"
	"apna/internal/wire"
)

// world: a legacy IPv4 client behind a gateway in AS 100 talking to a
// native APNA host (and a legacy server behind a second gateway) in
// AS 200.
type world struct {
	in      *apna.Internet
	gwHost  *apna.Host
	gw      *Gateway
	gwOut   [][]byte // IPv4 packets emitted toward the legacy client
	native  *apna.Host
	nativeE *host.OwnedEphID
}

func newWorld(t *testing.T) *world {
	t.Helper()
	in, err := apna.New(1,
		apna.WithAS(100, "gw"), apna.WithAS(200, "native"),
		apna.WithLink(100, 200, time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	w := &world{in: in, gwHost: in.Host("gw"), native: in.Host("native")}
	w.gw = New(w.gwHost.Stack, func(pkt []byte) { w.gwOut = append(w.gwOut, pkt) })

	id, err := w.native.NewEphID(ephid.KindData, 900)
	if err != nil {
		t.Fatal(err)
	}
	w.nativeE = id
	return w
}

// ipv4Packet builds a legacy IPv4/UDP packet.
func ipv4Packet(t *testing.T, src, dst uint32, srcPort, dstPort uint16, body []byte) []byte {
	t.Helper()
	seg := make([]byte, 4+len(body))
	seg[0], seg[1] = byte(srcPort>>8), byte(srcPort)
	seg[2], seg[3] = byte(dstPort>>8), byte(dstPort)
	copy(seg[4:], body)
	total := wire.IPv4HeaderSize + len(seg)
	buf := make([]byte, total)
	h := wire.IPv4Header{TotalLen: uint16(total), TTL: 64, Protocol: 17, SrcIP: src, DstIP: dst}
	if err := h.SerializeTo(buf); err != nil {
		t.Fatal(err)
	}
	copy(buf[wire.IPv4HeaderSize:], seg)
	return buf
}

func TestOutboundTranslationAndReply(t *testing.T) {
	w := newWorld(t)
	// Pre-provision gateway EphIDs (one per flow policy).
	for i := 0; i < 2; i++ {
		if _, err := w.gwHost.NewEphID(ephid.KindData, 900); err != nil {
			t.Fatal(err)
		}
	}
	// The gateway learned the server mapping (as if from DNS).
	serverIP := uint32(0xC0A80001)
	w.gw.LearnMapping(serverIP, &w.nativeE.Cert)

	clientIP := uint32(0x0A000002)
	pkt := ipv4Packet(t, clientIP, serverIP, 5000, 80, []byte("GET /"))
	if err := w.gw.HandleIPv4(pkt); err != nil {
		t.Fatal(err)
	}
	w.in.RunUntilIdle()

	// The native host received the transport segment.
	msgs := w.native.Stack.Inbox()
	if len(msgs) != 1 {
		t.Fatalf("native inbox: %d", len(msgs))
	}
	if !bytes.Contains(msgs[0].Payload, []byte("GET /")) {
		t.Errorf("payload: %q", msgs[0].Payload)
	}
	// Source port survived translation.
	if msgs[0].Payload[0] != 0x13 || msgs[0].Payload[1] != 0x88 {
		t.Errorf("ports not preserved: % x", msgs[0].Payload[:4])
	}

	// Reply: native host responds on the session; gateway re-emits
	// IPv4 toward the client with the 5-tuple reversed.
	reply := append([]byte{0, 80, 0x13, 0x88}, []byte("200 OK")...)
	if err := w.native.Stack.Respond(msgs[0], reply); err != nil {
		t.Fatal(err)
	}
	w.in.RunUntilIdle()
	if len(w.gwOut) != 1 {
		t.Fatalf("gateway emitted %d IPv4 packets", len(w.gwOut))
	}
	var ip wire.IPv4Header
	if err := ip.DecodeFromBytes(w.gwOut[0]); err != nil {
		t.Fatal(err)
	}
	if ip.SrcIP != serverIP || ip.DstIP != clientIP {
		t.Errorf("reply addresses %08x -> %08x", ip.SrcIP, ip.DstIP)
	}
	if !bytes.Contains(w.gwOut[0], []byte("200 OK")) {
		t.Error("reply body lost")
	}
}

func TestSecondFlowUsesDifferentEphID(t *testing.T) {
	w := newWorld(t)
	for i := 0; i < 2; i++ {
		if _, err := w.gwHost.NewEphID(ephid.KindData, 900); err != nil {
			t.Fatal(err)
		}
	}
	serverIP := uint32(0xC0A80001)
	w.gw.LearnMapping(serverIP, &w.nativeE.Cert)
	clientIP := uint32(0x0A000002)

	if err := w.gw.HandleIPv4(ipv4Packet(t, clientIP, serverIP, 5000, 80, []byte("a"))); err != nil {
		t.Fatal(err)
	}
	if err := w.gw.HandleIPv4(ipv4Packet(t, clientIP, serverIP, 5001, 80, []byte("b"))); err != nil {
		t.Fatal(err)
	}
	w.in.RunUntilIdle()
	msgs := w.native.Stack.Inbox()
	if len(msgs) != 2 {
		t.Fatalf("native inbox: %d", len(msgs))
	}
	// Different IPv4 flows must arrive from different source EphIDs
	// (per-flow unlinkability preserved by the gateway).
	if msgs[0].Flow.Src.EphID == msgs[1].Flow.Src.EphID {
		t.Error("two IPv4 flows shared one EphID")
	}
}

func TestUnmappedDestinationRejected(t *testing.T) {
	w := newWorld(t)
	if _, err := w.gwHost.NewEphID(ephid.KindData, 900); err != nil {
		t.Fatal(err)
	}
	pkt := ipv4Packet(t, 1, 0xDEADBEEF, 1, 2, []byte("x"))
	if err := w.gw.HandleIPv4(pkt); err == nil {
		t.Error("unmapped destination accepted")
	}
	if w.gw.Untranslatable == 0 {
		t.Error("drop not counted")
	}
}

func TestMalformedIPv4Rejected(t *testing.T) {
	w := newWorld(t)
	if err := w.gw.HandleIPv4([]byte("junk")); err == nil {
		t.Error("garbage accepted")
	}
}

func TestLearnFromDNSAllocatesVirtualIPs(t *testing.T) {
	w := newWorld(t)
	ip1 := w.gw.LearnFromDNS(&w.nativeE.Cert)
	ip2 := w.gw.LearnFromDNS(&w.nativeE.Cert)
	if ip1 == ip2 {
		t.Error("virtual IPs collide")
	}
	if ip1>>16 != 0x0AC8 {
		t.Errorf("virtual IP %08x outside pool", ip1)
	}
}

// TestFragmentsAndBadChecksumsNotTranslated: a non-first fragment
// starts mid-datagram, so its first four payload bytes are not ports;
// read as ports they would open a flow (and spend a per-flow EphID) on
// garbage. A header whose checksum fails is not read either. Both are
// dropped with their typed errors, counted, and open no flow.
func TestFragmentsAndBadChecksumsNotTranslated(t *testing.T) {
	w := newWorld(t)
	if _, err := w.gwHost.NewEphID(ephid.KindData, 900); err != nil {
		t.Fatal(err)
	}
	serverIP := uint32(0xC0A80001)
	w.gw.LearnMapping(serverIP, &w.nativeE.Cert)

	frag := ipv4Packet(t, 0x0A000002, serverIP, 5000, 80, []byte("middle of a datagram"))
	binary.BigEndian.PutUint16(frag[6:], 185) // offset 1480 bytes, MF clear
	var h wire.IPv4Header
	reseal := func(pkt []byte) {
		binary.BigEndian.PutUint16(pkt[10:], 0)
		var sum uint32
		for i := 0; i < wire.IPv4HeaderSize; i += 2 {
			sum += uint32(binary.BigEndian.Uint16(pkt[i:]))
		}
		for sum>>16 != 0 {
			sum = sum&0xffff + sum>>16
		}
		binary.BigEndian.PutUint16(pkt[10:], ^uint16(sum))
	}
	reseal(frag)
	bad := ipv4Packet(t, 0x0A000002, serverIP, 5001, 80, []byte("x"))
	bad[12] ^= 0x80 // source address; the checksum no longer matches

	for _, c := range []struct {
		name string
		pkt  []byte
		want error
	}{
		{"non-first fragment", frag, wire.ErrIPFragment},
		{"bad checksum", bad, wire.ErrIPChecksum},
	} {
		if err := h.DecodeFromBytes(c.pkt[:wire.IPv4HeaderSize]); !errors.Is(err, c.want) {
			t.Fatalf("%s: the packet is not what the case means (%v)", c.name, err)
		}
		before := w.gw.Untranslatable
		if err := w.gw.HandleIPv4(c.pkt); !errors.Is(err, c.want) {
			t.Errorf("%s: HandleIPv4 = %v, want %v", c.name, err, c.want)
		}
		if w.gw.Untranslatable != before+1 {
			t.Errorf("%s: drop not counted", c.name)
		}
	}
	if len(w.gw.flows) != 0 || w.gw.Translated != 0 {
		t.Fatalf("%d flows opened, %d packets translated", len(w.gw.flows), w.gw.Translated)
	}
	w.in.RunUntilIdle()
	if msgs := w.native.Stack.Inbox(); len(msgs) != 0 {
		t.Fatalf("native host received %d messages", len(msgs))
	}
}
