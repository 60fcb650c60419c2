package apna

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"apna/internal/aa"
	"apna/internal/host"
	"apna/internal/netsim"
	"apna/internal/wire"
)

// A message is one buffer from the sender's stack to the receiver's
// evidence: the routers forward the frame they were handed and the host
// keeps the delivered frame as Message.Raw. These tests are about what
// that hand-over could break — two holders of one backing array.

// connect opens a connection between fresh EphIDs of two hosts.
func (w *world) connect(t *testing.T, from, to *Host) (*host.Conn, *host.OwnedEphID) {
	t.Helper()
	idFrom, idTo := w.ephID(t, from), w.ephID(t, to)
	conn, err := from.Connect(idFrom, &idTo.Cert, nil)
	if err != nil {
		t.Fatal(err)
	}
	return conn, idTo
}

// captureSession returns a link tap that keeps the latest data frame it
// saw in *dst.
func captureSession(dst *[]byte) func([]byte, *netsim.Port) {
	return func(f []byte, _ *netsim.Port) {
		var hdr wire.Header
		if hdr.DecodeFromBytes(f) == nil && hdr.NextProto == wire.ProtoSession {
			*dst = f
		}
	}
}

// TestDeliveredMessagesAreByteStable: Raw and Payload of message k do
// not change when later messages arrive on the same flow or another
// one, nor when the sender reuses the slice it sent from.
func TestDeliveredMessagesAreByteStable(t *testing.T) {
	w := newWorld(t)
	bob, err := w.in.AddHost(100, "bob")
	if err != nil {
		t.Fatal(err)
	}
	connA, _ := w.connect(t, w.alice, w.carol)
	connB, _ := w.connect(t, bob, w.carol)

	type kept struct {
		m            host.Message
		raw, payload []byte // what they read when delivered
	}
	var got []kept
	w.carol.Stack.OnMessage(func(m host.Message) {
		got = append(got, kept{m: m, raw: bytes.Clone(m.Raw), payload: bytes.Clone(m.Payload)})
	})

	data := make([]byte, 256) // one slice, reused for every send
	var sent []string
	const rounds = 12
	for k := 0; k < rounds; k++ {
		var ops []Op
		for i, c := range []struct {
			h    *Host
			conn *host.Conn
		}{{w.alice, connA}, {bob, connB}} {
			want := fmt.Sprintf("round %d flow %d", k, i)
			copy(data, want)
			ops = append(ops, c.h.SendAsync(c.conn, data[:len(want)]))
			for j := range data {
				data[j] = 0xEE // scribbled before the network has moved a byte
			}
			sent = append(sent, want)
		}
		if err := w.in.AwaitAll(ops...); err != nil {
			t.Fatal(err)
		}
	}

	if len(got) != 2*rounds {
		t.Fatalf("%d messages delivered, want %d", len(got), 2*rounds)
	}
	for i, k := range got {
		if string(k.m.Payload) != sent[i] {
			t.Errorf("message %d reads %q, sent %q", i, k.m.Payload, sent[i])
		}
		if !bytes.Equal(k.m.Payload, k.payload) || !bytes.Equal(k.m.Raw, k.raw) {
			t.Errorf("message %d changed after delivery", i)
		}
		for j := 0; j < i; j++ {
			if &got[j].m.Raw[0] == &k.m.Raw[0] || &got[j].m.Payload[0] == &k.m.Payload[0] {
				t.Fatalf("messages %d and %d share a buffer", j, i)
			}
		}
	}
}

// TestTapCaptureSurvivesTransitDecrement: the transit AS decrements the
// hop limit in the buffer it forwards; a wiretap upstream of it captured
// a copy, which must keep reading what was on its link.
func TestTapCaptureSurvivesTransitDecrement(t *testing.T) {
	w := newWorld(t)
	conn, _ := w.connect(t, w.alice, w.carol)
	var upstream, downstream []byte
	w.in.InterASLink(100, 200).AddTap(captureSession(&upstream))
	w.in.InterASLink(200, 300).AddTap(captureSession(&downstream))
	if err := w.alice.Send(conn, []byte("through AS 200")); err != nil {
		t.Fatal(err)
	}
	msgs := w.carol.Stack.Inbox()
	if len(msgs) != 1 || upstream == nil || downstream == nil {
		t.Fatalf("delivered %d, captured %v/%v", len(msgs), upstream != nil, downstream != nil)
	}
	raw := msgs[0].Raw
	if got := wire.FrameHopLimit(upstream); got != wire.DefaultHopLimit {
		t.Errorf("upstream capture reads hop limit %d, want the %d it was sent with", got, wire.DefaultHopLimit)
	}
	if wire.FrameHopLimit(downstream) != wire.DefaultHopLimit-1 || wire.FrameHopLimit(raw) != wire.DefaultHopLimit-1 {
		t.Errorf("hop limit downstream %d, delivered %d, want %d",
			wire.FrameHopLimit(downstream), wire.FrameHopLimit(raw), wire.DefaultHopLimit-1)
	}
	if !bytes.Equal(downstream, raw) || &downstream[0] == &raw[0] {
		t.Error("downstream capture must equal the delivered frame without being it")
	}
}

// TestInjectedFrameIsCopiedOnce: the router's injection hooks take a
// frame the caller still owns. They must not write to it (the transit
// decrement happens in the router's copy) and must not keep it (the
// caller overwrites it while the copy is still in flight).
func TestInjectedFrameIsCopiedOnce(t *testing.T) {
	for _, tc := range []struct {
		name    string
		capture func(w *world) *netsim.Link // where the genuine frame is copied off the wire
		cut     [2]AID                      // the link that loses the original downstream of it
		inject  func(w *world, frame []byte)
	}{
		{"external", func(w *world) *netsim.Link { return w.in.InterASLink(100, 200) }, [2]AID{200, 300},
			func(w *world, f []byte) { w.in.AS(200).Router.HandleExternalFrame(f) }},
		{"internal", func(w *world) *netsim.Link { return w.alice.link }, [2]AID{100, 200},
			func(w *world, f []byte) { w.in.AS(100).Router.HandleInternalFrame(f) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := newWorld(t)
			conn, _ := w.connect(t, w.alice, w.carol)
			var frame []byte
			tc.capture(w).AddTap(captureSession(&frame))
			// The original dies on a partitioned link, so the injected
			// frame is the first carol sees of this nonce.
			cut := w.in.InterASLink(tc.cut[0], tc.cut[1])
			cut.Partition(0, time.Hour)
			if err := w.alice.Send(conn, []byte("lost, then injected")); err != nil {
				t.Fatal(err)
			}
			if got := w.carol.Stack.Inbox(); len(got) != 0 || frame == nil {
				t.Fatalf("original delivered %d times, captured %v", len(got), frame != nil)
			}
			cut.SetChaos(ChaosConfig{})

			before := bytes.Clone(frame)
			tc.inject(w, frame)
			if !bytes.Equal(frame, before) {
				t.Fatal("the injection hook wrote to the caller's frame")
			}
			for i := range frame {
				frame[i] = 0xEE
			}
			w.in.RunUntilIdle()
			msgs := w.carol.Stack.Inbox()
			if len(msgs) != 1 || string(msgs[0].Payload) != "lost, then injected" {
				t.Fatalf("injected frame not delivered: %+v", msgs)
			}
			before[3]-- // the hop limit, decremented once at AS 200: the only byte a router may change
			if !bytes.Equal(msgs[0].Raw, before) {
				t.Error("delivered frame differs from what was injected: the hook kept the caller's buffer")
			}
		})
	}
}

// TestEvidenceFromRawVerifiesAfterFurtherTraffic: Raw is now the
// delivered buffer itself, so anything that wrote to it after delivery
// would break the packet MAC the source AS checks (Figure 5).
func TestEvidenceFromRawVerifiesAfterFurtherTraffic(t *testing.T) {
	w := newWorld(t)
	conn, idC := w.connect(t, w.alice, w.carol)
	if err := w.alice.Send(conn, []byte("exhibit A")); err != nil {
		t.Fatal(err)
	}
	first := w.carol.Stack.Inbox()
	if len(first) != 1 {
		t.Fatalf("carol inbox: %d", len(first))
	}
	bob, err := w.in.AddHost(100, "bob")
	if err != nil {
		t.Fatal(err)
	}
	connB, _ := w.connect(t, bob, w.carol)
	for i := 0; i < 20; i++ {
		if err := w.in.AwaitAll(w.alice.SendAsync(conn, []byte("more")), bob.SendAsync(connB, []byte("other flow"))); err != nil {
			t.Fatal(err)
		}
	}
	if got := w.carol.Stack.Inbox(); len(got) != 40 {
		t.Fatalf("further traffic: %d delivered, want 40", len(got))
	}

	req := aa.BuildRequest(first[0].Raw, &idC.Cert, idC.Sig)
	if _, err := w.in.AS(100).Agent.VerifyEvidence(req); err != nil {
		t.Fatalf("evidence from the first message's Raw no longer verifies: %v", err)
	}
	if ok, err := w.carol.Shutoff(first[0]); err != nil || !ok {
		t.Fatalf("shutoff on that evidence: revoked %v, err %v", ok, err)
	}
}

// TestSendAllocCeiling pins the host data path's allocation budget: one
// message through the facade — SendAsync, the simulator, both routers,
// the peer's inbox — costs the frame, the plaintext, the inbox slice and
// the future, and nothing per event or per hop.
func TestSendAllocCeiling(t *testing.T) {
	in, err := New(1, WithAS(1, "a"), WithAS(2, "b"), WithLink(1, 2, time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	a, b := in.Host("a"), in.Host("b")
	idA, err := a.NewEphID(KindData, 900)
	if err != nil {
		t.Fatal(err)
	}
	idB, err := b.NewEphID(KindData, 900)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := a.Connect(idA, &idB.Cert, nil)
	if err != nil {
		t.Fatal(err)
	}
	msg := make([]byte, 1024)
	ops := make([]Op, 1)
	send := func() {
		ops[0] = a.SendAsync(conn, msg)
		if err := in.AwaitAll(ops...); err != nil {
			t.Fatal(err)
		}
		if got := b.Stack.Inbox(); len(got) != 1 || len(got[0].Payload) != len(msg) {
			t.Fatalf("delivered %d messages", len(got))
		}
	}
	send() // grow the event queue and the live-operation registry
	if allocs := testing.AllocsPerRun(100, send); allocs > 5 {
		t.Errorf("one message costs %v allocations, want at most 5", allocs)
	} else {
		t.Logf("%v allocations per message", allocs)
	}
}
