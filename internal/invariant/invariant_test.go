package invariant

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"apna/internal/ephid"
	"apna/internal/host"
	"apna/internal/wire"
)

// tick is a controllable virtual clock.
type tick struct{ now time.Duration }

func (t *tick) fn() func() time.Duration { return func() time.Duration { return t.now } }

func ep(aid ephid.AID, tag byte) wire.Endpoint {
	var e ephid.EphID
	e[0] = tag
	return wire.Endpoint{AID: aid, EphID: e}
}

// msg builds a delivered message with a raw frame carrying nonce.
func msg(t *testing.T, src, dst wire.Endpoint, nonce uint64) host.Message {
	t.Helper()
	p := wire.Packet{Header: wire.Header{
		NextProto: wire.ProtoSession, Nonce: nonce,
		SrcAID: src.AID, DstAID: dst.AID,
		SrcEphID: src.EphID, DstEphID: dst.EphID,
	}}
	raw, err := p.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return host.Message{Flow: wire.Flow{Src: src, Dst: dst}, Raw: raw}
}

// checkAll replays the recorded trace against every invariant.
func checkAll(t *testing.T, c *Checker) *Report {
	t.Helper()
	rep, err := c.CheckSelected(nil)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func result(t *testing.T, rep *Report, name string) Result {
	t.Helper()
	for _, r := range rep.Results {
		if r.Name == name {
			return r
		}
	}
	t.Fatalf("no result %q in %+v", name, rep)
	return Result{}
}

func TestCleanTraceHoldsAllInvariants(t *testing.T) {
	clk := &tick{}
	c := New(clk.fn(), 10*time.Millisecond)
	src, dst := ep(1, 1), ep(2, 2)
	c.Issued(1, src.EphID)
	c.Issued(2, dst.EphID)
	c.Dialed(src, dst)
	c.Accepted(src, dst)
	clk.now = time.Millisecond
	c.Delivered("bob", msg(t, src, dst, 1))
	c.Delivered("bob", msg(t, src, dst, 2))

	rep := checkAll(t, c)
	if !rep.OK {
		raw, _ := json.Marshal(rep)
		t.Fatalf("clean trace violated invariants: %s", raw)
	}
	if len(rep.Results) != 5 {
		t.Errorf("results = %d, want 5 invariants", len(rep.Results))
	}
}

func TestUnattributableDeliveryCaught(t *testing.T) {
	c := New((&tick{}).fn(), 0)
	src, dst := ep(1, 1), ep(2, 2)
	// src never issued.
	c.Delivered("bob", msg(t, src, dst, 1))
	rep := checkAll(t, c)
	if r := result(t, rep, InvAttributable); r.OK || len(r.Violations) != 1 {
		t.Errorf("unissued source not caught: %+v", r)
	}
	// Issued, but by a different AS than the packet claims.
	c2 := New((&tick{}).fn(), 0)
	c2.Issued(7, src.EphID)
	c2.Delivered("bob", msg(t, src, dst, 1))
	if r := result(t, checkAll(t, c2), InvAttributable); r.OK {
		t.Error("cross-AS attribution mismatch not caught")
	}
}

func TestForgedAcceptCaught(t *testing.T) {
	c := New((&tick{}).fn(), 0)
	forged, dst := ep(1, 9), ep(2, 2)
	c.Issued(1, forged.EphID) // even a collision with an issued ID:
	c.ForgedInjected(forged.EphID)
	c.Delivered("bob", msg(t, forged, dst, 1))
	if r := result(t, checkAll(t, c), InvNoForgedAccept); r.OK {
		t.Error("forged delivery not caught")
	}

	c2 := New((&tick{}).fn(), 0)
	c2.ForgedInjected(forged.EphID)
	c2.Accepted(forged, dst)
	if r := result(t, checkAll(t, c2), InvNoForgedAccept); r.OK {
		t.Error("forged handshake accept not caught")
	}
}

func TestShutoffGraceSemantics(t *testing.T) {
	clk := &tick{}
	c := New(clk.fn(), 5*time.Millisecond)
	src, dst := ep(1, 1), ep(2, 2)
	c.Issued(1, src.EphID)
	c.Dialed(src, dst)

	clk.now = 10 * time.Millisecond
	c.Revoked(src.EphID)
	// Within grace: in-flight packet, legitimate.
	clk.now = 14 * time.Millisecond
	c.Delivered("bob", msg(t, src, dst, 1))
	if r := result(t, checkAll(t, c), InvShutoffStops); !r.OK {
		t.Errorf("in-grace delivery flagged: %+v", r.Violations)
	}
	// Past grace: the shutoff failed to stop traffic.
	clk.now = 16 * time.Millisecond
	c.Delivered("bob", msg(t, src, dst, 2))
	if r := result(t, checkAll(t, c), InvShutoffStops); r.OK {
		t.Error("post-grace delivery not caught")
	}
}

func TestReplayCaught(t *testing.T) {
	c := New((&tick{}).fn(), 0)
	src, dst := ep(1, 1), ep(2, 2)
	c.Issued(1, src.EphID)
	c.Dialed(src, dst)
	c.Delivered("bob", msg(t, src, dst, 42))
	c.Delivered("bob", msg(t, src, dst, 42)) // same flow+nonce twice
	if r := result(t, checkAll(t, c), InvNoReplay); r.OK || len(r.Violations) != 1 {
		t.Errorf("replayed delivery not caught: %+v", r)
	}
}

func TestReplayedHandshakeCaught(t *testing.T) {
	c := New((&tick{}).fn(), 0)
	src, dst := ep(1, 1), ep(2, 2)
	c.Dialed(src, dst)
	c.Accepted(src, dst)
	c.Accepted(src, dst) // one dial, two completions
	if r := result(t, checkAll(t, c), InvNoReplay); r.OK {
		t.Error("handshake completing twice for one dial not caught")
	}
}

func TestFlowReuseCaught(t *testing.T) {
	c := New((&tick{}).fn(), 0)
	src := ep(1, 1)
	c.Issued(1, src.EphID)
	c.Dialed(src, ep(2, 2))
	c.Dialed(src, ep(3, 3)) // same source EphID toward a second peer
	if r := result(t, checkAll(t, c), InvFlowUnlinkable); r.OK {
		t.Error("cross-flow EphID reuse not caught")
	}
}

func TestReportJSON(t *testing.T) {
	c := New((&tick{}).fn(), 0)
	c.Delivered("bob", msg(t, ep(1, 1), ep(2, 2), 1))
	raw, err := json.Marshal(checkAll(t, c))
	if err != nil {
		t.Fatal(err)
	}
	s := string(raw)
	for _, want := range []string{`"ok":false`, InvAttributable, `"violations"`, `"section"`} {
		if !strings.Contains(s, want) {
			t.Errorf("JSON missing %q: %s", want, s)
		}
	}
}
