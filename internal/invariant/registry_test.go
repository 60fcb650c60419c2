package invariant

import (
	"testing"
	"time"

	"apna/internal/ephid"
	"apna/internal/host"
	"apna/internal/wire"
)

func TestRegistryNames(t *testing.T) {
	names := Names()
	want := []string{InvAttributable, InvNoForgedAccept, InvShutoffStops, InvNoReplay, InvFlowUnlinkable}
	if len(names) != len(want) {
		t.Fatalf("Names() = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("Names()[%d] = %q, want %q", i, names[i], want[i])
		}
		if !Known(want[i]) {
			t.Fatalf("Known(%q) = false", want[i])
		}
	}
	if Known("bogus") {
		t.Fatal("Known(bogus) = true")
	}
	// Names returns a copy.
	names[0] = "mutated"
	if Names()[0] != InvAttributable {
		t.Fatal("Names() exposed registry backing array")
	}
}

func TestCheckSelected(t *testing.T) {
	var now time.Duration
	c := New(func() time.Duration { return now }, time.Millisecond)

	// One attributability violation: a delivery from an EphID nobody
	// issued.
	var e ephid.EphID
	e[0] = 0xAB
	c.Delivered("victim", deliveredFrom(e))

	full := checkAll(t, c)
	if full.OK {
		t.Fatal("full check should fail on the unissued delivery")
	}
	if len(full.Results) != len(Names()) {
		t.Fatalf("full check ran %d invariants, want %d", len(full.Results), len(Names()))
	}

	// Selecting only no-replay must pass (the violation is invisible to
	// it) and return exactly one result.
	sub, err := c.CheckSelected([]string{InvNoReplay})
	if err != nil {
		t.Fatal(err)
	}
	if !sub.OK || len(sub.Results) != 1 || sub.Results[0].Name != InvNoReplay {
		t.Fatalf("subset check: %+v", sub)
	}

	// Selection order is canonicalized.
	two, err := c.CheckSelected([]string{InvNoReplay, InvAttributable})
	if err != nil {
		t.Fatal(err)
	}
	if len(two.Results) != 2 || two.Results[0].Name != InvAttributable || two.Results[1].Name != InvNoReplay {
		t.Fatalf("selection not canonicalized: %+v", two.Results)
	}
	if two.OK {
		t.Fatal("attributable subset should fail")
	}

	// Unknown names are an error.
	if _, err := c.CheckSelected([]string{"no-such-invariant"}); err == nil {
		t.Fatal("unknown invariant accepted")
	}

	// Empty selection = everything.
	all, err := c.CheckSelected(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(all.Results) != len(Names()) {
		t.Fatalf("nil selection ran %d invariants", len(all.Results))
	}
}

// deliveredFrom fabricates a minimal delivery (Delivered only reads
// Flow and Raw).
func deliveredFrom(src ephid.EphID) (m host.Message) {
	m.Flow = wire.Flow{Src: wire.Endpoint{AID: 100, EphID: src}, Dst: wire.Endpoint{AID: 200}}
	return m
}
