package apna

import (
	"errors"
	"testing"

	"apna/internal/ephid"
)

// Misuse-resistance tests for Pending[T]: double resolution, awaiting
// operations the timeline has already abandoned, and batches mixing
// resolved, failed and abandoned futures.

func TestPendingDoubleResolveFirstWins(t *testing.T) {
	p := newPending[int]()
	abandons := 0
	p.onIdleAbandon = func() { abandons++ }
	p.complete(1, nil)
	p.complete(2, errors.New("late duplicate reply")) // must be ignored
	v, err := p.Result()
	if v != 1 || err != nil {
		t.Errorf("Result = (%d, %v), want first resolution (1, nil)", v, err)
	}
	if p.onIdleAbandon != nil {
		t.Error("completion did not release the abandon closure")
	}
	// Settling an already-resolved future must not fire abandonment.
	p.settle(true)
	if abandons != 0 {
		t.Errorf("abandon ran %d times on a resolved future", abandons)
	}

	// The error direction: first resolution an error, late success
	// ignored.
	q := newPending[int]()
	q.complete(0, errors.New("boom"))
	q.complete(9, nil)
	if _, err := q.Result(); err == nil || err.Error() != "boom" {
		t.Errorf("late success overwrote error: %v", err)
	}
}

func TestAwaitAfterQuiescenceAbandonment(t *testing.T) {
	in, err := New(1, WithAS(100, "solo"))
	if err != nil {
		t.Fatal(err)
	}
	h := in.Host("solo")
	if _, err := h.NewEphID(ephid.KindData, 900); err != nil {
		t.Fatal(err)
	}
	// A probe toward an AS that does not exist: the network drops it
	// and no reply can ever arrive.
	p := h.PingAsync(Endpoint{AID: 999}, 1)
	if err := in.AwaitAll(p); !errors.Is(err, ErrTimeout) {
		t.Fatalf("first AwaitAll = %v, want ErrTimeout", err)
	}
	// The quiescent timeline abandoned the operation: its reply-routing
	// state must be gone, and further Awaits must stay stable rather
	// than hang, panic or invent a resolution.
	if len(h.pings) != 0 {
		t.Errorf("abandoned ping left routing state: %v", h.pings)
	}
	if err := in.AwaitAll(p); !errors.Is(err, ErrTimeout) {
		t.Fatalf("second AwaitAll = %v, want ErrTimeout again", err)
	}
	if p.Done() {
		t.Error("abandoned operation reports Done")
	}
	if err := p.Err(); !errors.Is(err, ErrPending) {
		t.Errorf("abandoned operation Err = %v, want ErrPending", err)
	}
	// The facade's blocking wrapper turns the dead probe into a clean
	// "no reply", proving a fresh ping on the same key is unaffected by
	// the abandoned one.
	if replied, err := h.Ping(Endpoint{AID: 999}, 1); replied || err != nil {
		t.Errorf("fresh ping after abandonment = (%v, %v)", replied, err)
	}
}

func TestAwaitAllMixedResolvedAndAbandoned(t *testing.T) {
	in, err := New(1, WithAS(100, "alice", "bob"))
	if err != nil {
		t.Fatal(err)
	}
	alice, bob := in.Host("alice"), in.Host("bob")
	if _, err := alice.NewEphID(ephid.KindData, 900); err != nil {
		t.Fatal(err)
	}
	idB, err := bob.NewEphID(ephid.KindData, 900)
	if err != nil {
		t.Fatal(err)
	}

	resolves := alice.PingAsync(idB.Endpoint(), 7)     // will resolve true
	failed := failedPending[bool](errors.New("early")) // failed before scheduling
	abandoned := alice.PingAsync(Endpoint{AID: 999}, 8)

	if err := in.AwaitAll(resolves, failed, abandoned); !errors.Is(err, ErrTimeout) {
		t.Fatalf("AwaitAll = %v, want ErrTimeout from the abandoned op", err)
	}
	if ok, err := resolves.Result(); !ok || err != nil {
		t.Errorf("resolved op = (%v, %v), want (true, nil)", ok, err)
	}
	if err := failed.Err(); err == nil || errors.Is(err, ErrPending) {
		t.Errorf("failed op Err = %v, want its construction error", err)
	}
	if abandoned.Done() {
		t.Error("abandoned op reports Done")
	}
	// A batch of already-settled futures completes without touching the
	// simulator.
	events := in.Sim.Events()
	if err := in.AwaitAll(resolves, failed); err != nil {
		t.Errorf("AwaitAll over settled ops = %v", err)
	}
	if in.Sim.Events() != events {
		t.Error("AwaitAll over settled ops executed simulator events")
	}
}
