package apna

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"apna/internal/border"
	"apna/internal/ephid"
	"apna/internal/host"
	"apna/internal/ms"
)

// lifecycleWorld is a two-AS internet with a server flow ready to
// dial: bob publishes a long-lived data EphID, alice holds a pool of
// short-lived per-flow identifiers. The lifecycle engine runs when the
// world was built with WithLifetimes; without it a test renews by
// hand.
type lifecycleWorld struct {
	in         *Internet
	alice, bob *Host
	srv        *host.OwnedEphID
}

func newLifecycleWorld(t *testing.T, poolSize int, life uint32, opts ...TopologyOption) *lifecycleWorld {
	t.Helper()
	in, err := New(1, append([]TopologyOption{
		WithAS(100, "alice"),
		WithAS(200, "bob"),
		WithLink(100, 200, 10*time.Millisecond)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	w := &lifecycleWorld{in: in, alice: in.Host("alice"), bob: in.Host("bob")}
	if w.srv, err = w.bob.NewEphID(KindData, 24*3600); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < poolSize; i++ {
		if _, err := w.alice.NewEphID(KindData, life); err != nil {
			t.Fatal(err)
		}
	}
	return w
}

// TestDialCloseRedialBeyondPoolSize is the pool-exhaustion regression
// at the integration level: a per-flow host dials, closes and re-dials
// more flows than its pool holds; before Close released the lease,
// the fourth dial starved with ErrNoEphID.
func TestDialCloseRedialBeyondPoolSize(t *testing.T) {
	const poolSize = 2
	w := newLifecycleWorld(t, poolSize, 24*3600, WithLifetimes(DefaultLifetimes()))
	received, released := 0, 0
	w.bob.Stack.OnMessage(func(m Message) { received++ })

	for round := 0; round < 3*poolSize; round++ {
		id, err := w.alice.Stack.Acquire(host.PerFlow, "")
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		conn, err := w.alice.Connect(id, &w.srv.Cert, nil)
		if err != nil {
			t.Fatalf("round %d connect: %v", round, err)
		}
		if err := w.alice.Send(conn, []byte(fmt.Sprintf("round %d", round))); err != nil {
			t.Fatalf("round %d send: %v", round, err)
		}
		conn.Close()
		if !id.InUse {
			released++
		}
	}
	if received != 3*poolSize {
		t.Errorf("received %d, want %d", received, 3*poolSize)
	}
	if released != 3*poolSize {
		t.Errorf("Close released %d of %d flows' EphIDs", released, 3*poolSize)
	}
}

// TestConcurrentFlowsBeyondPoolAcrossWindows covers the acceptance
// gate in miniature: concurrent flows opened and closed over several
// validity windows, with the engine renewing the pool, never starve.
func TestConcurrentFlowsBeyondPoolAcrossWindows(t *testing.T) {
	const poolSize = 3
	w := newLifecycleWorld(t, poolSize, 60, WithLifetimes(Lifetimes{
		RenewLead: 20 * time.Second, CheckInterval: 5 * time.Second,
		RenewLifetime: 60,
	}))
	received := 0
	w.bob.Stack.OnMessage(func(m Message) { received++ })

	total := 0
	for window := 0; window < 3; window++ {
		// Two concurrent flows per window, torn down before the next.
		var conns []*Conn
		for k := 0; k < 2; k++ {
			id, err := w.alice.Stack.Acquire(host.PerFlow, "")
			if err != nil {
				t.Fatalf("window %d: %v", window, err)
			}
			conn, err := w.alice.Connect(id, &w.srv.Cert, nil)
			if err != nil {
				t.Fatalf("window %d connect: %v", window, err)
			}
			conns = append(conns, conn)
		}
		for _, c := range conns {
			if err := w.alice.Send(c, []byte("data")); err != nil {
				t.Fatal(err)
			}
			total++
			c.Close()
		}
		w.in.RunFor(60 * time.Second) // cross a validity window
	}
	if received != total {
		t.Errorf("received %d, want %d", received, total)
	}
	if st := w.in.Lifecycle().Stats(); st.RenewalsCompleted == 0 {
		t.Error("engine never renewed")
	}
}

// TestExpiryMidFlow drives a session across its EphID's expiry with
// no engine running: post-expiry frames die at the border with
// drop-expired until a manual renewal and migration restore the flow.
func TestExpiryMidFlow(t *testing.T) {
	w := newLifecycleWorld(t, 1, 60) // no engine: nothing may rescue the flow
	received := 0
	w.bob.Stack.OnMessage(func(m Message) { received++ })

	id, err := w.alice.Stack.Acquire(host.PerFlow, "")
	if err != nil {
		t.Fatal(err)
	}
	conn, err := w.alice.Connect(id, &w.srv.Cert, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.alice.Send(conn, []byte("pre-expiry")); err != nil {
		t.Fatal(err)
	}
	if received != 1 {
		t.Fatalf("pre-expiry delivery: %d", received)
	}

	// Advance virtual time past the EphID's validity.
	w.in.RunFor(2 * time.Minute)

	rtr := w.in.AS(100).Router
	dropsBefore := rtr.Stats().Get(border.VerdictDropExpired)
	if err := w.alice.Send(conn, []byte("post-expiry")); err != nil {
		t.Fatal(err)
	}
	if got := rtr.Stats().Get(border.VerdictDropExpired); got != dropsBefore+1 {
		t.Errorf("drop-expired = %d, want %d", got, dropsBefore+1)
	}
	if received != 1 {
		t.Fatalf("post-expiry frame delivered (%d)", received)
	}

	// Renewal + migration restore the flow. Renewing an identifier
	// that already lapsed is the recovery path and must succeed.
	succ, err := AwaitResult(w.in, w.alice.RenewAsync(id, 60))
	if err != nil {
		t.Fatalf("renew: %v", err)
	}
	migrated := false
	if err := w.alice.Stack.Migrate(conn, succ, func(error) { migrated = true }); err != nil {
		t.Fatalf("migrate: %v", err)
	}
	w.in.RunUntilIdle()
	if !migrated {
		t.Fatal("migration never completed")
	}
	if conn.Local() != succ {
		t.Error("connection still on expired EphID")
	}
	if err := w.alice.Send(conn, []byte("post-renewal")); err != nil {
		t.Fatal(err)
	}
	if received != 2 {
		t.Errorf("post-renewal delivery: %d, want 2", received)
	}
}

// TestEngineRenewsAndMigratesLiveFlow: with the engine running, a flow
// crossing several validity windows keeps delivering and hops onto
// fresh identifiers without the application doing anything.
func TestEngineRenewsAndMigratesLiveFlow(t *testing.T) {
	w := newLifecycleWorld(t, 1, 60, WithLifetimes(Lifetimes{
		RenewLead: 20 * time.Second, CheckInterval: 5 * time.Second,
		RenewLifetime: 60,
	}))
	received, retired := 0, 0
	w.bob.Stack.OnMessage(func(m Message) { received++ })
	w.in.Lifecycle().SetObserver(func(ev LifecycleEvent) {
		if ev.Kind == "retired" {
			retired++
		}
	})

	id, err := w.alice.Stack.Acquire(host.PerFlow, "")
	if err != nil {
		t.Fatal(err)
	}
	conn, err := w.alice.Connect(id, &w.srv.Cert, nil)
	if err != nil {
		t.Fatal(err)
	}
	first := conn.Local()
	for window := 0; window < 3; window++ {
		if err := w.alice.Send(conn, []byte("beat")); err != nil {
			t.Fatalf("window %d: %v", window, err)
		}
		w.in.RunFor(60 * time.Second)
	}
	if received != 3 {
		t.Errorf("received %d, want 3", received)
	}
	if conn.Local() == first {
		t.Error("connection never migrated off its original EphID")
	}
	st := w.in.Lifecycle().Stats()
	if st.MigrationsCompleted < 2 || retired == 0 {
		t.Errorf("engine stats: %+v, %d retired", st, retired)
	}
	// The predecessors are gone from the pool; only live identifiers
	// remain.
	if _, ok := w.alice.Stack.Lookup(first.Cert.EphID); ok {
		t.Error("superseded EphID still pooled")
	}
}

// TestRenewRateLimitSurfacesTypedError: the MS's denial arrives as
// ms.ErrRenewRateLimited through the facade future, not as a silent
// timeout.
func TestRenewRateLimitSurfacesTypedError(t *testing.T) {
	opts := DefaultOptions()
	opts.Policy.RenewBurst = 2
	opts.Policy.RenewWindow = 3600
	in, err := New(1,
		WithOptions(opts),
		WithAS(100, "alice"),
		WithAS(200, "bob"),
		WithLink(100, 200, 10*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	alice := in.Host("alice")
	id, err := alice.NewEphID(KindData, 600)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if id, err = AwaitResult(in, alice.RenewAsync(id, 600)); err != nil {
			t.Fatalf("renewal %d: %v", i, err)
		}
	}
	if _, err := AwaitResult(in, alice.RenewAsync(id, 600)); !errors.Is(err, ms.ErrRenewRateLimited) {
		t.Errorf("over budget: %v", err)
	}
	// The denial consumed its reply slot: the next issuance still
	// matches its own reply (FIFO stays synchronized).
	if _, err := alice.NewEphID(KindData, 600); err != nil {
		t.Errorf("issuance after denial: %v", err)
	}
}

// TestScheduledGCReapsRevocations: revocation-list entries reap on the
// engine's GC cadence once their EphIDs expire — no manual GC call.
func TestScheduledGCReapsRevocations(t *testing.T) {
	w := newLifecycleWorld(t, 1, 60, WithLifetimes(Lifetimes{GCInterval: 30 * time.Second}))
	id, err := w.alice.Stack.Acquire(host.PerFlow, "")
	if err != nil {
		t.Fatal(err)
	}
	// Voluntarily revoke the identifier (Section VIII-G2).
	if err := w.in.AS(100).Agent.RevokeVoluntary(w.alice.HID(), id.Cert.EphID); err != nil {
		t.Fatal(err)
	}
	if got := w.in.AS(100).Router.Revoked().Len(); got != 1 {
		t.Fatalf("revocation list = %d", got)
	}
	// Crossing the expiry horizon, the scheduled GC reaps the entry.
	w.in.RunFor(3 * time.Minute)
	if got := w.in.AS(100).Router.Revoked().Len(); got != 0 {
		t.Errorf("revocation list = %d after GC horizon", got)
	}
	if st := w.in.Lifecycle().Stats(); st.RevocationsReaped != 1 {
		t.Errorf("RevocationsReaped = %d", st.RevocationsReaped)
	}
}

// TestWithLifetimesValidation: negative durations are caught at
// topology validation, before any construction.
func TestWithLifetimesValidation(t *testing.T) {
	_, err := New(1,
		WithAS(100, "a"),
		WithLifetimes(Lifetimes{RenewLead: -time.Second}))
	if !errors.Is(err, ErrBadTopology) {
		t.Errorf("err = %v", err)
	}
}

// TestCloseFailsFurtherSends: a closed connection refuses data instead
// of silently queueing into a dead flow.
func TestCloseFailsFurtherSends(t *testing.T) {
	w := newLifecycleWorld(t, 1, 3600, WithLifetimes(DefaultLifetimes()))
	id, err := w.alice.Stack.Acquire(host.PerFlow, "")
	if err != nil {
		t.Fatal(err)
	}
	conn, err := w.alice.Connect(id, &w.srv.Cert, nil)
	if err != nil {
		t.Fatal(err)
	}
	conn.Close()
	conn.Close() // idempotent
	if err := conn.Send([]byte("x")); !errors.Is(err, host.ErrNoSession) {
		t.Errorf("send on closed conn: %v", err)
	}
}

// TestPickServingRefusesLeasedEphID end to end: a server whose only
// sendable identifier is leased to a per-flow connection must not
// answer a receive-only dial with it (doing so would link the flows).
func TestPickServingRefusesLeasedEphID(t *testing.T) {
	w := newLifecycleWorld(t, 1, 3600, WithLifetimes(DefaultLifetimes()))

	// Bob: a receive-only identifier plus ONE data identifier, leased
	// out to bob's own outbound flow.
	ro, err := w.bob.NewEphID(ephid.KindReceiveOnly, 3600)
	if err != nil {
		t.Fatal(err)
	}
	lease, err := w.bob.Stack.Acquire(host.PerFlow, "")
	if err != nil {
		t.Fatal(err)
	}

	id, err := w.alice.Stack.Acquire(host.PerFlow, "")
	if err != nil {
		t.Fatal(err)
	}
	drops := w.bob.Stack.Stats().DropBadHandshake
	p := w.alice.ConnectAsync(id, &ro.Cert, nil)
	w.in.RunFor(time.Second)
	if _, err := p.Result(); err == nil {
		t.Fatal("dial served from a leased per-flow EphID")
	}
	if got := w.bob.Stack.Stats().DropBadHandshake; got != drops+1 {
		t.Errorf("DropBadHandshake = %d, want %d", got, drops+1)
	}

	// Releasing the lease makes the dial serveable again. Alice's
	// failed dial also returns its identifier before redialing.
	w.bob.Stack.Release(lease)
	w.alice.Stack.Release(id)
	id2, err := w.alice.Stack.Acquire(host.PerFlow, "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.alice.Connect(id2, &ro.Cert, nil); err != nil {
		t.Errorf("dial after release: %v", err)
	}
}

// TestCloseDuringMigrationReturnsLease: closing a connection while its
// migration re-handshake is in flight must not leak the successor's
// per-flow lease — the close-vs-migration race found in review.
func TestCloseDuringMigrationReturnsLease(t *testing.T) {
	w := newLifecycleWorld(t, 1, 3600) // no engine: the test drives the migration
	id, err := w.alice.Stack.Acquire(host.PerFlow, "")
	if err != nil {
		t.Fatal(err)
	}
	conn, err := w.alice.Connect(id, &w.srv.Cert, nil)
	if err != nil {
		t.Fatal(err)
	}
	succ, err := AwaitResult(w.in, w.alice.RenewAsync(id, 3600))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.alice.Stack.Migrate(conn, succ, nil); err != nil {
		t.Fatal(err)
	}
	// Close races the in-flight migration ack.
	conn.Close()
	w.in.RunUntilIdle()
	// Both identifiers are free again: the predecessor via Close, the
	// successor via the mid-migration close path.
	got, err := w.alice.Stack.Acquire(host.PerFlow, "")
	if err != nil {
		t.Fatalf("successor lease leaked: %v", err)
	}
	if got != id && got != succ {
		t.Errorf("unexpected acquire %v", got.Cert.EphID)
	}
	w.alice.Stack.Release(got)
	if _, err := w.alice.Stack.Acquire(host.PerFlow, ""); err != nil {
		t.Fatalf("second identifier still leased: %v", err)
	}
}
