package host

import (
	"errors"
	"testing"

	"apna/internal/crypto"
	"apna/internal/ephid"
	"apna/internal/rpki"
)

// Lifecycle-side pool behavior: release semantics, the single claim
// funnel, serving-EphID selection under per-flow leases, and pool
// reaping. The cross-network paths (renewal protocol, migration) are
// covered by the facade tests in package apna.

// clockHost builds a host whose clock the test controls.
func clockHost(t *testing.T, now *int64) *Host {
	t.Helper()
	h, err := New(Config{
		AID: 100, HID: 7,
		Keys:  crypto.DeriveHostASKeys([]byte("h")),
		Trust: rpki.NewTrustStore(nil),
		Now:   func() int64 { return *now },
	})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// TestReleaseRefillsPerFlowPool is the pool-exhaustion regression: a
// per-flow pool of size one must sustain any number of sequential
// acquire/release rounds. Before release semantics existed, the InUse
// mark was never cleared and the second acquire starved.
func TestReleaseRefillsPerFlowPool(t *testing.T) {
	h := testHost(t)
	h.AddEphID(owned(t, ephid.KindData, 9999, 1))
	for round := 0; round < 5; round++ {
		o, err := h.Acquire(PerFlow, "")
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if _, err := h.Acquire(PerFlow, ""); !errors.Is(err, ErrNoEphID) {
			t.Fatalf("round %d: double acquire: %v", round, err)
		}
		h.Release(o)
	}
	if got := h.Stats().EphIDsReleased; got != 5 {
		t.Errorf("EphIDsReleased = %d, want 5", got)
	}
}

func TestReleaseIdempotentAndNilSafe(t *testing.T) {
	h := testHost(t)
	o := owned(t, ephid.KindData, 9999, 1)
	h.AddEphID(o)
	h.Release(nil)
	h.Release(o) // never claimed: no-op
	if got := h.Stats().EphIDsReleased; got != 0 {
		t.Errorf("unclaimed release counted: %d", got)
	}
}

// TestPickServingSkipsInUse: answering a connection from an EphID
// leased to another flow would link the two flows — pickServing must
// prefer a free identifier and refuse outright when none exists. This
// test fails against the pre-lifecycle pickServing, which returned the
// first usable EphID regardless of its lease.
func TestPickServingSkipsInUse(t *testing.T) {
	h := testHost(t)
	leased := owned(t, ephid.KindData, 9999, 1)
	h.AddEphID(leased)
	if _, err := h.Acquire(PerFlow, ""); err != nil {
		t.Fatal(err)
	}
	if got := h.pickServing(); got != nil {
		t.Fatalf("pickServing returned leased EphID %v", got.Cert.EphID)
	}
	free := owned(t, ephid.KindData, 9999, 2)
	h.AddEphID(free)
	if got := h.pickServing(); got != free {
		t.Error("free EphID not picked")
	}
	h.Release(leased)
	if got := h.pickServing(); got != leased {
		t.Error("released EphID not eligible for serving again")
	}
}

// TestClaimRevalidatesUnderCurrentClock covers the relabeling race the
// claim funnel closes: an EphID selected while valid must not be
// claimed (per-flow) or labeled (per-application) after it expired.
func TestClaimRevalidatesUnderCurrentClock(t *testing.T) {
	now := int64(1000)
	h := clockHost(t, &now)
	o := owned(t, ephid.KindData, 2000, 1)
	h.AddEphID(o)

	// Select, then let the clock pass the expiry before claiming — the
	// shape of "renewal reaped it while the caller held the pointer".
	now = 3000
	if h.claim(o, PerFlow, "") {
		t.Error("expired EphID claimed per-flow")
	}
	if o.InUse {
		t.Error("expired EphID marked InUse")
	}
	if h.claim(o, PerApplication, "browser") {
		t.Error("expired EphID labeled")
	}
	if o.App != "" {
		t.Errorf("expired EphID relabeled to %q", o.App)
	}

	now = 1000
	if !h.claim(o, PerApplication, "browser") {
		t.Error("valid claim refused")
	}
	if h.claim(o, PerApplication, "mail") {
		t.Error("labeled EphID relabeled to another app")
	}
}

func TestAcquirePerApplicationSkipsForeignLabels(t *testing.T) {
	h := testHost(t)
	a := owned(t, ephid.KindData, 9999, 1)
	h.AddEphID(a)
	got, err := h.Acquire(PerApplication, "browser")
	if err != nil || got != a {
		t.Fatalf("first acquire: %v, %v", got, err)
	}
	if _, err := h.Acquire(PerApplication, "mail"); !errors.Is(err, ErrNoEphID) {
		t.Errorf("foreign-label acquire: %v", err)
	}
	again, err := h.Acquire(PerApplication, "browser")
	if err != nil || again != a {
		t.Errorf("labeled reuse: %v, %v", again, err)
	}
}

func TestReapExpired(t *testing.T) {
	now := int64(1000)
	h := clockHost(t, &now)
	dead := owned(t, ephid.KindData, 500, 1)
	live := owned(t, ephid.KindData, 9999, 2)
	h.AddEphID(dead)
	h.AddEphID(live)

	h.ReapExpired()
	if _, ok := h.Lookup(dead.Cert.EphID); ok {
		t.Error("expired EphID still in pool")
	}
	if _, ok := h.Lookup(live.Cert.EphID); !ok {
		t.Error("live EphID reaped")
	}
	if len(h.poolList) != 1 {
		t.Errorf("pool size %d", len(h.poolList))
	}
	h.ReapExpired()
	if _, ok := h.Lookup(live.Cert.EphID); !ok || len(h.poolList) != 1 {
		t.Errorf("second reap: live EphID kept %v, pool size %d", ok, len(h.poolList))
	}
}

func TestExpiringBefore(t *testing.T) {
	h := testHost(t)
	soon := owned(t, ephid.KindData, 1100, 1)
	later := owned(t, ephid.KindData, 5000, 2)
	h.AddEphID(soon)
	h.AddEphID(later)
	got := h.ExpiringBefore(1200)
	if len(got) != 1 || got[0] != soon {
		t.Errorf("ExpiringBefore = %v", got)
	}
	if got := h.ExpiringBefore(9999); len(got) != 2 {
		t.Errorf("all-expiring = %d entries", len(got))
	}
}

func TestRetireRemovesFromPool(t *testing.T) {
	h := testHost(t)
	o := owned(t, ephid.KindData, 9999, 1)
	h.AddEphID(o)
	h.Retire(o)
	if _, ok := h.Lookup(o.Cert.EphID); ok || len(h.poolList) != 0 {
		t.Error("retired EphID still present")
	}
	h.Retire(o) // idempotent
	if _, err := h.Acquire(PerFlow, ""); !errors.Is(err, ErrNoEphID) {
		t.Error("retired EphID acquired")
	}
}
