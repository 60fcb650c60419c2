package apna

import (
	"fmt"
	"time"

	"apna/internal/host"
)

// The EphID lifecycle engine. APNA's privacy and accountability story
// depends on hosts continuously cycling short-lived EphIDs through the
// MS (paper Sections V–VII): identifiers are issued, carry flows, are
// renewed before they expire, and the state they leave behind —
// revocation-list entries, revoked host_info records, dead pool slots —
// is garbage collected. This file is that engine: a pair of recurring
// virtual-time timers (netsim.Simulator.Every) that
//
//   - watch every host's pool and reap expired identifiers,
//   - start renewals (ms.ReqFlagRenew, rate-limited per host by the MS)
//     for identifiers inside the renewal lead window,
//   - migrate live connections onto the renewed successor via an
//     in-place re-handshake (host.Migrate), retrying migrations whose
//     handshakes chaos ate, and retire the predecessor once its flows
//     have moved, and
//   - run the scheduled GC pass over every AS (expired revocation-list
//     entries, reapable revoked host entries).
//
// Timers fire interleaved with traffic in strict virtual-time order and
// sweep across idle gaps under RunFor/RunUntil, so "heavy traffic over
// hours" scenarios renew exactly as live ones do.

// Lifetimes configures the lifecycle engine. The zero value of any
// field falls back to the DefaultLifetimes value.
type Lifetimes struct {
	// RenewLead is how long before an EphID's expiry its renewal
	// starts. It must exceed CheckInterval plus a round trip to the MS,
	// or flows hit the border router's drop-expired window while the
	// renewal is still in flight.
	RenewLead time.Duration
	// CheckInterval is the pool-watch cadence.
	CheckInterval time.Duration
	// GCInterval is the revocation-list / host_info reap cadence.
	GCInterval time.Duration
	// MigrateRetry is how long a migration re-handshake may stay in
	// flight before the engine aborts and redials it (chaotic inter-AS
	// links can eat the handshake or its acknowledgment).
	MigrateRetry time.Duration
	// RenewLifetime is the validity requested for successors, in
	// seconds; 0 asks for the MS policy default.
	RenewLifetime uint32
}

// DefaultLifetimes returns a cadence suited to the default simulation
// latencies: renewals start 30 virtual seconds ahead of expiry, checked
// every 5 seconds, with GC sweeping every minute.
func DefaultLifetimes() Lifetimes {
	return Lifetimes{
		RenewLead:     30 * time.Second,
		CheckInterval: 5 * time.Second,
		GCInterval:    time.Minute,
		MigrateRetry:  2 * time.Second,
	}
}

// withDefaults fills zero fields from DefaultLifetimes.
func (lt Lifetimes) withDefaults() Lifetimes {
	def := DefaultLifetimes()
	if lt.RenewLead <= 0 {
		lt.RenewLead = def.RenewLead
	}
	if lt.CheckInterval <= 0 {
		lt.CheckInterval = def.CheckInterval
	}
	if lt.GCInterval <= 0 {
		lt.GCInterval = def.GCInterval
	}
	if lt.MigrateRetry <= 0 {
		lt.MigrateRetry = def.MigrateRetry
	}
	return lt
}

// LifecycleStats counts what the engine did, in the same spirit as the
// border router's per-verdict counters.
type LifecycleStats struct {
	// RenewalsCompleted/Failed count answered renewal requests; Failed
	// includes MS rejections (rate limit, unknown host).
	RenewalsCompleted, RenewalsFailed uint64
	// MigrationsCompleted counts connections re-handshaken onto
	// successor EphIDs; a failed migration shows as its
	// "migrate-failed" event, a predecessor removed after its flows
	// migrated as its "retired" event.
	MigrationsCompleted uint64
	// RevocationsReaped counts the scheduled GC's revocation-list
	// harvest across all ASes.
	RevocationsReaped uint64
}

// LifecycleEvent is one engine action, surfaced to observers (scenario
// referees record renewals and migration dials for the invariant
// checker; harnesses log failures).
type LifecycleEvent struct {
	// Kind is "renewed", "renew-failed", "migrate-dial",
	// "migrate-failed" or "retired".
	Kind string
	// Host is the facade host the event belongs to.
	Host *Host
	// Old is the predecessor EphID; New the successor (nil for
	// "retired" events' New).
	Old, New *host.OwnedEphID
	// Peer is the remote endpoint of a "migrate-dial" event.
	Peer Endpoint
	// Err carries the failure of a "renew-failed" / "migrate-failed"
	// event.
	Err error
}

// Lifecycle is the running engine. It belongs to the simulator's
// goroutine like everything else in the facade.
type Lifecycle struct {
	in    *Internet
	cfg   Lifetimes
	stats LifecycleStats

	// renewing guards against double renewal of one EphID. The guard is
	// held from the renewal request until the predecessor is retired —
	// not just while the request is in flight: the predecessor stays in
	// the pool (and in ExpiringBefore's watch list) while its flows
	// migrate, and re-renewing it every tick would churn identifiers
	// straight into the MS rate limiter. A failed renewal clears the
	// guard so the next tick retries.
	renewing map[EphID]bool
	// migrating tracks in-flight migration re-handshakes per
	// connection, so ticks can retry ones that chaos swallowed. The
	// slice keeps retry scanning deterministic (map iteration is not).
	migrating []*migration

	observer func(LifecycleEvent)
}

// migration is one tracked connection re-handshake. started is false
// while the connection's own first handshake is still in flight — the
// successor dial waits for it (a predecessor with a pending dial must
// not be retired out from under the flow it is about to carry).
type migration struct {
	h        *Host
	conn     *host.Conn
	old, new *host.OwnedEphID
	deadline time.Duration // virtual time after which the dial is retried
	started  bool
	done     bool
}

// startLifecycle starts the engine a WithLifetimes option asked for.
func (in *Internet) startLifecycle(lt Lifetimes) {
	lc := &Lifecycle{in: in, cfg: lt.withDefaults(), renewing: make(map[EphID]bool)}
	in.Sim.Every(lc.cfg.CheckInterval, lc.tick)
	in.Sim.Every(lc.cfg.GCInterval, lc.gcTick)
	in.lifecycle = lc
}

// Lifecycle returns the running engine, or nil.
func (in *Internet) Lifecycle() *Lifecycle { return in.lifecycle }

// Stats returns a copy of the engine's counters.
func (lc *Lifecycle) Stats() LifecycleStats { return lc.stats }

// SetObserver installs a callback fired on every engine action.
func (lc *Lifecycle) SetObserver(fn func(LifecycleEvent)) { lc.observer = fn }

func (lc *Lifecycle) emit(ev LifecycleEvent) {
	if lc.observer != nil {
		lc.observer(ev)
	}
}

// tick is one pool-maintenance pass: reap expired identifiers, retry
// stuck migrations, and start renewals for identifiers entering the
// lead window.
func (lc *Lifecycle) tick() {
	lc.retryMigrations()
	deadline := lc.in.Sim.NowUnix() + int64(lc.cfg.RenewLead/time.Second)
	for _, h := range lc.in.Hosts() {
		h.Stack.ReapExpired()
		for _, o := range h.Stack.ExpiringBefore(deadline) {
			lc.renew(h, o)
		}
	}
}

// renew starts one renewal unless one is already in flight for the
// identifier. Receive-only identifiers are skipped: their renewal is
// republication under a service name, which belongs to the application
// that published them.
func (lc *Lifecycle) renew(h *Host, old *host.OwnedEphID) {
	if old.Cert.Kind == KindReceiveOnly {
		return
	}
	e := old.Cert.EphID
	if lc.renewing[e] {
		return
	}
	lc.renewing[e] = true
	err := h.Stack.RequestRenewal(old, lc.cfg.RenewLifetime, func(succ *host.OwnedEphID, err error) {
		if err != nil {
			delete(lc.renewing, e) // retried next tick
			lc.stats.RenewalsFailed++
			lc.emit(LifecycleEvent{Kind: "renew-failed", Host: h, Old: old, Err: err})
			return
		}
		lc.stats.RenewalsCompleted++
		lc.emit(LifecycleEvent{Kind: "renewed", Host: h, Old: old, New: succ})
		lc.adopt(h, old, succ)
	})
	if err != nil {
		delete(lc.renewing, e)
		lc.stats.RenewalsFailed++
	}
}

// adopt moves the predecessor's connections onto the successor and
// retires the predecessor. A connection whose own first handshake is
// still in flight is tracked too — its migration dials once it
// establishes; retiring its identifier now would strand the flow on
// an un-renewable EphID. With no connections at all the predecessor
// is retired immediately — it has a successor, so letting Acquire
// hand out an identifier with seconds to live would only schedule
// another renewal.
func (lc *Lifecycle) adopt(h *Host, old, succ *host.OwnedEphID) {
	moved := false
	for _, c := range h.Stack.Conns() {
		if c.Local() != old || c.Closed() || c.Migrating() {
			continue
		}
		moved = true
		m := &migration{h: h, conn: c, old: old, new: succ}
		if c.Established() {
			m.started = true
			if !lc.dialMigration(m) {
				continue
			}
		}
		lc.migrating = append(lc.migrating, m)
	}
	if !moved {
		lc.retire(h, old)
	}
}

// dialMigration issues (or re-issues) the migration handshake for m,
// reporting whether the dial left the host.
func (lc *Lifecycle) dialMigration(m *migration) bool {
	m.deadline = lc.in.Sim.Now() + lc.cfg.MigrateRetry
	lc.emit(LifecycleEvent{Kind: "migrate-dial", Host: m.h, Old: m.old, New: m.new, Peer: m.conn.Peer()})
	err := m.h.Stack.Migrate(m.conn, m.new, func(error) {
		m.done = true
		lc.stats.MigrationsCompleted++
		lc.retire(m.h, m.old)
	})
	if err != nil {
		lc.abandonMigration(m, err)
		return false
	}
	return true
}

// abandonMigration gives up on a migration: the transferred per-flow
// lease (if any) returns to the pool, and the predecessor retires so
// its renewal guard clears — otherwise the identifier would be wedged
// out of every future renewal.
func (lc *Lifecycle) abandonMigration(m *migration, err error) {
	lc.emit(LifecycleEvent{Kind: "migrate-failed", Host: m.h, Old: m.old, New: m.new, Err: err})
	m.done = true
	if m.started {
		// Only a started migration holds the transferred lease; before
		// that the successor was free in the pool and may have been
		// legitimately leased to another flow by Acquire.
		m.h.Stack.Release(m.new)
	}
	lc.retire(m.h, m.old)
}

// retryMigrations advances tracked migrations: waiting ones dial once
// their connection establishes (or are abandoned when it dies),
// started ones whose handshake (or ack) never arrived by their
// deadline are redialed, and finished entries are compacted away.
func (lc *Lifecycle) retryMigrations() {
	now := lc.in.Sim.Now()
	kept := lc.migrating[:0]
	for _, m := range lc.migrating {
		if m.done {
			continue
		}
		switch {
		case !m.started:
			// Waiting for the connection's own first handshake.
			if m.conn.Closed() || !m.h.Stack.Tracks(m.conn) {
				// Closed, or its dial was abandoned at quiescence:
				// nothing left to migrate.
				lc.abandonMigration(m, host.ErrNoSession)
				continue
			}
			if m.conn.Established() {
				m.started = true
				if !lc.dialMigration(m) {
					continue
				}
			}
		case now >= m.deadline && m.conn.Migrating():
			// The dial is stale: abort it and redial from the successor.
			// If the lost frame was only the acknowledgment, the
			// responder's handshake-replay cache answers the redial with
			// the original ack, so retrying is idempotent.
			m.h.Stack.AbortMigration(m.conn, m.new)
			if !lc.dialMigration(m) {
				continue
			}
		}
		kept = append(kept, m)
	}
	for i := len(kept); i < len(lc.migrating); i++ {
		lc.migrating[i] = nil
	}
	lc.migrating = kept
}

// retire removes a superseded identifier from the pool and clears its
// renewal guard (idempotent — migration completions of several flows
// sharing one EphID all call it).
func (lc *Lifecycle) retire(h *Host, old *host.OwnedEphID) {
	delete(lc.renewing, old.Cert.EphID)
	if _, ok := h.Stack.Lookup(old.Cert.EphID); !ok {
		return
	}
	h.Stack.Release(old)
	h.Stack.Retire(old)
	lc.emit(LifecycleEvent{Kind: "retired", Host: h, Old: old})
}

// gcTick is one scheduled GC pass over every AS. A revoked host_info
// entry is kept for the MS policy's MaxLifetime: no EphID of the host
// can outlive that.
func (lc *Lifecycle) gcTick() {
	retention := int64(lc.in.opts.Policy.MaxLifetime)
	for _, as := range lc.in.ASes() {
		lc.stats.RevocationsReaped += uint64(as.runGC(retention))
	}
}

// String renders an event for logs.
func (ev LifecycleEvent) String() string {
	switch ev.Kind {
	case "renewed":
		return fmt.Sprintf("renewed %v -> %v", ev.Old.Cert.EphID, ev.New.Cert.EphID)
	case "migrate-dial":
		return fmt.Sprintf("migrate %v -> %v toward %v", ev.Old.Cert.EphID, ev.New.Cert.EphID, ev.Peer)
	case "retired":
		return fmt.Sprintf("retired %v", ev.Old.Cert.EphID)
	case "renew-failed":
		return fmt.Sprintf("renew %v failed: %v", ev.Old.Cert.EphID, ev.Err)
	case "migrate-failed":
		return fmt.Sprintf("migrate %v -> %v failed: %v", ev.Old.Cert.EphID, ev.New.Cert.EphID, ev.Err)
	default:
		return ev.Kind
	}
}
