// Package population is the trace-driven population workload subsystem:
// it synthesizes realistic host behavior — diurnal session-arrival
// rates, heavy-tailed (Pareto) flow sizes and durations, correlated
// renewal storms at validity-window edges, host join/leave churn — from
// a seeded, deterministic model, and pushes it through share-nothing
// workers directly against the control-plane engines (MS
// issuance/renewal, hostdb put/revoke/GC, AA strikes, accountability
// receipt and digest caches).
//
// No full hosts are instantiated: one modeled host is ~150 bytes of
// worker-local state (its kHA keys, control EphID, and a small pool of
// flow slots), so 10^6–10^7 modeled hosts fit in a single process.
// That is the point — the paper's Section IX sizes the management
// service for ISP populations of millions of hosts, and this package is
// what lets the repo measure those paths at that scale instead of at
// the tens of hosts the conformance experiments use.
//
// Determinism: all behavior derives from per-worker rand.Rand instances
// seeded from (Seed, worker) and from virtual time, and every modeled
// host is owned by exactly one worker, so the logical event trace —
// which host did what at which tick, and every counter — is a pure
// function of the Config. Only wall-clock measurements (latencies,
// events/sec, RSS) vary between runs. EphID byte values are not part of
// the trace: the sealer's IV counter is shared across workers, so the
// identifiers themselves depend on scheduling.
package population

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"apna/internal/accountability"
	"apna/internal/cert"
	"apna/internal/crypto"
	"apna/internal/ephid"
	"apna/internal/hostdb"
	"apna/internal/ms"
	"apna/internal/quantile"
	"apna/internal/trace"
	"apna/internal/wire"
)

// ErrBadConfig reports an invalid population configuration.
var ErrBadConfig = errors.New("population: invalid configuration")

// maxWorkers bounds the worker count: each worker owns a 2^25-wide HID
// namespace, so 64 workers cover the uint32 HID space with room left
// for the reserved offender range.
const maxWorkers = 64

// hidSpan is each worker's HID namespace width.
const hidSpan = 1 << 25

// offenderHIDBase is where the coordinator's complaint offenders live —
// above every worker's namespace.
const offenderHIDBase = 0xF000_0000

// Config parameterizes a population run. Rates are per modeled host so
// one configuration scales across population tiers.
type Config struct {
	// Hosts is the modeled host population.
	Hosts int `json:"hosts"`
	// Ticks is the run length in virtual seconds.
	Ticks int `json:"ticks"`
	// Workers is the share-nothing worker count; <= 0 means NumCPU
	// (clamped to 64 and to Hosts).
	Workers int `json:"workers"`
	// Seed drives the whole model.
	Seed int64 `json:"seed"`

	// PeakSessionsPerHost is the diurnal-peak arrival rate, new
	// sessions per second per host.
	PeakSessionsPerHost float64 `json:"peak_sessions_per_host"`
	// BaseSessionsPerHost is the overnight trough (0: peak/4).
	BaseSessionsPerHost float64 `json:"base_sessions_per_host"`
	// ZipfS is the host-popularity skew (> 1; 0 means 1.1).
	ZipfS float64 `json:"zipf_s"`
	// DiurnalPeriod is the virtual length of one "day" in ticks; 0
	// compresses a full day into the run (period = Ticks) so even short
	// runs sweep peak and trough.
	DiurnalPeriod int `json:"diurnal_period"`

	// EphIDLifetime is the issued EphID validity in seconds. Short
	// lifetimes are what make renewal storms: every flow issued in the
	// same tick renews in the same later tick.
	EphIDLifetime uint32 `json:"ephid_lifetime"`
	// RenewLead is how many seconds before expiry a live flow renews.
	RenewLead int `json:"renew_lead"`
	// PoolSlots is each host's EphID pool size: expired idle slots are
	// re-issued, valid idle slots are reused (a pool hit), and arrivals
	// beyond the pool trigger overflow issuance.
	PoolSlots int `json:"pool_slots"`
	// RenewBurst overrides the MS per-host renewal budget (0: policy
	// default).
	RenewBurst int `json:"renew_burst,omitempty"`

	// ChurnFrac is the fraction of hosts replaced per tick: each leave
	// revokes the HID (GC reaps it after the retention window) and a
	// join registers a fresh HID in its place.
	ChurnFrac float64 `json:"churn_frac"`

	// FlashMult, when > 1, models a flash crowd: for FlashTicks ticks
	// starting at FlashTick the diurnal arrival intensity is multiplied
	// by FlashMult, on top of whatever the raised-cosine law gives —
	// the onboarding surge a viral event aims at one AS's MS.
	FlashMult  float64 `json:"flash_mult,omitempty"`
	FlashTick  int     `json:"flash_tick,omitempty"`
	FlashTicks int     `json:"flash_ticks,omitempty"`

	// ComplaintEvery files one inter-domain shutoff complaint every N
	// ticks (0 disables complaints).
	ComplaintEvery int `json:"complaint_every"`
	// ReplayFrac replays that complaint bit-exactly with this
	// probability, exercising the receipt idempotency cache.
	ReplayFrac float64 `json:"replay_frac"`
	// StrikeLimit is the AA's shutoff-strike escalation threshold.
	StrikeLimit int `json:"strike_limit"`

	// GCEvery runs hostdb GC every N ticks (0 disables).
	GCEvery int `json:"gc_every"`
	// DigestEvery flushes the revocation digest every N ticks (0
	// disables).
	DigestEvery int `json:"digest_every"`

	// RecordTrace keeps the logical event trace and reports its hash,
	// for determinism tests. Costs ~9 bytes per event.
	RecordTrace bool `json:"record_trace,omitempty"`
}

// DefaultConfig returns a population run sized for interactive use:
// 10k hosts over a 60-tick compressed day.
func DefaultConfig() Config {
	return Config{
		Hosts:               10_000,
		Ticks:               60,
		Seed:                1,
		PeakSessionsPerHost: 0.01,
		ZipfS:               1.1,
		EphIDLifetime:       20,
		RenewLead:           2,
		PoolSlots:           2,
		ChurnFrac:           0.0005,
		ComplaintEvery:      2,
		ReplayFrac:          0.25,
		StrikeLimit:         3,
		GCEvery:             10,
		DigestEvery:         10,
	}
}

// Validate checks the configuration without running it — the scenario
// DSL rejects bad population specs at load time through it.
func (cfg Config) Validate() error {
	_, err := cfg.normalize()
	return err
}

// normalize validates cfg and fills defaults, returning the effective
// configuration.
func (cfg Config) normalize() (Config, error) {
	if cfg.Hosts <= 0 || cfg.Ticks <= 0 {
		return cfg, fmt.Errorf("%w: hosts %d, ticks %d", ErrBadConfig, cfg.Hosts, cfg.Ticks)
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.NumCPU()
	}
	cfg.Workers = min(cfg.Workers, maxWorkers, cfg.Hosts)
	if cfg.PeakSessionsPerHost <= 0 {
		return cfg, fmt.Errorf("%w: peak rate %v", ErrBadConfig, cfg.PeakSessionsPerHost)
	}
	if cfg.BaseSessionsPerHost <= 0 {
		cfg.BaseSessionsPerHost = cfg.PeakSessionsPerHost / 4
	}
	if cfg.ZipfS == 0 {
		cfg.ZipfS = 1.1
	}
	if cfg.ZipfS <= 1 {
		return cfg, fmt.Errorf("%w: zipf s %v must be > 1", ErrBadConfig, cfg.ZipfS)
	}
	if cfg.DiurnalPeriod <= 0 {
		cfg.DiurnalPeriod = cfg.Ticks
	}
	if cfg.EphIDLifetime < 2 {
		return cfg, fmt.Errorf("%w: ephid lifetime %d < 2s", ErrBadConfig, cfg.EphIDLifetime)
	}
	if cfg.RenewLead <= 0 {
		cfg.RenewLead = 1
	}
	if cfg.RenewLead >= int(cfg.EphIDLifetime) {
		return cfg, fmt.Errorf("%w: renew lead %d >= lifetime %d", ErrBadConfig, cfg.RenewLead, cfg.EphIDLifetime)
	}
	if cfg.PoolSlots <= 0 {
		cfg.PoolSlots = 1
	}
	if cfg.ChurnFrac < 0 || cfg.ChurnFrac >= 1 {
		return cfg, fmt.Errorf("%w: churn fraction %v", ErrBadConfig, cfg.ChurnFrac)
	}
	if cfg.FlashMult < 0 || cfg.FlashTick < 0 || cfg.FlashTicks < 0 {
		return cfg, fmt.Errorf("%w: flash crowd mult %v tick %d ticks %d",
			ErrBadConfig, cfg.FlashMult, cfg.FlashTick, cfg.FlashTicks)
	}
	if cfg.FlashMult > 0 && cfg.FlashTicks == 0 {
		return cfg, fmt.Errorf("%w: flash mult %v with zero flash ticks", ErrBadConfig, cfg.FlashMult)
	}
	// Each worker's identity turnover must fit its HID namespace.
	perWorker := cfg.Hosts/cfg.Workers + 1
	turnover := float64(perWorker) * (1 + cfg.ChurnFrac*float64(cfg.Ticks))
	if turnover+16 >= hidSpan {
		return cfg, fmt.Errorf("%w: per-worker identity turnover %.0f exceeds HID namespace %d",
			ErrBadConfig, turnover, hidSpan)
	}
	return cfg, nil
}

// OpStats summarizes one operation class's wall-clock latency
// distribution from the merged per-worker reservoirs.
type OpStats struct {
	Count uint64  `json:"count"`
	P50us float64 `json:"p50_us"`
	P90us float64 `json:"p90_us"`
	P99us float64 `json:"p99_us"`
	MaxUs float64 `json:"max_us"`
}

// Result is a population run's report — the per-tier body of the
// BENCH_e11.json artifact.
type Result struct {
	Config    Config  `json:"config"`
	ElapsedMs float64 `json:"elapsed_ms"`
	// Events counts logical control-plane events (arrivals, renewals,
	// churn operations, complaints); EventsPerSec divides by wall time.
	Events       uint64  `json:"events"`
	EventsPerSec float64 `json:"events_per_sec"`

	Arrivals uint64 `json:"arrivals"`
	// FlashArrivals is the subset of Arrivals that landed inside the
	// configured flash-crowd window (zero when FlashMult is unset).
	FlashArrivals   uint64  `json:"flash_arrivals,omitempty"`
	PoolHits        uint64  `json:"pool_hits"`
	Issued          uint64  `json:"issued"`
	OverflowIssued  uint64  `json:"overflow_issued"`
	Renewals        uint64  `json:"renewals"`
	RenewDenied     uint64  `json:"renew_denied"`
	RenewDenialRate float64 `json:"renew_denial_rate"`
	// ErrNoEphID counts arrivals or renewals that ended with no usable
	// EphID after every fallback — the E11 gate requires zero.
	ErrNoEphID   uint64 `json:"err_no_ephid"`
	Joins        uint64 `json:"joins"`
	Leaves       uint64 `json:"leaves"`
	ModeledBytes uint64 `json:"modeled_bytes"`

	GCRuns         uint64  `json:"gc_runs"`
	GCReaped       int     `json:"gc_reaped"`
	GCMaxPauseUs   float64 `json:"gc_max_pause_us"`
	GCTotalPauseUs float64 `json:"gc_total_pause_us"`

	Complaints       uint64            `json:"complaints"`
	Replays          uint64            `json:"replays"`
	OffendersRevoked uint64            `json:"offenders_revoked"`
	ReceiptStatus    map[string]uint64 `json:"receipt_status"`
	AcctDuplicates   uint64            `json:"acct_duplicates"`

	DigestFlushes     uint64 `json:"digest_flushes"`
	DigestEntriesLast int    `json:"digest_entries_last"`
	DigestBytes       uint64 `json:"digest_bytes"`

	RenewTracked int `json:"renew_tracked"`
	HostdbHosts  int `json:"hostdb_hosts"`
	HostdbShards int `json:"hostdb_shards"`

	IssueLatency     OpStats `json:"issue_latency"`
	RenewLatency     OpStats `json:"renew_latency"`
	ComplaintLatency OpStats `json:"complaint_latency"`

	PeakRSSBytes uint64 `json:"peak_rss_bytes"`

	TraceHash   string `json:"trace_hash,omitempty"`
	TraceEvents uint64 `json:"trace_events,omitempty"`
}

// hostState is one modeled host: its kHA keys, control EphID, and HID.
// Flow slots live in the worker's flat slot array.
type hostState struct {
	keys crypto.HostASKeys
	ctrl ephid.EphID
	hid  ephid.HID
}

// flowSlot is one pooled EphID: the identifier, its expiry, and the
// virtual second the flow using it ends.
type flowSlot struct {
	id        ephid.EphID
	exp       uint32
	busyUntil int64
}

// renewSched is one scheduled renewal: the flat slot index and the
// expiry the schedule was made for (a mismatch means the slot was
// re-issued since, and the schedule is stale).
type renewSched struct {
	slot int32
	exp  uint32
}

// Trace event kinds.
const (
	evIssue byte = iota + 1
	evPoolHit
	evOverflow
	evRenew
	evRenewDenied
	evNoEphID
	evLeave
	evJoin
)

type traceEvent struct {
	tick uint32
	kind byte
	hid  uint32
}

// reservoirCap bounds each latency reservoir; overflow rotates, like
// the forwarding engine's per-worker samples.
const reservoirCap = 4096

type reservoir struct {
	samples []float64 // microseconds
	idx     int
	count   uint64
	max     float64
}

func (r *reservoir) add(us float64) {
	r.count++
	if us > r.max {
		r.max = us
	}
	if len(r.samples) < reservoirCap {
		r.samples = append(r.samples, us)
		return
	}
	r.samples[r.idx] = us
	r.idx = (r.idx + 1) % reservoirCap
}

// mergeStats combines reservoirs into one OpStats.
func mergeStats(rs ...*reservoir) OpStats {
	var out OpStats
	var all []float64
	for _, r := range rs {
		out.Count += r.count
		if r.max > out.MaxUs {
			out.MaxUs = r.max
		}
		all = append(all, r.samples...)
	}
	if len(all) == 0 {
		return out
	}
	slices.Sort(all)
	out.P50us = quantile.NearestRank(all, 0.50)
	out.P90us = quantile.NearestRank(all, 0.90)
	out.P99us = quantile.NearestRank(all, 0.99)
	return out
}

// counters are one worker's tallies, summed into the Result.
type counters struct {
	arrivals, flashArrivals           uint64
	poolHits, issued, overflow        uint64
	renewals, renewDenied, errNoEphID uint64
	joins, leaves, bytes              uint64
}

// worker owns a contiguous host partition and everything those hosts
// do. Workers share only the engines (which are concurrency-safe and
// whose per-HID state is worker-disjoint), so the logical outcome per
// worker is deterministic.
type worker struct {
	id      int
	cfg     *Config
	w       *world
	rng     *rand.Rand
	zipf    *rand.Zipf
	hosts   []hostState
	slots   []flowSlot
	renewAt [][]renewSched // ring buffer indexed by tick
	nextHID uint32
	c       counters
	issue   reservoir
	renew   reservoir
	trace   []traceEvent
}

func (wk *worker) rec(tick int, kind byte, hid ephid.HID) {
	if wk.cfg.RecordTrace {
		wk.trace = append(wk.trace, traceEvent{uint32(tick), kind, uint32(hid)})
	}
}

// setup registers the worker's initial host partition.
func (wk *worker) setup(horizon uint32) {
	entries := make([]hostdb.Entry, len(wk.hosts))
	for i := range wk.hosts {
		hid := ephid.HID(wk.nextHID)
		wk.nextHID++
		h := &wk.hosts[i]
		h.hid = hid
		h.keys = hostKeys(wk.cfg.Seed, hid)
		h.ctrl = wk.w.sealer.Mint(ephid.Payload{HID: hid, ExpTime: horizon})
		entries[i] = hostdb.Entry{HID: hid, Keys: h.keys, RegisteredAt: startTime}
	}
	wk.w.db.PutBatch(entries)
}

// schedule books a renewal for the slot at (expiry - lead), clamped
// into the run.
func (wk *worker) schedule(slot int32, exp uint32, tick int) {
	at := int(int64(exp)-startTime) - wk.cfg.RenewLead
	if at <= tick {
		at = tick + 1
	}
	if at >= wk.cfg.Ticks {
		return
	}
	idx := at % len(wk.renewAt)
	wk.renewAt[idx] = append(wk.renewAt[idx], renewSched{slot: slot, exp: exp})
}

// tick processes one virtual second for this worker's partition.
func (wk *worker) tick(t int) {
	now := wk.w.clock.Load()
	wk.renewals(t, now)
	wk.churn(t, now)
	wk.arrivals(t, now)
}

// renewals drains this tick's renewal bucket: live flows renew their
// EphIDs through the MS (the correlated storm — every slot issued in
// one tick matures here in the same later tick); idle slots lapse.
func (wk *worker) renewals(t int, now int64) {
	idx := t % len(wk.renewAt)
	due := wk.renewAt[idx]
	wk.renewAt[idx] = due[:0]
	for _, sc := range due {
		s := &wk.slots[sc.slot]
		if s.exp != sc.exp {
			continue // slot re-issued since scheduling
		}
		h := &wk.hosts[int(sc.slot)/wk.cfg.PoolSlots]
		if s.busyUntil <= now {
			continue // flow ended; let the identifier lapse
		}
		t0 := time.Now() //apna:wallclock
		c, err := wk.w.issue(h, wk.cfg.EphIDLifetime, &s.id)
		if errors.Is(err, ms.ErrRenewRateLimited) {
			// Denied renewals fall back to plain issuance, which the
			// policy deliberately leaves unthrottled: the flow stays
			// alive, only the identifier-history linkage is cut.
			wk.c.renewDenied++
			wk.rec(t, evRenewDenied, h.hid)
			c, err = wk.w.issue(h, wk.cfg.EphIDLifetime, nil)
		}
		wk.renew.add(float64(time.Since(t0).Nanoseconds()) / 1e3) //apna:wallclock
		if err != nil {
			wk.c.errNoEphID++
			wk.rec(t, evNoEphID, h.hid)
			continue
		}
		wk.c.renewals++
		s.id, s.exp = c.EphID, c.ExpTime
		wk.schedule(sc.slot, c.ExpTime, t)
		wk.rec(t, evRenew, h.hid)
	}
}

// churn replaces ChurnFrac of the partition: the leaver's HID is
// revoked (GC reaps it once the retention window passes) and a fresh
// identity joins in its place, so the modeled population stays constant
// while the identity space turns over.
func (wk *worker) churn(t int, now int64) {
	want := wk.cfg.ChurnFrac * float64(len(wk.hosts))
	n := int(want)
	if wk.rng.Float64() < want-float64(n) {
		n++
	}
	for i := 0; i < n; i++ {
		hostIdx := wk.rng.Intn(len(wk.hosts))
		h := &wk.hosts[hostIdx]
		wk.w.db.RevokeAt(h.hid, now)
		wk.c.leaves++
		wk.rec(t, evLeave, h.hid)

		// Clear the leaver's flow slots; scheduled renewals notice the
		// expiry mismatch and skip.
		for s := hostIdx * wk.cfg.PoolSlots; s < (hostIdx+1)*wk.cfg.PoolSlots; s++ {
			wk.slots[s] = flowSlot{}
		}

		hid := ephid.HID(wk.nextHID)
		wk.nextHID++
		h.hid = hid
		h.keys = hostKeys(wk.cfg.Seed, hid)
		h.ctrl = wk.w.sealer.Mint(ephid.Payload{HID: hid, ExpTime: wk.w.horizon})
		wk.w.db.Put(hostdb.Entry{HID: hid, Keys: h.keys, RegisteredAt: now})
		wk.c.joins++
		wk.rec(t, evJoin, hid)
	}
}

// arrivals draws this tick's session arrivals from the diurnal Poisson
// process and satisfies each from the host's EphID pool or the MS.
func (wk *worker) arrivals(t int, now int64) {
	lam := trace.Intensity(wk.cfg.PeakSessionsPerHost, wk.cfg.BaseSessionsPerHost,
		t, wk.cfg.DiurnalPeriod) * float64(len(wk.hosts))
	inFlash := wk.cfg.FlashMult > 0 &&
		t >= wk.cfg.FlashTick && t < wk.cfg.FlashTick+wk.cfg.FlashTicks
	if inFlash {
		lam *= wk.cfg.FlashMult
	}
	n := trace.Poisson(wk.rng, lam)
	if inFlash {
		wk.c.flashArrivals += uint64(n)
	}
	for i := 0; i < n; i++ {
		hostIdx := int(wk.zipf.Uint64())
		h := &wk.hosts[hostIdx]
		wk.c.arrivals++
		dur := sampleDuration(wk.rng)
		wk.c.bytes += sampleSize(wk.rng)

		base := hostIdx * wk.cfg.PoolSlots
		idleValid, idleAny := -1, -1
		for s := base; s < base+wk.cfg.PoolSlots; s++ {
			sl := &wk.slots[s]
			if sl.busyUntil > now {
				continue
			}
			if idleAny < 0 {
				idleAny = s
			}
			if int64(sl.exp) > now+1 {
				idleValid = s
				break
			}
		}
		if idleValid >= 0 {
			// Pool hit: a still-valid idle identifier is reused.
			wk.slots[idleValid].busyUntil = now + int64(dur)
			wk.c.poolHits++
			wk.rec(t, evPoolHit, h.hid)
			continue
		}
		t0 := time.Now() //apna:wallclock
		c, err := wk.w.issue(h, wk.cfg.EphIDLifetime, nil)
		wk.issue.add(float64(time.Since(t0).Nanoseconds()) / 1e3) //apna:wallclock
		if err != nil {
			wk.c.errNoEphID++
			wk.rec(t, evNoEphID, h.hid)
			continue
		}
		wk.c.issued++
		if idleAny >= 0 {
			sl := &wk.slots[idleAny]
			sl.id, sl.exp, sl.busyUntil = c.EphID, c.ExpTime, now+int64(dur)
			wk.schedule(int32(idleAny), c.ExpTime, t)
			wk.rec(t, evIssue, h.hid)
		} else {
			// Pool exhausted: the flow runs on an unpooled identifier
			// (used once, never renewed).
			wk.c.overflow++
			wk.rec(t, evOverflow, h.hid)
		}
	}
}

// Run executes the population workload and reports the measurement.
func Run(cfg Config) (*Result, error) {
	cfg, err := cfg.normalize()
	if err != nil {
		return nil, err
	}
	w, err := newWorld(cfg)
	if err != nil {
		return nil, err
	}

	// Partition hosts across workers.
	workers := make([]*worker, cfg.Workers)
	ringLen := int(cfg.EphIDLifetime) + cfg.RenewLead + 2
	per := cfg.Hosts / cfg.Workers
	extra := cfg.Hosts % cfg.Workers
	var setupWG sync.WaitGroup
	for i := range workers {
		n := per
		if i < extra {
			n++
		}
		wk := &worker{
			id:      i,
			cfg:     &cfg,
			w:       w,
			rng:     rand.New(rand.NewSource(cfg.Seed ^ int64(i)<<20 ^ 0x5eed)),
			hosts:   make([]hostState, n),
			slots:   make([]flowSlot, n*cfg.PoolSlots),
			renewAt: make([][]renewSched, ringLen),
			nextHID: uint32(i)*hidSpan + 1,
		}
		wk.zipf = rand.NewZipf(wk.rng, cfg.ZipfS, 1, uint64(max(n-1, 1)))
		workers[i] = wk
		setupWG.Add(1)
		go func() {
			defer setupWG.Done()
			wk.setup(w.horizon)
		}()
	}
	setupWG.Wait()

	comp := newComplainer(w, &cfg)
	res := &Result{Config: cfg, ReceiptStatus: map[string]uint64{}, HostdbShards: w.db.ShardCount()}

	// Persistent workers with a per-tick barrier: the coordinator
	// advances the virtual clock only between ticks, so every engine
	// sees one consistent "now" per tick.
	start := make([]chan int, cfg.Workers)
	var tickWG sync.WaitGroup
	for i, wk := range workers {
		start[i] = make(chan int, 1)
		go func(wk *worker, ch chan int) {
			for t := range ch {
				wk.tick(t)
				tickWG.Done()
			}
		}(wk, start[i])
	}

	retention := int64(cfg.EphIDLifetime)
	t0 := time.Now() //apna:wallclock
	for t := 0; t < cfg.Ticks; t++ {
		w.clock.Store(startTime + int64(t))
		tickWG.Add(cfg.Workers)
		for i := range start {
			start[i] <- t
		}
		tickWG.Wait()

		now := w.clock.Load()
		if cfg.ComplaintEvery > 0 && t%cfg.ComplaintEvery == 0 {
			comp.cycle(now)
		}
		if cfg.GCEvery > 0 && t%cfg.GCEvery == cfg.GCEvery-1 {
			g0 := time.Now() //apna:wallclock
			res.GCReaped += w.db.GC(now, retention)
			pause := float64(time.Since(g0).Nanoseconds()) / 1e3 //apna:wallclock
			res.GCRuns++
			res.GCTotalPauseUs += pause
			if pause > res.GCMaxPauseUs {
				res.GCMaxPauseUs = pause
			}
		}
		if cfg.DigestEvery > 0 && t%cfg.DigestEvery == cfg.DigestEvery-1 {
			res.DigestEntriesLast = w.acct.FlushDigest()
			res.DigestFlushes++
		}
	}
	elapsed := time.Since(t0) //apna:wallclock
	for i := range start {
		close(start[i])
	}

	// Merge.
	issueRes := make([]*reservoir, 0, len(workers))
	renewRes := make([]*reservoir, 0, len(workers))
	for _, wk := range workers {
		res.Arrivals += wk.c.arrivals
		res.FlashArrivals += wk.c.flashArrivals
		res.PoolHits += wk.c.poolHits
		res.Issued += wk.c.issued
		res.OverflowIssued += wk.c.overflow
		res.Renewals += wk.c.renewals
		res.RenewDenied += wk.c.renewDenied
		res.ErrNoEphID += wk.c.errNoEphID
		res.Joins += wk.c.joins
		res.Leaves += wk.c.leaves
		res.ModeledBytes += wk.c.bytes
		issueRes = append(issueRes, &wk.issue)
		renewRes = append(renewRes, &wk.renew)
	}
	res.IssueLatency = mergeStats(issueRes...)
	res.RenewLatency = mergeStats(renewRes...)
	res.ComplaintLatency = mergeStats(&comp.lat)
	if att := res.Renewals + res.RenewDenied; att > 0 {
		res.RenewDenialRate = float64(res.RenewDenied) / float64(att)
	}
	res.Complaints = comp.complaints
	res.Replays = comp.replays
	res.OffendersRevoked = comp.revoked
	res.ReceiptStatus = comp.status
	res.AcctDuplicates = w.acct.Stats().RequestsDuplicate
	res.DigestBytes = w.digestBytes.Load()
	res.RenewTracked = w.ms.RenewTracked()
	res.HostdbHosts = w.db.Len()
	res.ElapsedMs = float64(elapsed.Nanoseconds()) / 1e6
	res.Events = res.Arrivals + res.Renewals + res.RenewDenied +
		res.Joins + res.Leaves + res.Complaints + res.Replays
	if s := elapsed.Seconds(); s > 0 {
		res.EventsPerSec = float64(res.Events) / s
	}
	res.PeakRSSBytes = PeakRSS()

	if cfg.RecordTrace {
		h := sha256.New()
		var buf [9]byte
		var total uint64
		record := func(ev traceEvent) {
			binary.BigEndian.PutUint32(buf[0:], ev.tick)
			buf[4] = ev.kind
			binary.BigEndian.PutUint32(buf[5:], ev.hid)
			h.Write(buf[:])
			total++
		}
		for _, wk := range workers {
			for _, ev := range wk.trace {
				record(ev)
			}
		}
		for _, ev := range comp.trace {
			record(ev)
		}
		res.TraceHash = hex.EncodeToString(h.Sum(nil))
		res.TraceEvents = total
	}
	return res, nil
}

// complainer drives the inter-domain complaint path from the
// coordinator: it keeps a current offender host (registered in the
// reserved HID range), issues it a fresh EphID per complaint, builds
// the MACed evidence frame and the victim-AS-signed ShutoffRequest, and
// feeds it to the accountability engine — replaying a fraction
// bit-exactly to exercise the receipt idempotency cache. Strike
// escalation revokes the offender after StrikeLimit shutoffs, at which
// point issuance fails and a fresh offender is registered.
type complainer struct {
	w       *world
	cfg     *Config
	rng     *rand.Rand
	seq     uint64
	nextHID uint32
	off     *hostState
	payload []byte

	lat        reservoir
	complaints uint64
	replays    uint64
	revoked    uint64
	status     map[string]uint64
	trace      []traceEvent
}

func newComplainer(w *world, cfg *Config) *complainer {
	return &complainer{
		w: w, cfg: cfg,
		rng:     rand.New(rand.NewSource(cfg.Seed ^ 0x0c0c0c)),
		nextHID: offenderHIDBase,
		payload: make([]byte, 64),
		status:  map[string]uint64{},
	}
}

func (cp *complainer) newOffender(now int64) *hostState {
	hid := ephid.HID(cp.nextHID)
	cp.nextHID++
	h := &hostState{hid: hid, keys: hostKeys(cp.cfg.Seed, hid)}
	h.ctrl = cp.w.sealer.Mint(ephid.Payload{HID: hid, ExpTime: cp.w.horizon})
	cp.w.db.Put(hostdb.Entry{HID: hid, Keys: h.keys, RegisteredAt: now})
	return h
}

func (cp *complainer) cycle(now int64) {
	if cp.off == nil {
		cp.off = cp.newOffender(now)
	}
	// A fresh offending EphID per complaint: each shutoff lands a
	// strike until the AA escalates and revokes the host.
	c, err := cp.w.issue(cp.off, cp.cfg.EphIDLifetime, nil)
	if err != nil {
		// The offender's HID was revoked by strike escalation — the
		// MS refuses it service. Replace it.
		cp.revoked++
		cp.off = cp.newOffender(now)
		if c, err = cp.w.issue(cp.off, cp.cfg.EphIDLifetime, nil); err != nil {
			return
		}
	}

	cp.seq++
	p := wire.Packet{
		Header: wire.Header{
			NextProto: wire.ProtoSession, HopLimit: wire.DefaultHopLimit,
			Nonce:  cp.seq,
			SrcAID: localAID, DstAID: victimAID,
			SrcEphID: c.EphID, DstEphID: cp.w.victimCert.EphID,
		},
		Payload: cp.payload,
	}
	frame, err := p.Encode()
	if err != nil {
		return
	}
	pm, err := wire.NewPacketMAC(cp.off.keys.MAC[:])
	if err != nil {
		return
	}
	pm.Apply(frame)

	complaint := accountability.NewComplaint(frame, cp.w.victimCert, c, cp.w.victimHostSigner)
	enc, err := complaint.Encode()
	if err != nil {
		return
	}
	sr := &accountability.ShutoffRequest{
		Origin: victimAID, Seq: cp.seq, IssuedAt: now, Complaint: enc,
	}
	sr.Sign(cp.w.victimASSigner)
	raw := sr.Encode()

	t0 := time.Now() //apna:wallclock
	r, err := cp.w.acct.HandleShutoffRequest(raw)
	cp.lat.add(float64(time.Since(t0).Nanoseconds()) / 1e3) //apna:wallclock
	cp.complaints++
	if err != nil {
		cp.status["error"]++
	} else {
		cp.status[r.Status.String()]++
		if cp.cfg.RecordTrace {
			cp.trace = append(cp.trace,
				traceEvent{uint32(now - startTime), byte(0x80 | byte(r.Status)), uint32(cp.off.hid)})
		}
	}
	if cp.rng.Float64() < cp.cfg.ReplayFrac {
		if _, err := cp.w.acct.HandleShutoffRequest(raw); err == nil {
			cp.replays++
		}
	}
}

// PeakRSS reports the process's peak resident set in bytes (VmHWM on
// Linux), falling back to the Go runtime's Sys estimate elsewhere —
// the "does 10^6 hosts fit in one process" number of the E11 artifact.
func PeakRSS() uint64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if !strings.HasPrefix(line, "VmHWM:") {
				continue
			}
			fields := strings.Fields(line)
			if len(fields) >= 2 {
				if kb, err := strconv.ParseUint(fields[1], 10, 64); err == nil {
					return kb << 10
				}
			}
		}
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Sys
}

// Fprint renders a compact human-readable summary.
func (r *Result) Fprint(out io.Writer) {
	fmt.Fprintf(out, "population: %d hosts, %d ticks, %d workers — %.0f events/s (%.1f ms wall)\n",
		r.Config.Hosts, r.Config.Ticks, r.Config.Workers, r.EventsPerSec, r.ElapsedMs)
	fmt.Fprintf(out, "  arrivals %d (pool hits %d, issued %d, overflow %d), renewals %d (denied %d, rate %.4f)\n",
		r.Arrivals, r.PoolHits, r.Issued, r.OverflowIssued, r.Renewals, r.RenewDenied, r.RenewDenialRate)
	fmt.Fprintf(out, "  err_no_ephid %d, churn %d/%d join/leave, gc reaped %d (max pause %.0fµs)\n",
		r.ErrNoEphID, r.Joins, r.Leaves, r.GCReaped, r.GCMaxPauseUs)
	fmt.Fprintf(out, "  complaints %d (replays %d, offenders revoked %d), digest %d flushes / %d B\n",
		r.Complaints, r.Replays, r.OffendersRevoked, r.DigestFlushes, r.DigestBytes)
	fmt.Fprintf(out, "  issuance p50 %.0fµs p99 %.0fµs max %.0fµs; renewal p99 %.0fµs; peak RSS %.1f MiB\n",
		r.IssueLatency.P50us, r.IssueLatency.P99us, r.IssueLatency.MaxUs,
		r.RenewLatency.P99us, float64(r.PeakRSSBytes)/(1<<20))
}

// issue is the full host→MS round trip: encode and encrypt the request
// under the host's kHA key, run Figure 3 in the service, decrypt and
// parse the reply. prev non-nil makes it a renewal.
func (w *world) issue(h *hostState, lifetime uint32, prev *ephid.EphID) (*cert.Cert, error) {
	req := ms.Request{Kind: ephid.KindData, Lifetime: lifetime}
	if prev != nil {
		req.Flags = ms.ReqFlagRenew
		req.Prev = *prev
	}
	// The model never opens sessions, so the bound key material only
	// has to be host-stable, not usable.
	binary.BigEndian.PutUint32(req.DHPub[:], uint32(h.hid))
	binary.BigEndian.PutUint32(req.SigPub[:], uint32(h.hid))
	ct, err := ms.EncodeRequest(h.keys.Enc[:], h.ctrl, &req)
	if err != nil {
		return nil, err
	}
	reply, err := w.ms.HandleRequest(h.ctrl, ct)
	if err != nil {
		return nil, err
	}
	return ms.DecodeReply(h.keys.Enc[:], h.ctrl, reply)
}
