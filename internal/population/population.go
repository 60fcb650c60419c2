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
// the tens of hosts the conformance experiments use. The hosts' kHA
// AES-GCM schedules are not part of the 150 bytes: each worker keeps
// them in one crypto.AEADCache, bounded at 4096 schedules (3.3 MiB)
// whatever its host count, as the MS's own cache is.
//
// Determinism: all behavior derives from per-worker rand.Rand instances
// seeded from (Seed, worker) and from virtual time, and every modeled
// host is owned by exactly one worker, so the logical event trace —
// which host did what at which tick, and every counter — is a pure
// function of the Config. Each worker admits requests into batches of
// up to cert.MaxBatch, one signature per batch, and hands each closed
// batch whole to a core the workers leave idle (internal/spare), where
// it is signed and its MS replies sealed (the worker does both itself
// when the budget refuses it); but every decision is made on the worker by
// ms.Service.AdmitInPlace, so neither changes an outcome, only the wall
// time.
// A batch closes when it is full or at the end of the tick, so in
// virtual time no request waits for its signature. In wall-clock time
// a batch handed off in tick t may still be signed and sealed while
// the worker admits tick t+1: the tick barrier waits only for
// admission, and the worker waits for tick t's hand-offs at the end of
// tick t+1's admissions (and for its last tick's before the run ends),
// then folds their checks and latencies. An issuance or renewal sample
// includes the wait for its batch to close and then for a spare core,
// behind the spare-core queue. The coordinator's
// complaint cycle runs beside the workers' tick, at the same virtual
// time, against offenders in an HID range of their own. Only
// wall-clock measurements (latencies, events/sec, RSS) vary between
// runs. EphID byte values are not part of the trace: the sealer's IV
// counter is shared across workers, so the identifiers themselves
// depend on scheduling.
package population

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
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
	"apna/internal/spare"
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
	Hosts int
	// Ticks is the run length in virtual seconds.
	Ticks int
	// Workers is the share-nothing worker count; <= 0 means NumCPU
	// (clamped to 64 and to Hosts).
	Workers int
	// Seed drives the whole model.
	Seed int64

	// PeakSessionsPerHost is the diurnal-peak arrival rate, new
	// sessions per second per host.
	PeakSessionsPerHost float64
	// BaseSessionsPerHost is the overnight trough (0: peak/4).
	BaseSessionsPerHost float64
	// ZipfS is the host-popularity skew (> 1; 0 means 1.1).
	ZipfS float64
	// DiurnalPeriod is the virtual length of one "day" in ticks; 0
	// compresses a full day into the run (period = Ticks) so even short
	// runs sweep peak and trough.
	DiurnalPeriod int

	// EphIDLifetime is the issued EphID validity in seconds. Short
	// lifetimes are what make renewal storms: every flow issued in the
	// same tick renews in the same later tick.
	EphIDLifetime uint32
	// RenewLead is how many seconds before expiry a live flow renews.
	RenewLead int
	// PoolSlots is each host's EphID pool size: expired idle slots are
	// re-issued, valid idle slots are reused (a pool hit), and arrivals
	// beyond the pool trigger overflow issuance.
	PoolSlots int
	// RenewBurst overrides the MS per-host renewal budget (0: policy
	// default).
	RenewBurst int

	// ChurnFrac is the fraction of hosts replaced per tick: each leave
	// revokes the HID (GC reaps it after the retention window) and a
	// join registers a fresh HID in its place.
	ChurnFrac float64

	// FlashMult, when > 1, models a flash crowd: for FlashTicks ticks
	// starting at FlashTick the diurnal arrival intensity is multiplied
	// by FlashMult, on top of whatever the raised-cosine law gives —
	// the onboarding surge a viral event aims at one AS's MS.
	FlashMult  float64
	FlashTick  int
	FlashTicks int

	// ComplaintEvery files one inter-domain shutoff complaint every N
	// ticks (0 disables complaints).
	ComplaintEvery int
	// ReplayFrac replays that complaint bit-exactly with this
	// probability, exercising the receipt idempotency cache.
	ReplayFrac float64
	// StrikeLimit is the AA's shutoff-strike escalation threshold.
	StrikeLimit int

	// GCEvery runs hostdb GC every N ticks (0 disables).
	GCEvery int
	// DigestEvery flushes the revocation digest every N ticks (0
	// disables).
	DigestEvery int

	// RecordTrace keeps the logical event trace and reports its hash,
	// for determinism tests. Costs ~9 bytes per event.
	RecordTrace bool
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
	// Count is how many operations the reservoirs saw.
	//
	//apna:testonly TestRunExercisesControlPlane checks the issue reservoir filled, and TestDeterministicTrace compares the complaint count run to run
	Count uint64
	P50us float64
	P99us float64
	MaxUs float64
}

// Result is a population run's report: what E11's ramp
// (BenchmarkPopulationRamp) gates at each tier.
type Result struct {
	ElapsedMs float64
	// Events counts logical control-plane events (arrivals, renewals,
	// churn operations, complaints); EventsPerSec divides by wall time.
	Events       uint64
	EventsPerSec float64

	Arrivals uint64
	// FlashArrivals is the subset of Arrivals that landed inside the
	// configured flash-crowd window (zero when FlashMult is unset).
	FlashArrivals uint64
	PoolHits      uint64
	Issued        uint64
	// OverflowIssued counts issuances beyond the pool; ModeledBytes is
	// the modeled flows' byte volume.
	//
	//apna:testonly TestDeterministicTrace compares them run to run
	OverflowIssued, ModeledBytes uint64
	Renewals                     uint64
	RenewDenied                  uint64
	RenewDenialRate              float64
	// ErrNoEphID counts arrivals or renewals that ended with no usable
	// EphID after every fallback; E11's ramp gate requires zero.
	ErrNoEphID uint64
	Joins      uint64
	Leaves     uint64

	// GCReaped counts the identities hostdb GC reclaimed.
	//
	//apna:testonly TestRunExercisesControlPlane and E11's ramp gate, rampFailures, check that GC reclaimed churned identities
	GCReaped     int
	GCMaxPauseUs float64

	Complaints uint64
	Replays    uint64
	// OffendersRevoked counts offenders that strike escalation revoked;
	// AcctDuplicates counts replayed requests the receipt cache caught.
	//
	//apna:testonly TestRunExercisesControlPlane and TestOverlapComplaintsMidTick check the complaint path through them
	OffendersRevoked, AcctDuplicates uint64
	ReceiptStatus                    map[string]uint64

	// DigestFlushes and DigestBytes count the digests flushed and the
	// bytes they carried.
	//
	//apna:testonly TestRunExercisesControlPlane checks the digest path ran
	DigestFlushes, DigestBytes uint64
	// DigestEntriesLast is the last digest's entry count.
	//
	//apna:testonly TestDeterministicTrace compares it run to run
	DigestEntriesLast int

	// HostdbHosts and HostdbShards are the hostdb's size at the end of
	// the run.
	//
	//apna:testonly TestRunExercisesControlPlane checks the hostdb's state through them
	HostdbHosts, HostdbShards int

	// IssueLatency and RenewLatency are wall-clock spans from a
	// request's admit to its reply being checked. They include the
	// wait for the request's signing batch to close (at cert.MaxBatch
	// requests or the end of the tick) and, when a spare core takes
	// the batch, its wait in the spare-core queue. Neither takes virtual
	// time: the batch is signed within the tick the request arrived in.
	// In wall-clock time the signature and the seal may finish while
	// the worker admits the next tick.
	IssueLatency     OpStats
	RenewLatency     OpStats
	ComplaintLatency OpStats

	// PeakRSSBytes is the process's peak resident set after the run.
	//
	//apna:testonly TestRunExercisesControlPlane, TestRampSmoke and BenchmarkPopulationRamp report it
	PeakRSSBytes uint64

	TraceHash string
	// TraceEvents counts the events TraceHash covers.
	//
	//apna:testonly TestDeterministicTrace checks a trace was recorded
	TraceEvents uint64
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

	// batch is the open signing batch: jobs admitted but not yet
	// signed, at most cert.MaxBatch. pending[t%2] is what tick t left
	// to finish, kept until it settles at the end of tick t+1's
	// admissions; then its batches join reuse and its jobs free, so at
	// most two ticks' worth are ever held.
	batch   []*sealJob
	pending [2]pending
	reuse   [][]*sealJob
	free    []*sealJob

	// aeads holds the modeled hosts' kHA AEADs (request direction, 0),
	// and ct is the request scratch: each request is sealed into it and
	// the MS opens it there in place.
	aeads *crypto.AEADCache
	ct    [ms.SealedRequestSize]byte

	// plant, set only by tests, may tamper with a job admitted in tick
	// t before it is signed and sealed.
	plant func(t int, j *sealJob)
}

// pending is one tick's unfinished round trips: inflight counts the
// batches handed to spare cores, handed holds them, and samples are
// the tick's latency samples in issue order.
type pending struct {
	inflight sync.WaitGroup
	handed   [][]*sealJob
	samples  []sample
}

// signAndSeal is a closed batch's remaining work: one signature over
// every certificate it minted, then each job's seal and check.
func signAndSeal(svc *ms.Service, batch []*sealJob) {
	var adms [cert.MaxBatch]*ms.Admitted
	for i, j := range batch {
		adms[i] = j.adm
	}
	svc.Sign(adms[:len(batch)])
	for _, j := range batch {
		j.run()
	}
}

// sealJob is the second half of one round trip: seal the admitted and
// signed reply, decode it as the host would, and check that it carries
// what was admitted. The host's AEAD and control EphID are copied in,
// since churn may hand the host's slot to a new identity before a
// spare core gets to the job. The job owns the reply's buffer and the
// certificate it decodes to, and keeps both across reuse, so a round
// trip leaves no garbage.
type sealJob struct {
	aead *crypto.AEAD
	ctrl ephid.EphID
	adm  *ms.Admitted
	raw  []byte
	cert cert.Cert
	end  time.Time
	bad  bool
}

func (j *sealJob) run() {
	err := j.reply()
	j.bad = !errors.Is(err, j.adm.Denial())
	j.end = time.Now() //apna:wallclock
}

// sample is one issuance or renewal latency sample. It spans from the
// first admit's start to the later of the worker finishing its part
// (end) and the last of its seals being checked, so the wait for its
// batch to close and for a spare core both count, and a renewal's sample
// spans its denial and its fallback.
type sample struct {
	hid        ephid.HID
	start, end time.Time
	jobs       [2]*sealJob
	into       *reservoir
}

// request admits one request from h in tick t and adds it to the open
// signing batch, closing the batch once it is full. The error is
// AdmitInPlace's, or the denial the reply will carry.
func (wk *worker) request(t int, h *hostState, prev *ephid.EphID, sm *sample) (*ms.Admitted, error) {
	aead, err := wk.aeads.Get(uint32(h.hid), h.keys.Enc)
	if err != nil {
		return nil, err
	}
	a, err := wk.w.admit(h, aead, wk.ct[:0], wk.cfg.EphIDLifetime, prev)
	if err != nil {
		return nil, err
	}
	var j *sealJob
	if n := len(wk.free); n > 0 {
		j, wk.free = wk.free[n-1], wk.free[:n-1]
	} else {
		j = new(sealJob)
	}
	j.aead, j.ctrl, j.adm = aead, h.ctrl, a
	if wk.plant != nil {
		wk.plant(t, j)
	}
	if sm.jobs[0] == nil {
		sm.jobs[0] = j
	} else {
		sm.jobs[1] = j
	}
	if wk.batch = append(wk.batch, j); len(wk.batch) == cert.MaxBatch {
		wk.closeBatch(t)
	}
	return a, a.Denial()
}

// closeBatch hands tick t's closed, unsigned batch to spare.Go; if the
// budget refuses it, the worker signs and seals it itself, right away.
func (wk *worker) closeBatch(t int) {
	if len(wk.batch) == 0 {
		return
	}
	p, b, svc := &wk.pending[t%2], wk.batch, wk.w.MS
	p.inflight.Add(1)
	if spare.Go(func() { signAndSeal(svc, b); p.inflight.Done() }) {
		p.handed = append(p.handed, b)
		if n := len(wk.reuse); n > 0 {
			wk.batch, wk.reuse = wk.reuse[n-1], wk.reuse[:n-1]
		} else {
			wk.batch = make([]*sealJob, 0, cert.MaxBatch)
		}
		return
	}
	signAndSeal(svc, b)
	p.inflight.Done()
	clear(b)
	wk.batch = b[:0]
}

// settle waits for the batches handed off in tick t, then folds the
// tick's samples into their reservoirs in issue order. A reply that
// did not carry what was admitted counts as ErrNoEphID, traced under
// tick t however late the fold.
func (wk *worker) settle(t int) {
	p := &wk.pending[t%2]
	p.inflight.Wait()
	for _, b := range p.handed {
		clear(b)
		wk.reuse = append(wk.reuse, b[:0])
	}
	clear(p.handed)
	p.handed = p.handed[:0]
	for _, sm := range p.samples {
		end, bad := sm.end, false
		for _, j := range sm.jobs {
			if j == nil {
				continue
			}
			if j.end.After(end) {
				end = j.end
			}
			bad = bad || j.bad
			j.adm = nil
			wk.free = append(wk.free, j)
		}
		sm.into.add(float64(end.Sub(sm.start).Nanoseconds()) / 1e3)
		if bad {
			wk.c.errNoEphID++
			wk.rec(t, evNoEphID, sm.hid)
		}
	}
	p.samples = p.samples[:0]
}

func (wk *worker) rec(tick int, kind byte, hid ephid.HID) {
	if wk.cfg.RecordTrace {
		wk.trace = append(wk.trace, traceEvent{uint32(tick), kind, uint32(hid)})
	}
}

// setupRun is how many hosts one spare.Each item of the set-up takes.
const setupRun = 256

// setup sets up the worker's hosts from first, setupRun or fewer, host i
// under the worker's i-th HID, and writes their hostdb entries.
func (wk *worker) setup(first int, horizon uint32, entries []hostdb.Entry) {
	for i := first; i < min(first+setupRun, len(wk.hosts)); i++ {
		hid := ephid.HID(wk.nextHID + uint32(i))
		h := &wk.hosts[i]
		h.hid = hid
		h.keys = hostKeys(wk.cfg.Seed, hid)
		h.ctrl = wk.w.Sealer.Mint(ephid.Payload{HID: hid, ExpTime: horizon})
		entries[i] = hostdb.Entry{HID: hid, Keys: h.keys, RegisteredAt: startTime}
	}
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

// tick processes one virtual second for this worker's partition. Its
// last batches may still be on a spare core when it returns: tick
// t settles at the end of tick t+1's admissions, the run's last tick
// before it returns.
func (wk *worker) tick(t int) {
	now := wk.w.clock.Load()
	wk.renewals(t, now)
	wk.churn(t, now)
	wk.arrivals(t, now)
	wk.closeBatch(t)
	if t > 0 {
		wk.settle(t - 1)
	}
	if t == wk.cfg.Ticks-1 {
		wk.settle(t)
	}
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
		sm := sample{hid: h.hid, start: time.Now(), into: &wk.renew} //apna:wallclock
		a, err := wk.request(t, h, &s.id, &sm)
		if errors.Is(err, ms.ErrRenewRateLimited) {
			// Denied renewals fall back to plain issuance, which the
			// policy deliberately leaves unthrottled: the flow stays
			// alive, only the identifier-history linkage is cut.
			wk.c.renewDenied++
			wk.rec(t, evRenewDenied, h.hid)
			a, err = wk.request(t, h, nil, &sm)
		}
		sm.end = time.Now() //apna:wallclock
		p := &wk.pending[t%2]
		p.samples = append(p.samples, sm)
		if err != nil {
			wk.c.errNoEphID++
			wk.rec(t, evNoEphID, h.hid)
			continue
		}
		wk.c.renewals++
		s.id, s.exp = a.EphID(), a.ExpTime()
		wk.schedule(sc.slot, s.exp, t)
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
		wk.w.DB.RevokeAt(h.hid, now)
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
		h.ctrl = wk.w.Sealer.Mint(ephid.Payload{HID: hid, ExpTime: wk.w.horizon})
		wk.w.DB.Put(hostdb.Entry{HID: hid, Keys: h.keys, RegisteredAt: now})
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
		sm := sample{hid: h.hid, start: time.Now(), into: &wk.issue} //apna:wallclock
		a, err := wk.request(t, h, nil, &sm)
		sm.end = time.Now() //apna:wallclock
		p := &wk.pending[t%2]
		p.samples = append(p.samples, sm)
		if err != nil {
			wk.c.errNoEphID++
			wk.rec(t, evNoEphID, h.hid)
			continue
		}
		wk.c.issued++
		if idleAny >= 0 {
			sl := &wk.slots[idleAny]
			sl.id, sl.exp, sl.busyUntil = a.EphID(), a.ExpTime(), now+int64(dur)
			wk.schedule(int32(idleAny), sl.exp, t)
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
	res, _, err := run(cfg, nil)
	return res, err
}

// run is Run with plant handed to every worker. It also returns the
// workers, their traces in the order they were hashed.
func run(cfg Config, plant func(t int, j *sealJob)) (*Result, []*worker, error) {
	cfg, err := cfg.normalize()
	if err != nil {
		return nil, nil, err
	}
	w, err := newWorld(cfg)
	if err != nil {
		return nil, nil, err
	}

	// Partition hosts across workers, and set them all up through one
	// spare.Each over runs of setupRun hosts: deriving their keys and
	// minting their control EphIDs is most of the work. Each worker's
	// hostdb entries then go in one batch.
	workers := make([]*worker, cfg.Workers)
	entries := make([][]hostdb.Entry, cfg.Workers)
	ringLen := int(cfg.EphIDLifetime) + cfg.RenewLead + 2
	per := cfg.Hosts / cfg.Workers
	extra := cfg.Hosts % cfg.Workers
	for i := range workers {
		n := per
		if i < extra {
			n++
		}
		wk := &worker{
			cfg:     &cfg,
			w:       w,
			rng:     rand.New(rand.NewSource(cfg.Seed ^ int64(i)<<20 ^ 0x5eed)),
			hosts:   make([]hostState, n),
			slots:   make([]flowSlot, n*cfg.PoolSlots),
			renewAt: make([][]renewSched, ringLen),
			nextHID: uint32(i)*hidSpan + 1,
			aeads:   crypto.NewAEADCache(0),
			plant:   plant,
		}
		wk.zipf = rand.NewZipf(wk.rng, cfg.ZipfS, 1, uint64(max(n-1, 1)))
		workers[i] = wk
		entries[i] = make([]hostdb.Entry, n)
	}
	// runs per worker, enough for per+1 hosts; set-up cannot fail.
	runs := per/setupRun + 1
	_ = spare.Each(cfg.Workers*runs, func(r int) error {
		i := r / runs
		workers[i].setup(r%runs*setupRun, w.horizon, entries[i])
		return nil
	})
	for i, wk := range workers {
		w.DB.PutBatch(entries[i])
		wk.nextHID += uint32(len(wk.hosts))
	}

	comp := newComplainer(w, &cfg)
	res := &Result{ReceiptStatus: map[string]uint64{}, HostdbShards: w.DB.ShardCount()}

	// Persistent workers with a per-tick barrier: the coordinator
	// advances the virtual clock only between ticks, so every engine
	// sees one consistent "now" per tick. The barrier waits for the
	// workers' admissions only; their last batches' seals finish during
	// the next tick (worker.tick). The workers hold their own cores, so
	// spare cores sign, seal and check whole batches only on the Ps
	// they leave idle; every decision stays on the workers (DESIGN §10,
	// "One signature per batch").
	start := make([]chan int, cfg.Workers)
	for i := range start {
		start[i] = make(chan int, 1)
	}
	var tickWG sync.WaitGroup
	join := spare.Workers(cfg.Workers, func(i int) {
		for t := range start[i] {
			workers[i].tick(t)
			tickWG.Done()
		}
	})

	retention := int64(cfg.EphIDLifetime)
	t0 := time.Now() //apna:wallclock
	for t := 0; t < cfg.Ticks; t++ {
		now := startTime + int64(t)
		w.clock.Store(now)
		tickWG.Add(cfg.Workers)
		for i := range start {
			start[i] <- t
		}
		// The complaint cycle runs beside the workers, at the same now:
		// its offenders have an HID range of their own, and every
		// engine it shares with the workers is safe for concurrent use.
		if cfg.ComplaintEvery > 0 && t%cfg.ComplaintEvery == 0 {
			comp.cycle(now)
		}
		tickWG.Wait()

		if cfg.GCEvery > 0 && t%cfg.GCEvery == cfg.GCEvery-1 {
			g0 := time.Now() //apna:wallclock
			res.GCReaped += w.DB.GC(now, retention)
			pause := float64(time.Since(g0).Nanoseconds()) / 1e3 //apna:wallclock
			if pause > res.GCMaxPauseUs {
				res.GCMaxPauseUs = pause
			}
		}
		if cfg.DigestEvery > 0 && t%cfg.DigestEvery == cfg.DigestEvery-1 {
			res.DigestEntriesLast = w.Acct.FlushDigest()
			res.DigestFlushes++
		}
	}
	elapsed := time.Since(t0) //apna:wallclock
	for i := range start {
		close(start[i])
	}
	join()

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
	res.AcctDuplicates = w.Acct.Stats().RequestsDuplicate
	res.DigestBytes = w.digestBytes.Load()
	res.HostdbHosts = w.DB.Len()
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
			// A fold traces under its own tick one tick late; a stable
			// sort by tick puts it where folding within the tick would.
			slices.SortStableFunc(wk.trace, func(a, b traceEvent) int { return cmp.Compare(a.tick, b.tick) })
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
	return res, workers, nil
}

// complainer drives the inter-domain complaint path from the
// coordinator, beside the workers' tick: it keeps a current offender
// host (registered in the reserved HID range), issues it a fresh EphID
// per complaint, builds the MACed evidence frame and the
// victim-AS-signed ShutoffRequest, and feeds it to the accountability
// engine — replaying a fraction bit-exactly to exercise the receipt
// idempotency cache. Strike escalation revokes the offender after
// StrikeLimit shutoffs, at which point issuance fails and a fresh
// offender is registered.
type complainer struct {
	w       *world
	cfg     *Config
	rng     *rand.Rand
	seq     uint64
	nextHID uint32
	off     *hostState
	payload []byte
	// issue is the offender's round trip, world.issue outside tests.
	issue func(h *hostState, lifetime uint32, prev *ephid.EphID) (*cert.Cert, error)

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
		issue:   w.issue,
		status:  map[string]uint64{},
	}
}

func (cp *complainer) newOffender(now int64) *hostState {
	hid := ephid.HID(cp.nextHID)
	cp.nextHID++
	h := &hostState{hid: hid, keys: hostKeys(cp.cfg.Seed, hid)}
	h.ctrl = cp.w.Sealer.Mint(ephid.Payload{HID: hid, ExpTime: cp.w.horizon})
	cp.w.DB.Put(hostdb.Entry{HID: hid, Keys: h.keys, RegisteredAt: now})
	return h
}

// cycle files one complaint at now. Every cycle counts as a complaint,
// and one that fails before the accountability engine answers it
// counts under the "error" receipt status.
func (cp *complainer) cycle(now int64) {
	cp.complaints++
	raw, err := cp.request(now)
	if err != nil {
		cp.status["error"]++
		return
	}
	t0 := time.Now() //apna:wallclock
	r, err := cp.w.Acct.HandleShutoffRequest(raw)
	cp.lat.add(float64(time.Since(t0).Nanoseconds()) / 1e3) //apna:wallclock
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
		if _, err := cp.w.Acct.HandleShutoffRequest(raw); err == nil {
			cp.replays++
		}
	}
}

// request builds the encoded ShutoffRequest of one complaint against
// the current offender, under a fresh offending EphID: each shutoff
// lands a strike until the AA escalates and revokes the host.
func (cp *complainer) request(now int64) ([]byte, error) {
	if cp.off == nil {
		cp.off = cp.newOffender(now)
	}
	c, err := cp.issue(cp.off, cp.cfg.EphIDLifetime, nil)
	if errors.Is(err, hostdb.ErrRevoked) || errors.Is(err, hostdb.ErrUnknownHost) {
		// Strike escalation revoked the offender's HID (and GC may
		// have reaped it since): the MS refuses it service. Replace it.
		cp.revoked++
		cp.off = cp.newOffender(now)
		c, err = cp.issue(cp.off, cp.cfg.EphIDLifetime, nil)
	}
	if err != nil {
		return nil, err
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
		return nil, err
	}
	pm, err := wire.NewPacketMAC(cp.off.keys.MAC[:])
	if err != nil {
		return nil, err
	}
	pm.Apply(frame)

	complaint := accountability.NewComplaint(frame, cp.w.victimCert, c, cp.w.victimHostSigner)
	enc, err := complaint.Encode()
	if err != nil {
		return nil, err
	}
	sr := &accountability.ShutoffRequest{
		Origin: victimAID, Seq: cp.seq, IssuedAt: now, Complaint: enc,
	}
	sr.Sign(cp.w.victimASSigner)
	return sr.Encode(), nil
}

// PeakRSS reports the process's peak resident set in bytes (VmHWM on
// Linux), falling back to the Go runtime's Sys estimate elsewhere —
// the "does 10^6 hosts fit in one process" number of E11's top tier.
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

// errReplyMismatch reports a reply that decoded to something other
// than what the service admitted.
var errReplyMismatch = errors.New("population: reply does not carry what was admitted")

// issue is the full host→MS round trip on the caller: admit, sign the
// one-request batch, then reply. The complainer uses it beside the
// workers, a few dozen times a run, so it builds the host's AEAD per
// call.
func (w *world) issue(h *hostState, lifetime uint32, prev *ephid.EphID) (*cert.Cert, error) {
	aead, err := crypto.NewAEAD(h.keys.Enc[:], 0)
	if err != nil {
		return nil, err
	}
	var ct [ms.SealedRequestSize]byte
	a, err := w.admit(h, aead, ct[:0], lifetime, prev)
	if err != nil {
		return nil, err
	}
	w.MS.Sign([]*ms.Admitted{a})
	j := &sealJob{aead: aead, ctrl: h.ctrl, adm: a}
	if err := j.reply(); err != nil {
		return nil, err
	}
	return &j.cert, nil
}

// reply is the round trip's second half: the service seals the
// admitted and signed reply into the job's buffer, and the host
// decrypts it there and decodes it into the job's certificate under its
// own kHA AEAD. The reply must carry exactly what was admitted — the
// certificate, or the denial, which comes back as the error.
func (j *sealJob) reply() error {
	var err error
	if j.raw, err = j.adm.AppendSeal(j.raw[:0]); err != nil {
		return err
	}
	err = ms.OpenReply(&j.cert, j.aead, &j.ctrl, j.raw)
	if denial := j.adm.Denial(); denial != nil {
		if !errors.Is(err, denial) {
			return errReplyMismatch
		}
		return denial
	}
	if err != nil {
		return err
	}
	if !j.cert.Equal(j.adm.Cert()) {
		return errReplyMismatch
	}
	return nil
}

// admit is the round trip's first half: encrypt the request under the
// host's kHA AEAD into ct, scratch with room for ms.SealedRequestSize
// bytes, then run Figure 3 in the service up to the signature, which
// opens the request in place there. prev non-nil makes it a renewal.
func (w *world) admit(h *hostState, aead *crypto.AEAD, ct []byte, lifetime uint32, prev *ephid.EphID) (*ms.Admitted, error) {
	req := ms.Request{Kind: ephid.KindData, Lifetime: lifetime}
	if prev != nil {
		req.Flags = ms.ReqFlagRenew
		req.Prev = *prev
	}
	// The model never opens sessions, so the bound key material only
	// has to be host-stable, not usable.
	binary.BigEndian.PutUint32(req.DHPub[:], uint32(h.hid))
	binary.BigEndian.PutUint32(req.SigPub[:], uint32(h.hid))
	ct, err := ms.AppendRequest(ct, aead, &h.ctrl, &req)
	if err != nil {
		return nil, err
	}
	return w.MS.AdmitInPlace(h.ctrl, ct)
}
