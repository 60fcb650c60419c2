package scenario

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"time"

	"apna"
	"apna/internal/adversary"
	"apna/internal/border"
	"apna/internal/dns"
	"apna/internal/ephid"
	"apna/internal/invariant"
	"apna/internal/netsim"
	"apna/internal/population"
)

// RunOptions selects capture or replay. The zero value captures the
// run's fault schedule (the default: every run is replayable).
type RunOptions struct {
	// Replay, when set, replays the recorded fault schedule instead of
	// capturing a fresh one. The schedule must match the spec (hash)
	// and seed.
	Replay *Schedule
}

// Result is a completed run: the deterministic verdict, the captured
// schedule (capture mode) and the alignment stats (replay mode).
type Result struct {
	Verdict  *Verdict
	Schedule *Schedule
	Replay   *netsim.ReplayStats
}

// hostState is the per-host record: issued EphIDs in order, the latest
// delivered message per sending endpoint — the evidence a mid-flight
// shutoff presents — and how many flows it dialed from its pool.
type hostState struct {
	ids     []*apna.OwnedEphID
	last    map[apna.Endpoint]apna.Message
	pooled  int
	churned bool
}

// runFlow is one established (or attempted) flow.
type runFlow struct {
	src, dst    int
	srcID       *apna.OwnedEphID // nil: drawn from the pool per attempt
	srcEp       apna.Endpoint
	conn        *apna.Conn
	established bool
	revoked     bool
	// complained marks a complaint target; lastSent and lastDelivered
	// are the last waves the flow sent and delivered in (-1: none).
	complained              bool
	delivered               int
	lastSent, lastDelivered int
	// windows counts deliveries per validity window of sending.
	windows []int
}

// pendingResolve is a resolve action awaiting its phase's quiescence.
type pendingResolve struct {
	act *ActionSpec
	p   *apna.Pending[*apna.Cert]
}

// pendingShutoff is a shutoff action awaiting ground-truth checks.
type pendingShutoff struct {
	act     *ActionSpec
	targets []int
	filed   []*apna.Pending[bool]
}

// pendingIssue is one host's issuance request awaiting its wave.
type pendingIssue struct {
	host int
	p    *apna.Pending[*apna.OwnedEphID]
}

// pendingChurn is a churn action's dials awaiting the phase's await.
type pendingChurn struct {
	act   *ActionSpec
	dials []churnDial
}

type churnDial struct {
	host int
	id   *apna.OwnedEphID
	p    *apna.Pending[*apna.Conn]
	conn *apna.Conn
}

// runner executes one compiled spec.
type runner struct {
	spec     *Spec
	in       *apna.Internet
	firstAID apna.AID
	nASes    int
	perAS    int // hosts in every AS

	hosts  []*apna.Host // layout order: AS-major, then role order
	roles  []string     // the role of each host of an AS, in layout order
	byAS   [][]int
	states []hostState
	flows  []runFlow

	issuing []pendingIssue

	attackers  []*apna.Attacker
	attackerAS map[int]bool // AS indices hosting an attacker

	check   *invariant.Checker
	verdict *Verdict

	sendWave      int
	attackWave    int
	expiredProbed bool

	compromised    []*adversary.Compromised
	compromisedDst []apna.Endpoint

	// The accountability plane's clocks, from OnAccountability: first
	// revocations by EphID and by AS, first installs by [origin, AS].
	revokedAt   map[apna.EphID]time.Duration
	asRevokedAt map[apna.AID]time.Duration
	installedAt map[[2]apna.AID]time.Duration

	complaintTargets int

	// The lifecycle's books: the validity window (the shortest issued
	// lifetime), when the first data wave went out, each wave's window,
	// every issued EphID's expiry, the voluntarily revoked EphIDs and
	// the churn messages sent.
	window     time.Duration
	sendStart  time.Duration
	waveWindow []int
	expOf      map[apna.EphID]uint32
	voluntary  map[apna.EphID]bool
	churnSent  int
}

// Run compiles the spec into facade primitives, executes its phases on
// the simulator, referees the selected invariants and evaluates the
// bounds. Validate is NOT implied: callers going through Parse/Load are
// covered; hand-built specs should call Validate first.
func Run(s *Spec, opts RunOptions) (*Result, error) {
	specHash, err := s.SpecHash()
	if err != nil {
		return nil, err
	}
	if rp := opts.Replay; rp != nil {
		if rp.SpecHash != "" && rp.SpecHash != specHash {
			return nil, fmt.Errorf("scenario: schedule belongs to spec %.12s…, not %.12s…", rp.SpecHash, specHash)
		}
		if rp.Seed != s.Seed {
			return nil, fmt.Errorf("scenario: schedule recorded with seed %d, spec has %d", rp.Seed, s.Seed)
		}
	}

	topo, aids, _, err := s.compile()
	if err != nil {
		return nil, err
	}
	var names []string
	for i, aid := range aids {
		hosts := s.Topology.hosts(i)
		topo = append(topo, apna.WithHosts(aid, hosts...))
		names = append(names, hosts...)
	}
	in, err := apna.New(s.Seed, topo...)
	if err != nil {
		return nil, err
	}
	var capture *netsim.FaultTrace
	if opts.Replay != nil {
		in.Sim.ReplayFaults(opts.Replay.Events)
	} else {
		capture = in.Sim.CaptureFaults()
	}
	virtualStart := in.Sim.Now()

	r := &runner{
		spec: s, in: in, verdict: &Verdict{Name: s.Name, Seed: s.Seed, SpecHash: specHash},
		firstAID: aids[0], nASes: len(aids), perAS: len(names) / len(aids),
		roles:       s.Topology.layout(),
		attackerAS:  make(map[int]bool),
		revokedAt:   make(map[apna.EphID]time.Duration),
		asRevokedAt: make(map[apna.AID]time.Duration),
		installedAt: make(map[[2]apna.AID]time.Duration),
		expOf:       make(map[apna.EphID]uint32),
		voluntary:   make(map[apna.EphID]bool),
	}
	for _, name := range names {
		r.hosts = append(r.hosts, in.Host(name))
	}
	r.verdict.Hosts = len(r.hosts)

	if len(s.Invariants) > 0 {
		// Grace covers the longest chaotic delivery path, as in E7.
		r.check = invariant.New(in.Sim.Now, 3*s.maxLink()+10*time.Millisecond)
	}
	in.OnAccountability(r.observe)
	if s.Lifetimes != nil {
		r.window = s.validityWindow()
		// Renewed EphIDs stay attributable and migration re-handshakes
		// are dials, not replays.
		in.Lifecycle().SetObserver(func(ev apna.LifecycleEvent) {
			switch ev.Kind {
			case "renewed":
				r.issued(ev.Host, ev.New)
			case "migrate-dial":
				if r.check != nil {
					r.check.Dialed(ev.New.Endpoint(), ev.Peer)
				}
			}
		})
	}

	// Host wiring: delivery counting, evidence retention, referee taps.
	r.byAS = make([][]int, r.nASes)
	r.states = make([]hostState, len(r.hosts))
	for i, h := range r.hosts {
		i, h := i, h
		r.byAS[r.asIdx(i)] = append(r.byAS[r.asIdx(i)], i)
		r.states[i].last = make(map[apna.Endpoint]apna.Message)
		h.Stack.OnMessage(func(m apna.Message) {
			r.verdict.Delivered++
			r.states[i].last[m.Flow.Src] = m
			if s.Lifetimes != nil {
				r.vetLifetime(m.Flow.Src.EphID)
			}
			var fi, wave int
			if n, _ := fmt.Sscanf(string(m.Payload), "flow %d wave %d", &fi, &wave); n == 2 && fi >= 0 && fi < len(r.flows) {
				fl := &r.flows[fi]
				fl.delivered++
				fl.lastDelivered = max(fl.lastDelivered, wave)
				if wave >= 0 && wave < len(r.waveWindow) {
					w := r.waveWindow[wave]
					if w >= len(fl.windows) {
						fl.windows = append(fl.windows, make([]int, w+1-len(fl.windows))...)
					}
					fl.windows[w]++
				}
			}
			if r.check != nil {
				r.check.Delivered(h.Name, m)
			}
		})
		if r.check != nil {
			h.Stack.OnAccept(func(_ apna.EphID, peer apna.Endpoint, addressed apna.EphID) {
				r.check.Accepted(peer, apna.Endpoint{AID: h.AS().AID, EphID: addressed})
			})
		}
	}
	for _, a := range s.Attackers {
		att := in.Attacker(a.Name)
		r.attackers = append(r.attackers, att)
		r.attackerAS[int(apna.AID(a.AS)-r.firstAID)] = true
		if len(a.Tap) == 2 {
			if err := att.TapInterAS(apna.AID(a.Tap[0]), apna.AID(a.Tap[1])); err != nil {
				return nil, err
			}
		}
	}

	for pi := range s.Phases {
		if err := r.phase(&s.Phases[pi]); err != nil {
			return nil, fmt.Errorf("scenario: phase %d (%s): %w", pi, s.Phases[pi].Name, err)
		}
	}
	in.RunUntilIdle()
	r.finish()

	r.verdict.Events = in.Sim.Events()
	r.verdict.VirtualNs = int64(in.Sim.Now() - virtualStart)

	res := &Result{Verdict: r.verdict}
	var events []netsim.FaultEvent
	if capture != nil {
		events = capture.Events
		res.Schedule = &Schedule{Version: ScheduleVersion, Seed: s.Seed, SpecHash: specHash, Events: events}
		r.verdict.Faults = len(events)
	} else {
		st := in.Sim.FaultReplayStats()
		res.Replay = &st
		events = opts.Replay.Events
		r.verdict.Faults = st.Consumed + st.Underrun
	}
	if err := r.verdict.computeTraceHash(events); err != nil {
		return nil, err
	}
	return res, nil
}

// maxLink is the longest one-way inter-AS delivery the spec's links and
// chaos allow.
func (s *Spec) maxLink() time.Duration {
	l := max(s.Topology.LinkLatency.D(), s.Topology.CoreLatency.D())
	if c := s.Chaos; c != nil {
		l += c.Jitter.D() + c.ReorderDelay.D()
	}
	return l
}

// validityWindow is the lifecycle's window: the shortest lifetime the
// spec issues or renews for.
func (s *Spec) validityWindow() time.Duration {
	life := s.Lifetimes.RenewLifetime
	for _, ph := range s.Phases {
		for _, a := range ph.Actions {
			if a.Op == OpIssue && (life == 0 || a.LifetimeS < life) {
				life = a.LifetimeS
			}
		}
	}
	return time.Duration(life) * time.Second
}

// disseminationBound is the latency within which a revocation must
// reach every AS under the spec's dissemination: one interval to the
// first flush carrying it (a delta), two anti-entropy snapshot rounds
// to ride out chaotic loss of the delta and of the first snapshot, and
// propagation slack.
func (s *Spec) disseminationBound() time.Duration {
	snap := s.Dissemination.SnapshotEvery
	if snap <= 0 {
		snap = apna.DefaultSnapshotEvery
	}
	return time.Duration(1+2*snap)*s.Dissemination.Interval.D() + 10*s.maxLink()
}

// asIdx maps a host index to its AS's index in the topology.
func (r *runner) asIdx(hostIdx int) int {
	return int(r.hosts[hostIdx].AS().AID - r.firstAID)
}

// role is the host's role ("" without topology roles).
func (r *runner) role(hostIdx int) string {
	if len(r.roles) == 0 {
		return ""
	}
	return r.roles[hostIdx%r.perAS]
}

// hostAt is the (first) host of the given role in the AS with index
// as, which wraps around the AS list.
func (r *runner) hostAt(as int, role string) int {
	as = (as%r.nASes + r.nASes) % r.nASes
	return as*r.perAS + slices.Index(r.roles, role)
}

// issued records a host's new EphID with the referee and, for the
// lifecycle gates, its expiry.
func (r *runner) issued(h *apna.Host, id *apna.OwnedEphID) {
	r.expOf[id.Cert.EphID] = id.Cert.ExpTime
	if r.check != nil {
		r.check.Issued(h.AS().AID, id.Cert.EphID)
	}
}

// vetLifetime counts a delivery from an EphID past its expiry (beyond
// the one-second granularity of ExpTime) or voluntarily revoked.
func (r *runner) vetLifetime(src apna.EphID) {
	if exp, ok := r.expOf[src]; ok && r.in.Now() > int64(exp)+1 {
		r.verdict.ExpiredAccepted++
	}
	if r.voluntary[src] {
		r.verdict.RevokedAccepted++
	}
}

// acquire takes a per-flow EphID from the host's pool, counting a pool
// with none to give as an ErrNoEphID starvation.
func (r *runner) acquire(hostIdx int) *apna.OwnedEphID {
	id, err := r.hosts[hostIdx].Stack.Acquire(apna.PerFlow, "")
	if err != nil {
		r.verdict.NoEphIDErrors++
		return nil
	}
	return id
}

// serving is the host's serving endpoint: its last issued EphID.
func (r *runner) serving(hostIdx int) *apna.OwnedEphID {
	ids := r.states[hostIdx].ids
	return ids[len(ids)-1]
}

// dropped sums one verdict over every AS's border router.
func (r *runner) dropped(v border.Verdict) uint64 {
	var n uint64
	for _, as := range r.in.ASes() {
		n += as.Router.Stats().Get(v)
	}
	return n
}

func (r *runner) fail(format string, args ...any) {
	r.verdict.Failures = append(r.verdict.Failures, fmt.Sprintf(format, args...))
}

// observe timestamps the accountability plane: each revocation at its
// source AS, and each AS's first install of another AS's digest
// entries.
func (r *runner) observe(ev apna.AcctEvent) {
	now := r.in.Sim.Now()
	switch {
	case ev.Kind == "shutoff" && ev.Status == apna.ShutoffRevoked:
		noteFirst(r.revokedAt, ev.EphID, now)
		noteFirst(r.asRevokedAt, ev.AID, now)
	case ev.Kind == "digest-install" && ev.Entries > 0:
		noteFirst(r.installedAt, [2]apna.AID{ev.Peer, ev.AID}, now)
	}
}

func noteFirst[K comparable](m map[K]time.Duration, k K, at time.Duration) {
	if _, dup := m[k]; !dup {
		m[k] = at
	}
}

// phase executes one phase: actions in order collecting async ops, one
// await, then the post-quiescence steps (shutoff ground truth, resolve
// expectations).
func (r *runner) phase(ph *PhaseSpec) error {
	var ops []apna.Op
	var resolves []pendingResolve
	var shutoffs []pendingShutoff
	var churns []pendingChurn
	for ai := range ph.Actions {
		a := &ph.Actions[ai]
		if a.Op != OpIssue {
			if err := r.awaitIssued(); err != nil {
				return err
			}
		}
		var err error
		switch a.Op {
		case OpIssue:
			r.issue(a)
		case OpDial:
			err = r.dial(a)
		case OpChurn:
			churns = append(churns, r.churn(a, &ops))
		case OpSend:
			err = r.send(a, &ops)
		case OpShutoff:
			if a.Complain {
				err = r.complain(a)
			} else {
				shutoffs = append(shutoffs, r.shutoff(a, &ops))
			}
		case OpAttack:
			err = r.attack(a)
		case OpPartition:
			now := r.in.Sim.Now()
			r.in.InterASLink(apna.AID(a.A), apna.AID(a.B)).Partition(now, now+a.Duration.D())
		case OpPublish:
			err = r.publish(a)
		case OpResolve:
			p := r.in.Host(a.From).LookupAsync(a.As)
			resolves = append(resolves, pendingResolve{act: a, p: p})
			ops = append(ops, p)
		case OpFlashcrowd:
			err = r.flashcrowd(a)
		case OpRun:
			r.in.RunFor(a.Duration.D())
		}
		if err != nil {
			return err
		}
	}
	if err := r.awaitIssued(); err != nil {
		return err
	}
	if len(ops) > 0 {
		if err := r.in.AwaitAll(ops...); err != nil && !errors.Is(err, apna.ErrTimeout) {
			return err
		}
	}
	for i := range shutoffs {
		r.shutoffGroundTruth(&shutoffs[i])
	}
	for i := range resolves {
		r.resolveOutcome(&resolves[i])
	}
	for i := range churns {
		if err := r.finishChurn(&churns[i]); err != nil {
			return err
		}
	}
	return nil
}

// issue requests a.PerHost fresh EphIDs on every host (or every host of
// a.Roles), all overlapping — the issuance wave. The wave is awaited
// before the phase's next action of another kind, so consecutive issue
// actions overlap and later actions in the same phase (dials, sends)
// can use the identifiers.
func (r *runner) issue(a *ActionSpec) {
	for i, h := range r.hosts {
		if len(a.Roles) > 0 && !slices.Contains(a.Roles, r.role(i)) {
			continue
		}
		for range a.PerHost {
			r.issuing = append(r.issuing, pendingIssue{host: i, p: h.NewEphIDAsync(apna.KindData, a.LifetimeS)})
		}
	}
}

// awaitIssued completes the pending issuance wave, if any.
func (r *runner) awaitIssued() error {
	if len(r.issuing) == 0 {
		return nil
	}
	wave := r.issuing
	r.issuing = nil
	ops := make([]apna.Op, len(wave))
	for k, pi := range wave {
		ops[k] = pi.p
	}
	if err := r.in.AwaitAll(ops...); err != nil {
		return fmt.Errorf("issuance wave: %w", err)
	}
	for _, pi := range wave {
		id, err := pi.p.Result()
		if err != nil {
			return fmt.Errorf("issuance: %w", err)
		}
		r.states[pi.host].ids = append(r.states[pi.host].ids, id)
		r.issued(r.hosts[pi.host], id)
	}
	return nil
}

// dial lays out the action's flows toward each peer's serving EphID —
// each host of a role in a.To toward its target, from its first EphID
// or a.FromPool times from its pool, or FlowsPerHost per host spread
// with the E6/E7 round-robin so flows cross AS boundaries, the f-th
// from its f-th EphID — and dials them, re-dialing the ones chaos kept
// from establishing a.Retries times. A pooled flow acquires its EphID
// per attempt and releases it when the attempt fails.
func (r *runner) dial(a *ActionSpec) error {
	first := len(r.flows)
	addFlow := func(src, dst int, id *apna.OwnedEphID) {
		fl := runFlow{src: src, dst: dst, srcID: id, lastSent: -1, lastDelivered: -1}
		if id != nil {
			fl.srcEp = id.Endpoint()
		}
		r.flows = append(r.flows, fl)
	}
	for i := range r.hosts {
		if t, ok := a.To[r.role(i)]; ok {
			dst := r.hostAt(r.asIdx(i)+t.ASOffset, t.Role)
			if a.FromPool == 0 {
				addFlow(i, dst, r.states[i].ids[0])
			}
			for range a.FromPool {
				addFlow(i, dst, nil)
			}
			r.states[i].pooled += a.FromPool
		}
		for f := 0; f < a.FlowsPerHost; f++ {
			peer := (i + 1 + f*r.perAS) % len(r.hosts)
			if peer == i {
				peer = (i + 1) % len(r.hosts)
			}
			addFlow(i, peer, r.states[i].ids[f])
		}
	}
	pooled := a.FromPool > 0
	for attempt := 0; attempt <= a.Retries; attempt++ {
		var dials []*apna.Pending[*apna.Conn]
		var which []int
		for fi := first; fi < len(r.flows); fi++ {
			fl := &r.flows[fi]
			if fl.established {
				continue
			}
			if pooled {
				if fl.srcID = r.acquire(fl.src); fl.srcID == nil {
					continue
				}
				fl.srcEp = fl.srcID.Endpoint()
			}
			dst := r.serving(fl.dst)
			dials = append(dials, r.hosts[fl.src].ConnectAsync(fl.srcID, &dst.Cert, nil))
			which = append(which, fi)
			if r.check != nil {
				r.check.Dialed(fl.srcEp, dst.Endpoint())
			}
		}
		if len(dials) == 0 {
			break
		}
		// The dial wave crosses chaotic links: lost handshakes surface as
		// ErrTimeout and the affected flows wait for the next attempt.
		if err := r.in.AwaitAll(apna.Ops(dials...)...); err != nil && !errors.Is(err, apna.ErrTimeout) {
			return fmt.Errorf("handshake wave: %w", err)
		}
		for k, fi := range which {
			fl := &r.flows[fi]
			if conn, err := dials[k].Result(); err == nil {
				fl.conn, fl.established = conn, true
			} else if pooled {
				// The timed-out await drained the timeline, so the dial
				// record is already abandoned: no stale record can claim
				// a later ack for the released EphID.
				r.hosts[fl.src].Stack.Release(fl.srcID)
			}
		}
	}
	for _, fl := range r.flows[first:] {
		if fl.established {
			r.verdict.Flows++
		} else {
			r.verdict.FlowsFailed++
		}
	}
	return nil
}

// send queues one data wave: a message on every established flow, or
// a.PerFlow[role] on each whose source has that role. With a.Retries
// the wave awaits on its own and goes out again, as the same wave,
// while a flow that sent has delivered nothing (no evidence yet).
func (r *runner) send(a *ActionSpec, ops *[]apna.Op) error {
	wave := r.sendWave
	r.sendWave++
	if r.window > 0 {
		if wave == 0 {
			r.sendStart = r.in.Sim.Now()
		}
		r.waveWindow = append(r.waveWindow, int((r.in.Sim.Now()-r.sendStart)/r.window))
	}
	for attempt := 0; ; attempt++ {
		var sent []apna.Op
		for fi := range r.flows {
			fl := &r.flows[fi]
			n := 1
			if a.PerFlow != nil {
				n = a.PerFlow[r.role(fl.src)]
			}
			if !fl.established || n == 0 {
				continue
			}
			fl.lastSent = wave
			for range n {
				msg := fmt.Sprintf("flow %d wave %d", fi, wave)
				sent = append(sent, r.hosts[fl.src].SendAsync(fl.conn, []byte(msg)))
				r.verdict.MessagesSent++
			}
		}
		if a.Retries == 0 {
			*ops = append(*ops, sent...)
			return nil
		}
		if err := r.in.AwaitAll(sent...); err != nil && !errors.Is(err, apna.ErrTimeout) {
			return fmt.Errorf("wave %d: %w", wave, err)
		}
		silent := func(fl runFlow) bool { return fl.lastSent == wave && fl.delivered == 0 }
		if attempt == a.Retries || !slices.ContainsFunc(r.flows, silent) {
			return nil
		}
	}
}

// churn dials one flow from every host of a role in a.To toward its
// target, each from a per-flow EphID acquired from the host's pool; the
// dials join the phase's await.
func (r *runner) churn(a *ActionSpec, ops *[]apna.Op) pendingChurn {
	pc := pendingChurn{act: a}
	for i := range r.hosts {
		t, ok := a.To[r.role(i)]
		if !ok {
			continue
		}
		r.states[i].pooled++
		r.states[i].churned = true
		id := r.acquire(i)
		if id == nil {
			continue
		}
		dst := r.serving(r.hostAt(r.asIdx(i)+t.ASOffset, t.Role))
		if r.check != nil {
			r.check.Dialed(id.Endpoint(), dst.Endpoint())
		}
		p := r.hosts[i].ConnectAsync(id, &dst.Cert, nil)
		pc.dials = append(pc.dials, churnDial{host: i, id: id, p: p})
		*ops = append(*ops, p)
	}
	return pc
}

// finishChurn runs once the phase's await is over: each churn flow that
// established sends one message, and once those are through it closes;
// the first a.Revoke closed EphIDs are voluntarily revoked at their AS
// and retired, the others and those of dials that failed go back to
// the pool.
func (r *runner) finishChurn(pc *pendingChurn) error {
	var sends []apna.Op
	var open []churnDial
	for _, d := range pc.dials {
		conn, err := d.p.Result()
		if err != nil {
			r.hosts[d.host].Stack.Release(d.id)
			continue
		}
		d.conn = conn
		open = append(open, d)
		sends = append(sends, r.hosts[d.host].SendAsync(conn, []byte(fmt.Sprintf("churn %d", r.churnSent))))
		r.churnSent++
	}
	if len(sends) > 0 {
		if err := r.in.AwaitAll(sends...); err != nil && !errors.Is(err, apna.ErrTimeout) {
			return fmt.Errorf("churn sends: %w", err)
		}
	}
	revoke := pc.act.Revoke
	for _, d := range open {
		d.conn.Close()
		if revoke == 0 {
			continue
		}
		h, e := r.hosts[d.host], d.id.Cert.EphID
		if err := h.AS().Agent.RevokeVoluntary(h.HID(), e); err != nil {
			continue
		}
		revoke--
		r.voluntary[e] = true
		r.verdict.Revoked++
		if r.check != nil {
			r.check.Revoked(e)
		}
		h.Stack.Retire(d.id)
	}
	return nil
}

// targets selects a shutoff's a.Count target flows among the
// established flows sourced by a.Roles (any host if unset), preferring
// flows sourced inside attacker ASes when requested (so post-shutoff
// compromise attacks have identities to steal). They come back ordered
// by victim, in layout order: the order the victims file in.
func (r *runner) targets(a *ActionSpec) []int {
	eligible := func(fi int) bool {
		fl := &r.flows[fi]
		return fl.established && (len(a.Roles) == 0 || slices.Contains(a.Roles, r.role(fl.src)))
	}
	var targets []int
	if a.PreferAttackerAS {
		for fi := range r.flows {
			if len(targets) < a.Count && eligible(fi) && r.attackerAS[r.asIdx(r.flows[fi].src)] {
				targets = append(targets, fi)
			}
		}
	}
	for fi := range r.flows {
		if len(targets) >= a.Count {
			break
		}
		if eligible(fi) && !slices.Contains(targets, fi) {
			targets = append(targets, fi)
		}
	}
	slices.SortStableFunc(targets, func(x, y int) int { return r.flows[x].dst - r.flows[y].dst })
	return targets
}

// shutoff files mid-flight revocations against the selected targets:
// each victim presents the evidence frame its stack retained for the
// offending flow.
func (r *runner) shutoff(a *ActionSpec, ops *[]apna.Op) pendingShutoff {
	sh := pendingShutoff{act: a, targets: r.targets(a)}
	for _, fi := range sh.targets {
		fl := r.flows[fi]
		m, ok := r.states[fl.dst].last[fl.srcEp]
		if !ok {
			continue // evidence lost to chaos
		}
		p := r.hosts[fl.dst].ShutoffAsync(m)
		sh.filed = append(sh.filed, p)
		*ops = append(*ops, p)
	}
	r.verdict.ShutoffsFiled += len(sh.filed)
	return sh
}

// shutoffGroundTruth runs after the phase quiesces: acknowledgment
// counting, and — when requested — ground truth against the source
// border router's revocation list plus identity theft by a co-located
// attacker (the E7 post-shutoff sequence).
func (r *runner) shutoffGroundTruth(sh *pendingShutoff) {
	for _, p := range sh.filed {
		if ok, err := p.Result(); err == nil && ok {
			r.verdict.ShutoffsAccepted++
		}
	}
	if !sh.act.RecordRevoked && !sh.act.Steal {
		return
	}
	for _, fi := range sh.targets {
		fl := &r.flows[fi]
		srcAS := r.in.AS(fl.srcEp.AID)
		if fl.revoked || !srcAS.Router.Revoked().Contains(fl.srcEp.EphID) {
			continue
		}
		fl.revoked = true
		r.verdict.Revoked++
		if r.check != nil {
			r.check.Revoked(fl.srcEp.EphID)
		}
		if !sh.act.Steal {
			continue
		}
		k := slices.IndexFunc(r.attackers, func(att *apna.Attacker) bool { return att.AS().AID == fl.srcEp.AID })
		if k < 0 {
			continue
		}
		macKey := r.hosts[fl.src].Stack.Config().Keys.MAC
		if comp, err := r.attackers[k].Compromise(macKey[:], fl.srcEp); err == nil {
			r.compromisedDst = append(r.compromisedDst, r.serving(fl.dst).Endpoint())
			r.compromised = append(r.compromised, comp)
		}
	}
}

// complain is the cross-AS form of shutoff: each victim complains to
// its own AS about the selected target flow, presenting the evidence
// frame it retained, and the unanswered complaints are re-filed up to
// a.Retries times (a re-filed complaint about a revoked EphID earns a
// no-op receipt, never a second revocation). A target is revoked once
// the source AS's receipt names its EphID and verifies against that
// AS's key; the revocation dates from when the source AS executed it.
func (r *runner) complain(a *ActionSpec) error {
	targets := r.targets(a)
	r.complaintTargets += len(targets)
	if len(targets) < a.Count {
		r.fail("complaint targets %d < requested %d", len(targets), a.Count)
	}
	receipts := make([]*apna.ShutoffReceipt, len(targets))
	for attempt := 0; attempt <= a.Retries; attempt++ {
		var filed []*apna.Pending[*apna.ShutoffReceipt]
		var which []int
		for t, fi := range targets {
			fl := &r.flows[fi]
			fl.complained = true
			if m, ok := r.states[fl.dst].last[fl.srcEp]; ok && receipts[t] == nil {
				filed = append(filed, r.hosts[fl.dst].ComplainAsync(m))
				which = append(which, t)
			}
		}
		if len(filed) == 0 {
			break
		}
		r.verdict.ShutoffsFiled += len(filed)
		if err := r.in.AwaitAll(apna.Ops(filed...)...); err != nil && !errors.Is(err, apna.ErrTimeout) {
			return fmt.Errorf("complaint wave: %w", err)
		}
		for k, t := range which {
			switch rc, err := filed[k].Result(); {
			case err == nil && rc.Status.Stopped():
				receipts[t] = rc
				r.verdict.ShutoffsAccepted++
			case errors.Is(err, apna.ErrComplaintRejected):
				r.fail("complaint about flow %d rejected", targets[t])
			case err == nil:
				r.fail("complaint about flow %d answered %v", targets[t], rc.Status)
			}
		}
	}
	for t, fi := range targets {
		fl := &r.flows[fi]
		switch rc := receipts[t]; {
		case rc == nil:
			r.fail("complaint about flow %d never obtained a receipt", fi)
		case rc.Issuer != fl.srcEp.AID || rc.SrcEphID != fl.srcEp.EphID:
			r.fail("flow %d receipt from %v names %v, want %v", fi, rc.Issuer, rc.SrcEphID, fl.srcEp)
		case rc.Verify(r.in.Trust, r.in.Sim.NowUnix()) != nil:
			r.fail("flow %d receipt fails signature verification", fi)
		default:
			fl.revoked = true
			r.verdict.Revoked++
			if r.check != nil {
				r.check.RevokedAt(rc.SrcEphID, cmp.Or(r.revokedAt[rc.SrcEphID], r.in.Sim.Now()))
			}
		}
	}
	return nil
}

// attack makes every attacker probe the selected surfaces, replicating
// the E7 attack block: per-surface injections toward a rotating victim,
// optional on-path replay of captured traffic, post-shutoff
// transmissions from every stolen identity, and the third-party theft
// of a.StealFrom, after which the timeline settles and every stolen
// frame must have died on a remote revocation list.
func (r *runner) attack(a *ActionSpec) error {
	remoteBefore := r.dropped(border.VerdictDropRevokedRemote)
	wave := r.attackWave
	r.attackWave++
	replayed := 0
	for k, att := range r.attackers {
		dstHost := (k*7 + wave) % len(r.hosts)
		dst := r.serving(dstHost).Endpoint()
		aid := att.AS().AID
		otherAID := r.firstAID + apna.AID((int(aid-r.firstAID)+1)%r.nASes)

		for _, sf := range a.Surfaces {
			var err error
			r.expiredProbed = r.expiredProbed || sf == SurfaceExpired
			switch sf {
			case SurfaceForged:
				err = att.InjectForged(aid, dst)
			case SurfaceForeign:
				// A genuine EphID of another AS, claimed as this AS's own.
				foreign := r.byAS[int(otherAID-r.firstAID)][dstHost%r.perAS]
				err = att.InjectForeign(aid, r.states[foreign].ids[0].Cert.EphID, dst)
			case SurfaceSpoofed:
				err = att.InjectSpoofed(otherAID, dst, false)
			case SurfaceFramed:
				// Frame an honest neighbor in the attacker's own AS.
				victim := r.byAS[int(aid-r.firstAID)][wave%r.perAS]
				err = att.InjectFramed(r.states[victim].ids[0].Endpoint(), dst)
			case SurfaceExpired:
				// An expired identifier in the AS's genuine format.
				expired := r.in.AS(aid).Sealer().Mint(ephid.Payload{
					HID: 1, ExpTime: uint32(r.in.Now() - 10)})
				err = att.InjectExpired(apna.Endpoint{AID: aid, EphID: expired}, dst)
			}
			if err != nil {
				return err
			}
		}
		if a.Replay {
			// On-path replay of everything captured so far, injected at
			// the attacker AS's external interface.
			n, err := att.ReplayCaptured(apna.AttackReplay, true)
			if err != nil {
				return err
			}
			replayed += n
		}
		for ci, comp := range r.compromised {
			if err := att.InjectCompromised(apna.AttackPostShutoff, comp,
				r.compromisedDst[ci], []byte("still here")); err != nil {
				return err
			}
		}
		if a.StealFrom != nil {
			if err := r.stealThirdParty(att, a.StealFrom); err != nil {
				return err
			}
		}
	}
	if a.Replay && replayed == 0 {
		r.fail("attackers captured nothing to replay (wiretap ineffective)")
	}
	if a.StealFrom != nil {
		r.in.RunUntilIdle()
		if n := r.dropped(border.VerdictDropRevokedRemote) - remoteBefore; n < uint64(len(r.attackers)) {
			r.fail("remote revocation lists dropped %d frames after the theft, want >= %d stolen", n, len(r.attackers))
		}
	}
	return nil
}

// stealThirdParty steals the identity of the host t names, counted from
// the attacker's AS — its MAC key and its first flow's source EphID —
// and injects one validly MACed frame from it at the attacker's own
// border's external interface, toward the host of that flow's
// destination role in the attacker's AS. That border must already hold
// the stolen EphID on its remote revocation list: it is a third party,
// so only dissemination can have put it there.
func (r *runner) stealThirdParty(att *apna.Attacker, t *RoleTarget) error {
	own := int(att.AS().AID - r.firstAID)
	victim := r.hostAt(own+t.ASOffset, t.Role)
	fi := slices.IndexFunc(r.flows, func(fl runFlow) bool { return fl.src == victim })
	if fi < 0 {
		return fmt.Errorf("%s has no flow to steal", r.hosts[victim].Name)
	}
	fl := &r.flows[fi]
	if !att.AS().Router.RemoteRevoked().Contains(fl.srcEp.EphID) {
		r.fail("%v had not learned of %v's revocation when %s stole it", att.AS().AID, fl.srcEp, att.Name())
	}
	macKey := r.hosts[victim].Stack.Config().Keys.MAC
	comp, err := att.Compromise(macKey[:], fl.srcEp)
	if err != nil {
		return err
	}
	dst := r.serving(r.hostAt(own, r.role(fl.dst))).Endpoint()
	return att.InjectCompromisedExternal(apna.AttackPostShutoff, comp, dst, []byte("post-shutoff"))
}

// publish stands a service up on a host: a receive-only EphID
// registered in the host's AS zone plus a serving data EphID incoming
// connections migrate to (Section VII-A).
func (r *runner) publish(a *ActionSpec) error {
	h := r.in.Host(a.Host)
	life := a.LifetimeS
	if life == 0 {
		life = 24 * 3600
	}
	svc, err := h.NewEphID(apna.KindReceiveOnly, life)
	if err != nil {
		return err
	}
	serving, err := h.NewEphID(apna.KindData, life)
	if err != nil {
		return err
	}
	for i, hh := range r.hosts {
		if hh == h {
			r.states[i].ids = append(r.states[i].ids, serving)
		}
	}
	return h.PublishLocal(a.As, &svc.Cert)
}

// resolveOutcome checks one resolve action's result against its
// expectation once the phase has quiesced, optionally dialing the
// resolved certificate end to end.
func (r *runner) resolveOutcome(pr *pendingResolve) {
	a := pr.act
	crt, err := pr.p.Result()
	switch a.Expect {
	case "ok":
		if err != nil {
			r.fail("resolve %s from %s: %v", a.As, a.From, err)
			return
		}
		r.verdict.Resolved++
		if a.Dial {
			h := r.in.Host(a.From)
			id, err := h.NewEphID(apna.KindData, 900)
			if err == nil {
				_, err = h.Connect(id, crt, nil)
			}
			if err != nil {
				r.fail("dial resolved %s from %s: %v", a.As, a.From, err)
				return
			}
			r.verdict.ResolvedDials++
		}
	case "nxdomain":
		if !errors.Is(err, dns.ErrNXDomain) {
			r.fail("resolve %s from %s: want NXDOMAIN, got (%v, %v)", a.As, a.From, crt, err)
			return
		}
		r.verdict.Denied++
	}
}

// flashcrowd pushes the modeled population through the control-plane
// engines with the spec's arrival spike and folds the deterministic
// counters into the verdict.
func (r *runner) flashcrowd(a *ActionSpec) error {
	p := a.Population
	cfg := population.DefaultConfig()
	cfg.Hosts, cfg.Ticks, cfg.Workers = p.Hosts, p.Ticks, p.Workers
	cfg.Seed = r.spec.Seed
	cfg.FlashMult, cfg.FlashTick, cfg.FlashTicks = p.FlashMult, p.FlashTick, p.FlashTicks
	cfg.RecordTrace = true
	res, err := population.Run(cfg)
	if err != nil {
		return err
	}
	r.verdict.PopArrivals += res.Arrivals
	r.verdict.FlashArrivals += res.FlashArrivals
	r.verdict.PopTraceHash = res.TraceHash
	return nil
}

// complaintGates holds a complaining spec to what a cross-AS shutoff
// promises: exactly one revocation per target, no honest EphID on any
// border's local or remote list, the offenders' own AS dropping their
// later traffic, and every other flow that sent in the last wave still
// delivering.
func (r *runner) complaintGates() {
	v := r.verdict
	lastWave := r.sendWave - 1
	offenders := make(map[apna.EphID]bool)
	for fi, fl := range r.flows {
		if fl.complained || fl.revoked {
			offenders[fl.srcEp.EphID] = true
			continue
		}
		v.HonestDelivered += fl.delivered
		if fl.lastSent == lastWave && fl.lastDelivered < lastWave {
			r.fail("honest flow %d delivered nothing in the last wave", fi)
		}
	}
	falselyRevoked := 0
	for _, as := range r.in.ASes() {
		v.Revocations += as.Acct.Stats().Revocations
		for _, st := range r.states {
			for _, id := range st.ids {
				if e := id.Cert.EphID; !offenders[e] && (as.Router.Revoked().Contains(e) || as.Router.RemoteRevoked().Contains(e)) {
					falselyRevoked++
				}
			}
		}
	}
	if v.Revocations != uint64(r.complaintTargets) {
		r.fail("%d revocations executed for %d complaint targets (idempotency breach or missed shutoff)",
			v.Revocations, r.complaintTargets)
	}
	if falselyRevoked > 0 {
		r.fail("%d honest EphIDs on a revocation list", falselyRevoked)
	}
	if r.dropped(border.VerdictDropRevoked) == 0 {
		r.fail("no frame was dropped by a local revocation list (egress kill missing)")
	}
}

// disseminationGates counts the digest traffic and holds every AS that
// revoked to having its revocations installed at every other AS within
// the spec's dissemination bound.
func (r *runner) disseminationGates() {
	v := r.verdict
	ases := r.in.ASes()
	var slowest time.Duration
	for _, src := range ases {
		st := src.Acct.Stats()
		v.DigestsSent += st.DigestsSent
		v.DigestEntriesInstalled += st.EntriesInstalled
		revAt, revoked := r.asRevokedAt[src.AID]
		for _, at := range ases {
			if !revoked || at == src {
				continue
			}
			t, ok := r.installedAt[[2]apna.AID{src.AID, at.AID}]
			if !ok {
				r.fail("%v never installed %v's revocation digest", at.AID, src.AID)
				continue
			}
			slowest = max(slowest, t-revAt)
		}
	}
	v.DisseminationMaxMs = float64(slowest.Microseconds()) / 1e3
	if bound := r.spec.disseminationBound(); slowest > bound {
		r.fail("dissemination latency %v exceeds bound %v", slowest, bound)
	}
}

// lifecycleGates holds a spec with a lifetimes block to what the
// lifecycle engine promises: it renews and migrates, nothing is
// delivered from an expired or voluntarily revoked EphID, every flow
// delivers in every validity window of the run's data waves, a host
// that churns dials more flows than its pool holds, and the scheduled
// GC reaps what was voluntarily revoked.
func (r *runner) lifecycleGates() {
	v := r.verdict
	st := r.in.Lifecycle().Stats()
	v.Renewals, v.RenewalsFailed, v.Migrations = st.RenewalsCompleted, st.RenewalsFailed, st.MigrationsCompleted
	v.RevocationsReaped = st.RevocationsReaped
	if v.Renewals == 0 {
		r.fail("lifecycle engine completed no renewals")
	}
	if v.Migrations == 0 {
		r.fail("lifecycle engine migrated no flows")
	}
	if v.ExpiredAccepted > 0 {
		r.fail("%d deliveries from expired EphIDs", v.ExpiredAccepted)
	}
	if v.RevokedAccepted > 0 {
		r.fail("%d deliveries from revoked EphIDs", v.RevokedAccepted)
	}
	if n := len(r.waveWindow); n > 0 {
		for fi, fl := range r.flows {
			if !fl.established {
				r.fail("flow %d never established", fi)
				continue
			}
			for w := range r.waveWindow[n-1] + 1 {
				if w >= len(fl.windows) || fl.windows[w] == 0 {
					r.fail("flow %d delivered nothing in window %d", fi, w)
				}
			}
		}
	}
	for i, hs := range r.states {
		if hs.churned && hs.pooled <= len(hs.ids) {
			r.fail("%s dialed %d flows from a pool of %d", r.hosts[i].Name, hs.pooled, len(hs.ids))
		}
	}
	if len(r.voluntary) > 0 && v.RevocationsReaped == 0 {
		r.fail("scheduled GC reaped no revocation entries")
	}
}

// finish referees the invariants, folds in attacker and defense
// statistics, and evaluates the gates the actions imply and the bounds.
func (r *runner) finish() {
	v := r.verdict
	if len(r.attackers) > 0 {
		v.Attacks = make(map[string]uint64)
		v.Defenses = make(map[string]uint64)
		for _, att := range r.attackers {
			if r.check != nil {
				for _, inj := range att.Injections() {
					if inj.Kind.Fabricated() {
						r.check.ForgedInjected(inj.SrcEphID)
					}
				}
			}
			st := att.Stats()
			for _, k := range adversary.AllKinds {
				v.Attacks[k.String()] += st.Injected[k]
			}
		}
		for _, dv := range border.DropVerdicts() {
			if n := r.dropped(dv); n > 0 {
				v.Defenses[dv.String()] = n
			}
		}
		for _, h := range r.hosts {
			st := h.Stack.Stats()
			v.Defenses["host-drop-replay"] += st.DropReplay
			v.Defenses["host-drop-decrypt"] += st.DropDecrypt
			v.Defenses["host-drop-no-session"] += st.DropNoSession
			v.Defenses["host-drop-bad-handshake"] += st.DropBadHandshake
		}
	}

	ok := true
	if r.check != nil {
		rep, err := r.check.CheckSelected(r.spec.Invariants)
		if err != nil {
			// Unreachable: Validate vetted every name against the registry.
			panic(err)
		}
		v.Invariants = rep
		ok = ok && rep.OK
	}
	if r.complaintTargets > 0 {
		r.complaintGates()
	}
	if r.spec.Dissemination != nil {
		r.disseminationGates()
	}
	if r.spec.Lifetimes != nil {
		r.lifecycleGates()
	}
	if v.NoEphIDErrors > 0 {
		r.fail("%d pooled dials found no EphID (ErrNoEphID)", v.NoEphIDErrors)
	}
	if r.expiredProbed && r.dropped(border.VerdictDropExpired) == 0 {
		r.fail("no expired frame was dropped (expired probes ineffective)")
	}
	if b := r.spec.Bounds; b != nil {
		if b.MinFlows > 0 && v.Flows < b.MinFlows {
			r.fail("flows %d < min %d", v.Flows, b.MinFlows)
		}
		if b.MinDelivered > 0 && v.Delivered < b.MinDelivered {
			r.fail("delivered %d < min %d", v.Delivered, b.MinDelivered)
		}
		if b.MinRevoked > 0 && v.Revoked < b.MinRevoked {
			r.fail("revoked %d < min %d", v.Revoked, b.MinRevoked)
		}
		if b.MinResolved > 0 && v.Resolved < b.MinResolved {
			r.fail("resolved %d < min %d", v.Resolved, b.MinResolved)
		}
		if b.MinFlashArrivals > 0 && v.FlashArrivals < b.MinFlashArrivals {
			r.fail("flash arrivals %d < min %d", v.FlashArrivals, b.MinFlashArrivals)
		}
		if b.ShutoffsComplete {
			want := 0
			for _, ph := range r.spec.Phases {
				for _, a := range ph.Actions {
					if a.Op == OpShutoff {
						want += a.Count
					}
				}
			}
			if want > len(r.flows) {
				want = len(r.flows)
			}
			if v.ShutoffsFiled < want {
				r.fail("shutoffs filed %d < requested %d (evidence needs a data wave before the shutoff)", v.ShutoffsFiled, want)
			}
			if v.ShutoffsAccepted < v.ShutoffsFiled {
				r.fail("shutoffs accepted %d < filed %d", v.ShutoffsAccepted, v.ShutoffsFiled)
			}
		}
	}
	v.OK = ok && len(v.Failures) == 0
}
