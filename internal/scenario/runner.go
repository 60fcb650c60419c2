package scenario

import (
	"errors"
	"fmt"
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

// hostState is the per-host record: issued EphIDs in order, plus the
// latest delivered message per sending endpoint — the evidence a
// mid-flight shutoff presents.
type hostState struct {
	ids  []*apna.OwnedEphID
	last map[apna.Endpoint]apna.Message
}

// runFlow is one established (or attempted) flow.
type runFlow struct {
	src, dst    int
	srcEp       apna.Endpoint
	conn        *apna.Conn
	established bool
	revoked     bool
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

// runner executes one compiled spec.
type runner struct {
	spec     *Spec
	in       *apna.Internet
	firstAID apna.AID
	nASes    int

	hosts  []*apna.Host
	byAS   [][]int
	states []hostState
	flows  []runFlow

	attackers  []*apna.Attacker
	attackerAS map[int]bool // AS indices hosting an attacker

	check   *invariant.Checker
	verdict *Verdict

	sendWave   int
	attackWave int

	compromised    []*adversary.Compromised
	compromisedDst []apna.Endpoint
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
	for i, aid := range aids {
		names := make([]string, s.Topology.HostsPerAS)
		for j := range names {
			names[j] = hostName(i, j)
		}
		if len(names) > 0 {
			topo = append(topo, apna.WithHosts(aid, names...))
		}
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
		firstAID: aids[0], nASes: len(aids),
		attackerAS: make(map[int]bool),
	}
	r.hosts = in.Hosts()
	r.verdict.Hosts = len(r.hosts)

	if len(s.Invariants) > 0 {
		// Grace covers the longest chaotic delivery path, as in E7.
		maxLink := s.Topology.LinkLatency.D()
		if s.Topology.CoreLatency.D() > maxLink {
			maxLink = s.Topology.CoreLatency.D()
		}
		if c := s.Chaos; c != nil {
			maxLink += c.Jitter.D() + c.ReorderDelay.D()
		}
		r.check = invariant.New(in.Sim.Now, 3*maxLink+10*time.Millisecond)
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

// asIdx maps a host index to its AS's index in the topology.
func (r *runner) asIdx(hostIdx int) int {
	return int(r.hosts[hostIdx].AS().AID - r.firstAID)
}

// phase executes one phase: actions in order collecting async ops, one
// await, then the post-quiescence steps (shutoff ground truth, resolve
// expectations).
func (r *runner) phase(ph *PhaseSpec) error {
	var ops []apna.Op
	var resolves []pendingResolve
	var shutoffs []pendingShutoff
	for ai := range ph.Actions {
		a := &ph.Actions[ai]
		var err error
		switch a.Op {
		case OpIssue:
			err = r.issue(a, &ops)
		case OpDial:
			err = r.dial(a, &ops)
		case OpSend:
			r.send(&ops)
		case OpShutoff:
			sh := r.shutoff(a, &ops)
			shutoffs = append(shutoffs, sh)
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
	return nil
}

// issue requests a.PerHost fresh EphIDs on every host, all overlapping
// — the E6/E7 issuance wave.
func (r *runner) issue(a *ActionSpec, ops *[]apna.Op) error {
	pend := make([][]*apna.Pending[*apna.OwnedEphID], len(r.hosts))
	var all []apna.Op
	for i, h := range r.hosts {
		for f := 0; f < a.PerHost; f++ {
			p := h.NewEphIDAsync(apna.KindData, a.LifetimeS)
			pend[i] = append(pend[i], p)
			all = append(all, p)
		}
	}
	// Issuance completes within its own await so later actions in the
	// same phase (dials, sends) can use the identifiers.
	if err := r.in.AwaitAll(all...); err != nil {
		return fmt.Errorf("issuance wave: %w", err)
	}
	for i, h := range r.hosts {
		for _, p := range pend[i] {
			id, err := p.Result()
			if err != nil {
				return fmt.Errorf("issuance: %w", err)
			}
			r.states[i].ids = append(r.states[i].ids, id)
			if r.check != nil {
				r.check.Issued(h.AS().AID, id.Cert.EphID)
			}
		}
	}
	_ = ops
	return nil
}

// dial establishes FlowsPerHost flows per host, spread across the
// population with the E6/E7 round-robin so flows cross AS boundaries.
// Each host dials from its f-th EphID toward the peer's last issued
// EphID (the serving identifier).
func (r *runner) dial(a *ActionSpec, ops *[]apna.Op) error {
	hostsPerAS := r.spec.Topology.HostsPerAS
	var dials []*apna.Pending[*apna.Conn]
	firstFlow := len(r.flows)
	for i, h := range r.hosts {
		serving := len(r.states[i].ids) - 1
		for f := 0; f < a.FlowsPerHost; f++ {
			peer := (i + 1 + f*hostsPerAS) % len(r.hosts)
			if peer == i {
				peer = (i + 1) % len(r.hosts)
			}
			dialed := &r.states[peer].ids[serving].Cert
			p := h.ConnectAsync(r.states[i].ids[f], dialed, nil)
			dials = append(dials, p)
			r.flows = append(r.flows, runFlow{src: i, dst: peer, srcEp: r.states[i].ids[f].Endpoint()})
			if r.check != nil {
				r.check.Dialed(r.states[i].ids[f].Endpoint(),
					apna.Endpoint{AID: dialed.AID, EphID: dialed.EphID})
			}
		}
	}
	// The dial wave crosses chaotic links: lost handshakes surface as
	// ErrTimeout and the affected flows are set aside, as in E7.
	if err := r.in.AwaitAll(apna.Ops(dials...)...); err != nil && !errors.Is(err, apna.ErrTimeout) {
		return fmt.Errorf("handshake wave: %w", err)
	}
	for i := range dials {
		fl := &r.flows[firstFlow+i]
		if conn, err := dials[i].Result(); err == nil {
			fl.conn, fl.established = conn, true
			r.verdict.Flows++
		} else {
			r.verdict.FlowsFailed++
		}
	}
	_ = ops
	return nil
}

// send queues one data wave on every established flow.
func (r *runner) send(ops *[]apna.Op) {
	wave := r.sendWave
	r.sendWave++
	for fi := range r.flows {
		fl := &r.flows[fi]
		if !fl.established {
			continue
		}
		msg := fmt.Sprintf("flow %d wave %d", fi, wave)
		*ops = append(*ops, r.hosts[fl.src].SendAsync(fl.conn, []byte(msg)))
		r.verdict.MessagesSent++
	}
}

// shutoff files a.Count mid-flight revocations: each victim presents
// the evidence frame its stack retained for the offending flow. Target
// selection prefers flows sourced inside attacker ASes when requested
// (so post-shutoff compromise attacks have identities to steal).
func (r *runner) shutoff(a *ActionSpec, ops *[]apna.Op) pendingShutoff {
	var targets []int
	if a.PreferAttackerAS {
		for fi := range r.flows {
			if len(targets) < a.Count && r.flows[fi].established && r.attackerAS[r.asIdx(r.flows[fi].src)] {
				targets = append(targets, fi)
			}
		}
	}
	for fi := range r.flows {
		if len(targets) >= a.Count {
			break
		}
		if r.flows[fi].established && !contains(targets, fi) {
			targets = append(targets, fi)
		}
	}
	sh := pendingShutoff{act: a, targets: targets}
	for _, fi := range targets {
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
		for _, att := range r.attackers {
			if att.AS().AID != fl.srcEp.AID {
				continue
			}
			macKey := r.hosts[fl.src].Stack.Config().Keys.MAC
			comp, err := att.Compromise(macKey[:], fl.srcEp)
			if err != nil {
				continue
			}
			serving := len(r.states[fl.dst].ids) - 1
			r.compromisedDst = append(r.compromisedDst, r.states[fl.dst].ids[serving].Endpoint())
			r.compromised = append(r.compromised, comp)
			break
		}
	}
}

// attack makes every attacker probe the selected surfaces, replicating
// the E7 attack block: per-surface injections toward a rotating victim,
// optional on-path replay of captured traffic, and post-shutoff
// transmissions from every stolen identity.
func (r *runner) attack(a *ActionSpec) error {
	wave := r.attackWave
	r.attackWave++
	hostsPerAS := r.spec.Topology.HostsPerAS
	for k, att := range r.attackers {
		dstHost := (k*7 + wave) % len(r.hosts)
		serving := len(r.states[dstHost].ids) - 1
		dst := r.states[dstHost].ids[serving].Endpoint()
		aid := att.AS().AID
		otherAID := r.firstAID + apna.AID((int(aid-r.firstAID)+1)%r.nASes)

		for _, sf := range a.Surfaces {
			var err error
			switch sf {
			case SurfaceForged:
				err = att.InjectForged(aid, dst)
			case SurfaceForeign:
				// A genuine EphID of another AS, claimed as this AS's own.
				foreign := r.byAS[int(otherAID-r.firstAID)][dstHost%hostsPerAS]
				err = att.InjectForeign(aid, r.states[foreign].ids[0].Cert.EphID, dst)
			case SurfaceSpoofed:
				err = att.InjectSpoofed(otherAID, dst, false)
			case SurfaceFramed:
				// Frame an honest neighbor in the attacker's own AS.
				victim := r.byAS[int(aid-r.firstAID)][wave%hostsPerAS]
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
			if _, err := att.ReplayCaptured(apna.AttackReplay, true); err != nil {
				return err
			}
		}
		for ci, comp := range r.compromised {
			if err := att.InjectCompromised(apna.AttackPostShutoff, comp,
				r.compromisedDst[ci], []byte("still here")); err != nil {
				return err
			}
		}
	}
	return nil
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
			r.verdict.Failures = append(r.verdict.Failures,
				fmt.Sprintf("resolve %s from %s: %v", a.As, a.From, err))
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
				r.verdict.Failures = append(r.verdict.Failures,
					fmt.Sprintf("dial resolved %s from %s: %v", a.As, a.From, err))
				return
			}
			r.verdict.ResolvedDials++
		}
	case "nxdomain":
		if !errors.Is(err, dns.ErrNXDomain) {
			r.verdict.Failures = append(r.verdict.Failures,
				fmt.Sprintf("resolve %s from %s: want NXDOMAIN, got (%v, %v)", a.As, a.From, crt, err))
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

// finish referees the invariants, folds in attacker and defense
// statistics, and evaluates the bounds.
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
		for _, as := range r.in.ASes() {
			st := as.Router.Stats()
			for _, dv := range border.DropVerdicts() {
				if n := st.Get(dv); n > 0 {
					v.Defenses[dv.String()] += n
				}
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
	if b := r.spec.Bounds; b != nil {
		fail := func(format string, args ...any) {
			v.Failures = append(v.Failures, fmt.Sprintf(format, args...))
		}
		if b.MinFlows > 0 && v.Flows < b.MinFlows {
			fail("flows %d < min %d", v.Flows, b.MinFlows)
		}
		if b.MaxFlowsFailed > 0 && v.FlowsFailed > b.MaxFlowsFailed {
			fail("flows failed %d > max %d", v.FlowsFailed, b.MaxFlowsFailed)
		}
		if b.MinDelivered > 0 && v.Delivered < b.MinDelivered {
			fail("delivered %d < min %d", v.Delivered, b.MinDelivered)
		}
		if b.MinRevoked > 0 && v.Revoked < b.MinRevoked {
			fail("revoked %d < min %d", v.Revoked, b.MinRevoked)
		}
		if b.MinResolved > 0 && v.Resolved < b.MinResolved {
			fail("resolved %d < min %d", v.Resolved, b.MinResolved)
		}
		if b.MinFlashArrivals > 0 && v.FlashArrivals < b.MinFlashArrivals {
			fail("flash arrivals %d < min %d", v.FlashArrivals, b.MinFlashArrivals)
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
				fail("shutoffs filed %d < requested %d (evidence needs a data wave before the shutoff)", v.ShutoffsFiled, want)
			}
			if v.ShutoffsAccepted < v.ShutoffsFiled {
				fail("shutoffs accepted %d < filed %d", v.ShutoffsAccepted, v.ShutoffsFiled)
			}
		}
	}
	v.OK = ok && len(v.Failures) == 0
}

func contains(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}
