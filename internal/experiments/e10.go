package experiments

import (
	"fmt"
	"io"
	"time"

	"apna"
	"apna/internal/border"
	"apna/internal/ephid"
	"apna/internal/host"
	"apna/internal/invariant"
	"apna/internal/provenance"
	"apna/internal/wire"
)

// E10 is the internet-scale inter-domain accountability sweep: a full
// mesh of >= 8 ASes under chaos, where every AS hosts one server, one
// honest client and one misbehaving client attacking a server in a
// *different* AS. Victims complain to their own AS's accountability
// agent; the shutoff crosses the border AA-to-AA, the source AS
// answers with a signed receipt, and periodic revocation digests
// (deltas with anti-entropy snapshots) flood every agent so all
// borders drop the revoked senders —
// including validly-MACed post-shutoff frames injected on-path at
// third-party ASes that never saw the complaint. The gates: every
// cross-AS shutoff lands (receipt verified end-to-end), dissemination
// reaches every AS within a bounded delay, zero frames from a
// remotely-shutoff EphID are accepted at any border after that bound,
// and zero honest hosts are falsely revoked.

// E10Config sizes the inter-domain accountability scenario.
type E10Config struct {
	// ASes is the number of ASes, laid out as a full mesh (>= 8 for
	// the acceptance gate). Each AS hosts one server, one honest
	// client, and one misbehaving client.
	ASes int
	// LinkLatency is the one-way inter-AS latency.
	LinkLatency time.Duration
	// Chaos is applied to every inter-AS link — including the links the
	// AA-to-AA control plane itself rides.
	Chaos apna.ChaosConfig
	// DigestInterval is the revocation-digest dissemination cadence.
	DigestInterval time.Duration
	// SnapshotEvery is the anti-entropy cadence: every k-th digest flush
	// carries the full revocation set instead of a delta, which is what
	// repairs a delta lost to chaos when no later churn reveals the gap.
	SnapshotEvery int
	// EphIDLifetime is the client EphID validity in seconds. It is
	// deliberately much longer than the run: revocation, not expiry,
	// must be what stops the attackers.
	EphIDLifetime uint32
	// PostWaves is how many data waves follow the shutoffs (bad flows
	// probing their dead EphIDs, honest flows proving continuity).
	PostWaves int
	// Attackers is the number of on-path attackers replaying captured
	// traffic and injecting from stolen post-shutoff identities at
	// third-party borders.
	Attackers int
	// Seeds is the sweep; each seed runs an independent simulation.
	Seeds []int64
	// Debug dumps per-phase state to stdout.
	Debug bool
}

// DefaultE10 returns the standard inter-domain gate: 8 ASes, mild
// chaos, 10-second digests, 2 attackers.
func DefaultE10() E10Config {
	return E10Config{
		ASes:        8,
		LinkLatency: 10 * time.Millisecond,
		Chaos: apna.ChaosConfig{
			Loss:        0.005,
			Jitter:      2 * time.Millisecond,
			DupProb:     0.02,
			ReorderProb: 0.05, ReorderDelay: 3 * time.Millisecond,
		},
		DigestInterval: 10 * time.Second,
		SnapshotEvery:  2,
		EphIDLifetime:  3600,
		PostWaves:      2,
		Attackers:      2,
		Seeds:          []int64{1, 2, 3},
	}
}

// DisseminationBound is the latency budget within which a revocation
// must reach every AS: one interval to the first flush carrying the
// revocation (a delta), plus two full anti-entropy snapshot rounds
// (SnapshotEvery intervals apart) to ride out chaotic loss of both the
// delta and the first snapshot, plus propagation slack.
func (cfg E10Config) DisseminationBound() time.Duration {
	maxLink := cfg.LinkLatency + cfg.Chaos.Jitter + cfg.Chaos.ReorderDelay
	snap := cfg.SnapshotEvery
	if snap <= 0 {
		snap = 2
	}
	return time.Duration(1+2*snap)*cfg.DigestInterval + 10*maxLink
}

// E10Verdict is the JSON verdict of one seed's run.
type E10Verdict struct {
	Seed int64 `json:"seed"`
	// OK means every inter-domain gate held.
	OK   bool `json:"ok"`
	ASes int  `json:"ases"`
	// Complaints is the number of cross-AS complaints filed (with
	// retries); ReceiptsVerified counts receipts that passed end-to-end
	// signature verification against the source AS's RPKI key (only
	// receipts whose status stops the offender are kept at all).
	Complaints       int `json:"complaints"`
	ReceiptsVerified int `json:"receipts_verified"`
	// Revocations counts actual EphID revocations executed by source
	// engines — the gate demands exactly one per misbehaving client,
	// proving retries and replays stayed idempotent.
	Revocations uint64 `json:"revocations"`
	// FalseAccepts counts application deliveries from a revoked source
	// EphID after revocation + grace — must be 0.
	FalseAccepts int `json:"false_accepts"`
	// FalseRevocations counts honest EphIDs found on any AS's local or
	// remote revocation list — must be 0.
	FalseRevocations int `json:"false_revocations"`
	// InstallCoverageOK means every (source AS, other AS) pair saw the
	// revocation installed within the dissemination bound;
	// DisseminationMaxMs is the slowest observed install (virtual ms)
	// and DisseminationBoundMs the budget.
	InstallCoverageOK  bool    `json:"install_coverage_ok"`
	DisseminationMaxMs float64 `json:"dissemination_max_ms"`
	DisseminationBndMs float64 `json:"dissemination_bound_ms"`
	DigestsSent        uint64  `json:"digests_sent"`
	DigestsInstalled   uint64  `json:"digest_entries_installed"`
	// Border defenses: egress kills at the source AS and remote-list
	// kills at every other border.
	DropRevoked       uint64 `json:"drop_revoked"`
	DropRevokedRemote uint64 `json:"drop_revoked_remote"`
	// Attack pressure actually applied.
	ReplayedFrames        uint64 `json:"replayed_frames"`
	CompromisedInjections int    `json:"compromised_injections"`
	// HonestDelivered counts honest application deliveries;
	// HonestContinuityOK means every honest flow delivered in the final
	// post-attack wave.
	HonestDelivered    int  `json:"honest_delivered"`
	HonestContinuityOK bool `json:"honest_continuity_ok"`
	// Report is the paper-invariant referee's verdict (grace covers
	// in-flight frames at revocation time; dissemination is gated
	// separately above).
	Report *invariant.Report `json:"report"`
	Events uint64            `json:"events"`
	// Failures lists human-readable gate breaches.
	Failures []string `json:"failures,omitempty"`
}

// E10Result aggregates the sweep.
type E10Result struct {
	Config      E10Config
	Provenance  provenance.Block
	Verdicts    []E10Verdict
	OK          bool
	WallElapsed time.Duration
}

// RunE10 runs the inter-domain accountability sweep.
func RunE10(cfg E10Config) (*E10Result, error) {
	// >= 5 keeps the stolen-identity injection a genuinely third-party
	// probe: with fewer ASes, j = (k+3) mod n collapses onto the
	// attacker's own AS or the original victim, where the revocation is
	// known through the local list or the receipt rather than through
	// digest dissemination.
	if cfg.ASes < 5 {
		return nil, fmt.Errorf("experiments: e10 needs >= 5 ASes, got %d", cfg.ASes)
	}
	if cfg.DigestInterval <= 0 || cfg.PostWaves < 1 || cfg.EphIDLifetime == 0 {
		return nil, fmt.Errorf("experiments: e10 needs a digest interval, post waves and an EphID lifetime, got %+v", cfg)
	}
	if len(cfg.Seeds) == 0 {
		return nil, fmt.Errorf("experiments: e10 needs at least one seed")
	}
	start := time.Now() //apna:wallclock
	res := &E10Result{Config: cfg, Provenance: provenance.Collect(cfg.Seeds[0], cfg), OK: true}
	for _, seed := range cfg.Seeds {
		v, err := runE10Seed(cfg, seed)
		if err != nil {
			return nil, fmt.Errorf("experiments: seed %d: %w", seed, err)
		}
		res.OK = res.OK && v.OK
		res.Verdicts = append(res.Verdicts, *v)
	}
	res.WallElapsed = time.Since(start) //apna:wallclock
	return res, nil
}

func runE10Seed(cfg E10Config, seed int64) (*E10Verdict, error) {
	const firstAID = apna.AID(100)
	n := cfg.ASes
	aidOf := func(i int) apna.AID { return firstAID + apna.AID(((i%n)+n)%n) }
	// Traffic pattern: bad-i attacks the server one AS over, good-i
	// talks to the server two ASes over — so every AS is simultaneously
	// a source of abuse, a victim, and an uninvolved third party for
	// someone else's shutoff.
	victimOf := func(i int) int { return (i + 1) % n }
	peerOf := func(i int) int { return (i + 2) % n }

	topo := []apna.TopologyOption{
		apna.WithFullMesh(firstAID, n, cfg.LinkLatency),
		apna.WithChaos(cfg.Chaos),
		apna.WithDissemination(apna.Dissemination{
			Interval:      cfg.DigestInterval,
			Mode:          apna.DisseminateMesh,
			SnapshotEvery: cfg.SnapshotEvery,
		}),
	}
	for i := 0; i < n; i++ {
		topo = append(topo, apna.WithHosts(aidOf(i),
			fmt.Sprintf("srv-%02d", i), fmt.Sprintf("good-%02d", i), fmt.Sprintf("bad-%02d", i)))
	}
	for k := 0; k < cfg.Attackers; k++ {
		topo = append(topo, apna.WithAttacker(aidOf(k), fmt.Sprintf("mallory-%02d", k)))
	}
	in, err := apna.New(seed, topo...)
	if err != nil {
		return nil, err
	}

	verdict := &E10Verdict{Seed: seed, ASes: n}
	fail := func(format string, args ...any) {
		verdict.Failures = append(verdict.Failures, fmt.Sprintf(format, args...))
	}
	debugf := func(format string, args ...any) {
		if cfg.Debug {
			fmt.Printf("dbg t=%v "+format+"\n", append([]any{in.Sim.Now()}, args...)...)
		}
	}

	maxLink := cfg.LinkLatency + cfg.Chaos.Jitter + cfg.Chaos.ReorderDelay
	grace := 3*maxLink + 10*time.Millisecond
	bound := cfg.DisseminationBound()
	verdict.DisseminationBndMs = float64(bound.Microseconds()) / 1e3
	check := invariant.New(in.Sim.Now, grace)

	// Accountability-plane clocks: when each source AS revoked, and
	// when each other AS first installed that source's digest.
	revokedASAt := make(map[apna.AID]time.Duration)
	type installKey struct{ origin, at apna.AID }
	installAt := make(map[installKey]time.Duration)
	in.OnAccountability(func(ev apna.AcctEvent) {
		switch ev.Kind {
		case "shutoff":
			if ev.Status == apna.ShutoffRevoked {
				if _, dup := revokedASAt[ev.AID]; !dup {
					revokedASAt[ev.AID] = in.Sim.Now()
				}
			}
		case "digest-install":
			if ev.Entries > 0 {
				k := installKey{origin: ev.Peer, at: ev.AID}
				if _, dup := installAt[k]; !dup {
					installAt[k] = in.Sim.Now()
				}
			}
		}
	})

	servers := make([]*apna.Host, n)
	goods := make([]*apna.Host, n)
	bads := make([]*apna.Host, n)
	for i := 0; i < n; i++ {
		servers[i] = in.Host(fmt.Sprintf("srv-%02d", i))
		goods[i] = in.Host(fmt.Sprintf("good-%02d", i))
		bads[i] = in.Host(fmt.Sprintf("bad-%02d", i))
	}

	// Delivery bookkeeping. Bad payloads are tagged "b<idx>", honest
	// ones "g<idx> w<wave>"; the first bad message each victim sees is
	// the complaint evidence.
	waves := 1 + cfg.PostWaves + 1 // pre-shutoff, post-shutoff, post-attack
	goodDelivered := make([][]int, n)
	for i := range goodDelivered {
		goodDelivered[i] = make([]int, waves)
	}
	badEvidence := make([]*host.Message, n) // indexed by victim AS
	revokedEph := make(map[apna.EphID]bool)
	revokedEphAt := make(map[apna.EphID]time.Duration)
	for i := 0; i < n; i++ {
		i := i
		s := servers[i]
		s.Stack.OnMessage(func(m host.Message) {
			if revokedEph[m.Flow.Src.EphID] && in.Sim.Now() > revokedEphAt[m.Flow.Src.EphID]+grace {
				verdict.FalseAccepts++
			}
			var idx, w int
			if nn, _ := fmt.Sscanf(string(m.Payload), "b%d", &idx); nn == 1 {
				if badEvidence[i] == nil {
					mc := m
					badEvidence[i] = &mc
				}
			} else if nn, _ := fmt.Sscanf(string(m.Payload), "g%d w%d", &idx, &w); nn == 2 &&
				idx >= 0 && idx < n && w >= 0 && w < waves {
				verdict.HonestDelivered++
				goodDelivered[idx][w]++
			}
			check.Delivered(s.Name, m)
		})
		s.Stack.OnAccept(func(_ ephid.EphID, peer wire.Endpoint, addressed ephid.EphID) {
			check.Accepted(peer, wire.Endpoint{AID: s.AS().AID, EphID: addressed})
		})
	}

	// Attackers wiretap the link that carries "their" AS's attack flow,
	// so post-shutoff replays come from genuine captures.
	attackers := make([]*apna.Attacker, cfg.Attackers)
	for k := range attackers {
		attackers[k] = in.Attacker(fmt.Sprintf("mallory-%02d", k))
		if err := attackers[k].TapInterAS(aidOf(k), aidOf(k+1)); err != nil {
			return nil, err
		}
	}

	// Phase 1: issuance. Servers get long-lived serving EphIDs; clients
	// get EphIDs that outlive the whole run.
	noteIssued := func(h *apna.Host, c *apna.Cert) { check.Issued(h.AS().AID, c.EphID) }
	serverIDs := make([]*host.OwnedEphID, n)
	goodIDs := make([]*host.OwnedEphID, n)
	badIDs := make([]*host.OwnedEphID, n)
	{
		var ops []apna.Op
		var pend []*apna.Pending[*host.OwnedEphID]
		var into []**host.OwnedEphID
		var owner []*apna.Host
		add := func(h *apna.Host, life uint32, slot **host.OwnedEphID) {
			p := h.NewEphIDAsync(ephid.KindData, life)
			ops = append(ops, p)
			pend = append(pend, p)
			into = append(into, slot)
			owner = append(owner, h)
		}
		for i := 0; i < n; i++ {
			add(servers[i], 2*cfg.EphIDLifetime, &serverIDs[i])
			add(goods[i], cfg.EphIDLifetime, &goodIDs[i])
			add(bads[i], cfg.EphIDLifetime, &badIDs[i])
		}
		if err := in.AwaitAll(ops...); err != nil {
			return nil, fmt.Errorf("issuance wave: %w", err)
		}
		for j, p := range pend {
			id, err := p.Result()
			if err != nil {
				return nil, fmt.Errorf("issuance: %w", err)
			}
			*into[j] = id
			noteIssued(owner[j], &id.Cert)
		}
	}

	// Phase 2: handshakes, retried across chaos.
	goodConns := make([]*host.Conn, n)
	badConns := make([]*host.Conn, n)
	type pendDial struct {
		conn **host.Conn
		p    *apna.Pending[*host.Conn]
	}
	for attempt := 0; attempt < 6; attempt++ {
		var ops []apna.Op
		var pend []pendDial
		dial := func(h *apna.Host, id *host.OwnedEphID, srv int, slot **host.Conn) {
			if *slot != nil {
				return
			}
			sc := &serverIDs[srv].Cert
			check.Dialed(id.Endpoint(), apna.Endpoint{AID: sc.AID, EphID: sc.EphID})
			p := h.ConnectAsync(id, sc, nil)
			ops = append(ops, p)
			pend = append(pend, pendDial{conn: slot, p: p})
		}
		for i := 0; i < n; i++ {
			dial(goods[i], goodIDs[i], peerOf(i), &goodConns[i])
			dial(bads[i], badIDs[i], victimOf(i), &badConns[i])
		}
		if len(ops) == 0 {
			break
		}
		if err := in.AwaitAll(ops...); err != nil && err != apna.ErrTimeout {
			return nil, fmt.Errorf("handshake wave: %w", err)
		}
		for _, d := range pend {
			if conn, err := d.p.Result(); err == nil {
				*d.conn = conn
			}
		}
	}
	for i := 0; i < n; i++ {
		if goodConns[i] == nil {
			fail("honest flow %d never established", i)
		}
		if badConns[i] == nil {
			fail("attack flow %d never established", i)
		}
	}

	// sendWave pushes one tagged message per live flow (two for honest
	// flows, so single chaotic losses cannot break the continuity gate).
	sendWave := func(w int, includeBad bool) error {
		var ops []apna.Op
		for i := 0; i < n; i++ {
			if goodConns[i] != nil {
				for x := 0; x < 2; x++ {
					msg := fmt.Sprintf("g%d w%d x%d", i, w, x)
					ops = append(ops, goods[i].SendAsync(goodConns[i], []byte(msg)))
				}
			}
			if includeBad && badConns[i] != nil {
				ops = append(ops, bads[i].SendAsync(badConns[i], []byte(fmt.Sprintf("b%d w%d", i, w))))
			}
		}
		if err := in.AwaitAll(ops...); err != nil && err != apna.ErrTimeout {
			return err
		}
		return nil
	}

	// Phase 3: pre-shutoff traffic — repeated until every victim holds
	// evidence (chaos can eat a wave's bad message).
	for attempt := 0; attempt < 6; attempt++ {
		if err := sendWave(0, true); err != nil {
			return nil, fmt.Errorf("wave 0: %w", err)
		}
		missing := false
		for v := 0; v < n; v++ {
			if badEvidence[v] == nil && badConns[(v-1+n)%n] != nil {
				missing = true
			}
		}
		if !missing {
			break
		}
	}

	// Phase 4: cross-AS complaints, retried across chaos. Retries are
	// safe: the source engine answers an already-revoked EphID with a
	// no-op receipt and never double-strikes.
	receipts := make([]*apna.ShutoffReceipt, n) // indexed by victim AS
	for attempt := 0; attempt < 4; attempt++ {
		type pendComplaint struct {
			v int
			p *apna.Pending[*apna.ShutoffReceipt]
		}
		var ops []apna.Op
		var pend []pendComplaint
		for v := 0; v < n; v++ {
			if receipts[v] != nil || badEvidence[v] == nil {
				continue
			}
			p := servers[v].ComplainAsync(*badEvidence[v])
			verdict.Complaints++
			ops = append(ops, p)
			pend = append(pend, pendComplaint{v: v, p: p})
		}
		if len(ops) == 0 {
			break
		}
		if err := in.AwaitAll(ops...); err != nil && err != apna.ErrTimeout {
			return nil, fmt.Errorf("complaint wave: %w", err)
		}
		for _, d := range pend {
			switch r, err := d.p.Result(); {
			case err == nil && r.Status.Stopped():
				receipts[d.v] = r
			case err == apna.ErrComplaintRejected:
				fail("complaint from victim %d rejected", d.v)
			case err == nil:
				fail("complaint from victim %d answered %v", d.v, r.Status)
			}
		}
	}
	now := in.Sim.Now()
	for v := 0; v < n; v++ {
		r := receipts[v]
		if r == nil {
			fail("victim %d never obtained a receipt", v)
			continue
		}
		// End-to-end verification: the receipt must carry the *source*
		// AS's signature over the revoked EphID, checked against its
		// RPKI key (the facade verified it once; verify explicitly so
		// the gate cannot rot).
		src := (v - 1 + n) % n
		if r.Issuer != aidOf(src) {
			fail("victim %d receipt issued by %v, want %v", v, r.Issuer, aidOf(src))
			continue
		}
		if err := r.Verify(in.Trust, in.Sim.NowUnix()); err != nil {
			fail("victim %d receipt failed verification: %v", v, err)
			continue
		}
		verdict.ReceiptsVerified++
		e := r.SrcEphID
		revokedEph[e] = true
		at, ok := revokedASAt[aidOf(src)]
		if !ok {
			at = now
		}
		revokedEphAt[e] = at
		check.Revoked(e)
	}
	debugf("complaints done: %d receipts", verdict.ReceiptsVerified)

	// Phase 5: post-shutoff waves — bad flows probe their dead EphIDs
	// (killed at their own AS's egress), honest flows keep delivering.
	for w := 1; w <= cfg.PostWaves; w++ {
		if err := sendWave(w, true); err != nil {
			return nil, fmt.Errorf("post wave %d: %w", w, err)
		}
	}

	// Phase 6: dissemination. Sweep virtual time across the bound so
	// the digest timers fire and every AS installs every revocation.
	in.RunFor(bound)
	coverage := true
	var maxLat time.Duration
	for src := 0; src < n; src++ {
		revAt, ok := revokedASAt[aidOf(src)]
		if !ok {
			continue
		}
		for at := 0; at < n; at++ {
			if at == src {
				continue
			}
			t, ok := installAt[installKey{origin: aidOf(src), at: aidOf(at)}]
			if !ok {
				coverage = false
				fail("AS %v never installed AS %v's revocation digest", aidOf(at), aidOf(src))
				continue
			}
			if lat := t - revAt; lat > maxLat {
				maxLat = lat
			}
		}
	}
	verdict.InstallCoverageOK = coverage
	verdict.DisseminationMaxMs = float64(maxLat.Microseconds()) / 1e3
	if maxLat > bound {
		fail("dissemination latency %v exceeds bound %v", maxLat, bound)
	}

	// Phase 7: the post-dissemination attack wave. Attackers replay
	// everything captured (bit-exact, at their own border's external
	// interface) and inject fresh validly-MACed frames from stolen,
	// revoked identities toward servers in *third-party* ASes — frames
	// only the digest-fed remote revocation lists can stop.
	remoteBefore := uint64(0)
	for _, as := range in.ASes() {
		remoteBefore += as.Router.Stats().Get(border.VerdictDropRevokedRemote)
	}
	for k, att := range attackers {
		nRep, err := att.ReplayCaptured(apna.AttackPostShutoff, true)
		if err != nil {
			return nil, err
		}
		verdict.ReplayedFrames += uint64(nRep)
		// Steal an identity whose AS and victim are both far from this
		// attacker, so the injection lands at a border that learned the
		// revocation only through digest flooding.
		j := (k + 3) % n
		macKey := bads[j].Stack.Config().Keys.MAC
		comp, err := att.Compromise(macKey[:], badIDs[j].Endpoint())
		if err != nil {
			return nil, err
		}
		dst := serverIDs[k%n].Endpoint()
		if err := att.InjectCompromisedExternal(apna.AttackPostShutoff, comp, dst, []byte("post-shutoff")); err != nil {
			return nil, err
		}
		verdict.CompromisedInjections++
	}
	in.RunUntilIdle()
	remoteAfter := uint64(0)
	for _, as := range in.ASes() {
		remoteAfter += as.Router.Stats().Get(border.VerdictDropRevokedRemote)
	}

	// Phase 8: post-attack honest wave — continuity proof.
	if err := sendWave(waves-1, false); err != nil {
		return nil, fmt.Errorf("final wave: %w", err)
	}
	in.RunUntilIdle()

	// Verdict assembly and gates.
	for _, as := range in.ASes() {
		st := as.Router.Stats()
		verdict.DropRevoked += st.Get(border.VerdictDropRevoked)
		verdict.DropRevokedRemote += st.Get(border.VerdictDropRevokedRemote)
		acct := as.Acct.Stats()
		verdict.Revocations += acct.Revocations
		verdict.DigestsSent += acct.DigestsSent
		verdict.DigestsInstalled += acct.EntriesInstalled
	}
	// Zero false revocations: no honest EphID on any list, anywhere.
	for _, as := range in.ASes() {
		for i := 0; i < n; i++ {
			for _, id := range []*host.OwnedEphID{serverIDs[i], goodIDs[i]} {
				e := id.Cert.EphID
				if as.Router.Revoked().Contains(e) || as.Router.RemoteRevoked().Contains(e) {
					verdict.FalseRevocations++
				}
			}
		}
	}
	verdict.HonestContinuityOK = true
	for i := 0; i < n; i++ {
		if goodConns[i] == nil || goodDelivered[i][waves-1] == 0 {
			verdict.HonestContinuityOK = false
			fail("honest flow %d delivered nothing in the post-attack wave", i)
		}
	}
	verdict.Report = check.Check()
	verdict.Events = in.Sim.Events()

	if verdict.ReceiptsVerified != n {
		fail("%d of %d receipts verified end-to-end", verdict.ReceiptsVerified, n)
	}
	if verdict.Revocations != uint64(n) {
		fail("%d revocations executed, want exactly %d (idempotency breach or missed shutoff)", verdict.Revocations, n)
	}
	if verdict.FalseAccepts > 0 {
		fail("%d deliveries from revoked EphIDs after the bound", verdict.FalseAccepts)
	}
	if verdict.FalseRevocations > 0 {
		fail("%d honest EphIDs falsely revoked", verdict.FalseRevocations)
	}
	if verdict.DropRevoked == 0 {
		fail("no frame was dropped by a local revocation list (egress kill missing)")
	}
	if remoteAfter-remoteBefore < uint64(verdict.CompromisedInjections) {
		fail("remote revocation list dropped %d attack-wave frames, want >= %d compromised injections",
			remoteAfter-remoteBefore, verdict.CompromisedInjections)
	}
	if verdict.ReplayedFrames == 0 && cfg.Attackers > 0 {
		fail("attackers captured nothing to replay (wiretap ineffective)")
	}
	if !verdict.Report.OK {
		fail("paper invariant violations (see report)")
	}
	verdict.OK = len(verdict.Failures) == 0
	return verdict, nil
}

// Fprint renders the sweep summary.
func (r *E10Result) Fprint(w io.Writer) {
	c := r.Config
	fmt.Fprintf(w, "E10: inter-domain accountability sweep (%d seeds, %d-AS mesh, %v digests)\n",
		len(c.Seeds), c.ASes, c.DigestInterval)
	fmt.Fprintf(w, "  %-6s %-8s %-9s %-7s %-9s %-11s %-12s %-10s %s\n",
		"seed", "verdict", "receipts", "revocs", "dissem", "false-acc", "remote-drop", "replayed", "honest")
	for i := range r.Verdicts {
		v := &r.Verdicts[i]
		verdict := "PASS"
		if !v.OK {
			verdict = "FAIL"
		}
		fmt.Fprintf(w, "  %-6d %-8s %-9d %-7d %-9s %-11d %-12d %-10d %d\n",
			v.Seed, verdict, v.ReceiptsVerified, v.Revocations,
			fmt.Sprintf("%.0fms", v.DisseminationMaxMs), v.FalseAccepts,
			v.DropRevokedRemote, v.ReplayedFrames, v.HonestDelivered)
	}
	status := "every inter-domain gate held on every seed"
	if !r.OK {
		status = "INTER-DOMAIN GATE FAILURES — see JSON verdicts"
	}
	fmt.Fprintf(w, "  %s (%v wall)\n", status, r.WallElapsed.Round(time.Millisecond))
}

// FprintJSON emits the BENCH_e10.json artifact.
func (r *E10Result) FprintJSON(w io.Writer) error {
	return fprintJSONLines(w, "e10", r.Provenance, r.Verdicts)
}

// Report renders the sweep to w and returns whether every gate held.
func (r *E10Result) Report(w io.Writer, jsonOut bool) (bool, error) {
	return report(w, jsonOut, r.OK, r.Fprint, r.FprintJSON)
}
