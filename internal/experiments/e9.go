package experiments

import (
	"encoding/json"
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

// E9 is the lifecycle endurance scenario: long-lived concurrent flows
// that outlive their EphIDs' validity windows, plus a sequential churn
// of short flows that exceeds the pool size — all under chaotic links,
// with an attacker replaying captured (by then expired) traffic. The
// lifecycle engine (apna.WithLifetimes) must keep every flow alive
// across the expiry horizon: renew identifiers through the MS's
// rate-limited renewal path, migrate sessions onto successors, release
// and reap dead identifiers, and GC revocation state — with zero
// ErrNoEphID, zero deliveries from expired or revoked identifiers, and
// unbroken per-window flow continuity. It is the gate for every
// "heavy traffic over hours, not milliseconds" workload.

// E9Config sizes the lifecycle endurance scenario.
type E9Config struct {
	// ASes is the number of ASes, laid out as a full mesh. Each AS
	// hosts one server plus ClientsPerAS clients.
	ASes int
	// ClientsPerAS is the number of client hosts per AS.
	ClientsPerAS int
	// LongFlowsPerClient is how many long-lived connections each client
	// holds open across the whole run.
	LongFlowsPerClient int
	// PoolSize is how many per-flow EphIDs each client pre-issues; the
	// scenario's total flow count deliberately exceeds it.
	PoolSize int
	// SequentialPerWindow is how many short dial-send-close flows each
	// client runs per validity window (exercising Release and reuse).
	SequentialPerWindow int
	// EphIDLifetime is the client EphID validity in seconds — the
	// window the long flows must repeatedly outlive.
	EphIDLifetime uint32
	// Windows is how many validity windows the run crosses (>= 3 for
	// the acceptance gate).
	Windows int
	// WavesPerWindow is how many data waves each window carries.
	WavesPerWindow int
	// VoluntaryRevokes is how many released EphIDs are voluntarily
	// revoked (Section VIII-G2), seeding the revocation list the
	// scheduled GC must later reap.
	VoluntaryRevokes int
	// LinkLatency is the one-way inter-AS latency.
	LinkLatency time.Duration
	// Chaos is applied to every inter-AS link.
	Chaos apna.ChaosConfig
	// Attackers is the number of attackers replaying captured traffic.
	Attackers int
	// Lifetimes configures the lifecycle engine under test.
	Lifetimes apna.Lifetimes
	// Seeds is the sweep; each seed runs an independent simulation.
	Seeds []int64
	// Debug dumps per-wave flow state to stderr.
	Debug bool
}

// DefaultE9 returns the standard endurance gate: 3 ASes, 2 clients
// each, 4 windows of 2 minutes, mild chaos, 1 replaying attacker.
func DefaultE9() E9Config {
	return E9Config{
		ASes: 3, ClientsPerAS: 2, LongFlowsPerClient: 2,
		PoolSize: 4, SequentialPerWindow: 2,
		EphIDLifetime: 120, Windows: 4, WavesPerWindow: 3,
		VoluntaryRevokes: 2,
		LinkLatency:      10 * time.Millisecond,
		Chaos: apna.ChaosConfig{
			Loss:        0.005,
			Jitter:      2 * time.Millisecond,
			DupProb:     0.02,
			ReorderProb: 0.05, ReorderDelay: 3 * time.Millisecond,
		},
		Attackers: 1,
		Lifetimes: apna.Lifetimes{
			RenewLead:     30 * time.Second,
			CheckInterval: 5 * time.Second,
			GCInterval:    45 * time.Second,
			MigrateRetry:  2 * time.Second,
		},
		Seeds: []int64{1, 2, 3},
	}
}

// E9Verdict is the JSON verdict of one seed's endurance run.
type E9Verdict struct {
	Seed int64 `json:"seed"`
	// OK means every gate held: flows sustained, zero starvation, zero
	// expired/revoked acceptance, invariants clean.
	OK bool `json:"ok"`
	// PoolSize vs FlowsTotal proves the pool was outlived: FlowsTotal
	// counts distinct flow instances (long flows + sequential churn)
	// per client.
	PoolSize       int `json:"pool_size"`
	FlowsTotal     int `json:"flows_total_per_client"`
	WindowsCrossed int `json:"windows_crossed"`
	// NoEphIDErrors counts Acquire starvation events — the gate demands 0.
	NoEphIDErrors int `json:"no_ephid_errors"`
	// ExpiredAccepted / RevokedAccepted count deliveries from source
	// EphIDs past expiry (beyond 1s of clock-granularity grace) or
	// after revocation — both must be 0.
	ExpiredAccepted int `json:"expired_accepted"`
	RevokedAccepted int `json:"revoked_accepted"`
	// ContinuityOK means every long flow delivered data in every window.
	ContinuityOK bool `json:"continuity_ok"`
	// Renewals/Migrations/renewal throughput of the lifecycle engine.
	Renewals       uint64  `json:"renewals"`
	RenewalsFailed uint64  `json:"renewals_failed"`
	Migrations     uint64  `json:"migrations"`
	RenewalsPerSec float64 `json:"renewals_per_virtual_sec"`
	// GC reclaim counters.
	PoolReaped        uint64 `json:"pool_reaped"`
	Retired           uint64 `json:"retired"`
	RevocationsReaped uint64 `json:"revocations_reaped"`
	HostsReaped       uint64 `json:"hosts_reaped"`
	// Border defenses observed (attacker replays of expired traffic and
	// late frames land here).
	DropExpired uint64 `json:"drop_expired"`
	DropRevoked uint64 `json:"drop_revoked"`
	// ReplayedFrames is how many captured frames the attackers pushed
	// back into the network.
	ReplayedFrames uint64 `json:"replayed_frames"`
	// Delivered counts honest application-level deliveries.
	Delivered int `json:"delivered"`
	// Report is the paper-invariant referee's verdict.
	Report *invariant.Report `json:"report"`
	Events uint64            `json:"events"`
	// Failures lists human-readable gate breaches.
	Failures []string `json:"failures,omitempty"`
}

// E9Result aggregates the sweep.
type E9Result struct {
	Config      E9Config
	Provenance  provenance.Block
	Verdicts    []E9Verdict
	OK          bool
	WallElapsed time.Duration
}

// RunE9 runs the lifecycle endurance sweep.
func RunE9(cfg E9Config) (*E9Result, error) {
	if cfg.ASes < 2 || cfg.ClientsPerAS < 1 || cfg.LongFlowsPerClient < 1 ||
		cfg.PoolSize < cfg.LongFlowsPerClient || cfg.Windows < 1 || cfg.WavesPerWindow < 1 {
		return nil, fmt.Errorf("experiments: e9 needs >=2 ASes, >=1 client/flow, pool >= long flows, >=1 window and wave, got %+v", cfg)
	}
	if len(cfg.Seeds) == 0 {
		return nil, fmt.Errorf("experiments: e9 needs at least one seed")
	}
	start := time.Now() //apna:wallclock
	res := &E9Result{Config: cfg, Provenance: provenance.Collect(cfg.Seeds[0], cfg), OK: true}
	for _, seed := range cfg.Seeds {
		v, err := runE9Seed(cfg, seed)
		if err != nil {
			return nil, fmt.Errorf("experiments: seed %d: %w", seed, err)
		}
		res.OK = res.OK && v.OK
		res.Verdicts = append(res.Verdicts, *v)
	}
	res.WallElapsed = time.Since(start) //apna:wallclock
	return res, nil
}

// e9Flow is one long-lived flow under lifecycle pressure.
type e9Flow struct {
	client int // index into clients
	conn   *host.Conn
}

func runE9Seed(cfg E9Config, seed int64) (*E9Verdict, error) {
	const firstAID = apna.AID(100)
	lt := cfg.Lifetimes
	if lt.RenewLifetime == 0 {
		lt.RenewLifetime = cfg.EphIDLifetime
	}
	topo := []apna.TopologyOption{
		apna.WithFullMesh(firstAID, cfg.ASes, cfg.LinkLatency),
		apna.WithChaos(cfg.Chaos),
		apna.WithLifetimes(lt),
	}
	var clientNames []string
	for i := 0; i < cfg.ASes; i++ {
		names := []string{fmt.Sprintf("srv-%02d", i)}
		for j := 0; j < cfg.ClientsPerAS; j++ {
			name := fmt.Sprintf("cli-%02d-%02d", i, j)
			names = append(names, name)
			clientNames = append(clientNames, name)
		}
		topo = append(topo, apna.WithHosts(firstAID+apna.AID(i), names...))
	}
	for k := 0; k < cfg.Attackers; k++ {
		topo = append(topo, apna.WithAttacker(firstAID+apna.AID(k%cfg.ASes), fmt.Sprintf("mallory-%02d", k)))
	}
	in, err := apna.New(seed, topo...)
	if err != nil {
		return nil, err
	}

	verdict := &E9Verdict{Seed: seed, PoolSize: cfg.PoolSize, WindowsCrossed: cfg.Windows}
	fail := func(format string, args ...any) {
		verdict.Failures = append(verdict.Failures, fmt.Sprintf(format, args...))
	}

	// The referee. Grace covers the longest chaotic path plus the 1s
	// clock granularity of Unix-second expiry times.
	maxLink := cfg.LinkLatency + cfg.Chaos.Jitter + cfg.Chaos.ReorderDelay
	check := invariant.New(in.Sim.Now, 3*maxLink+10*time.Millisecond)

	servers := make([]*apna.Host, cfg.ASes)
	for i := 0; i < cfg.ASes; i++ {
		servers[i] = in.Host(fmt.Sprintf("srv-%02d", i))
	}
	clients := make([]*apna.Host, len(clientNames))
	for i, name := range clientNames {
		clients[i] = in.Host(name)
	}
	// Each client talks to one fixed server in the next AS over, so a
	// released EphID re-dialed later always targets the same peer and
	// per-flow unlinkability is judged fairly.
	serverOf := func(ci int) int { return (int(clients[ci].AS().AID-firstAID) + 1) % cfg.ASes }

	// Expiry and revocation bookkeeping for the acceptance gates.
	expOf := make(map[apna.EphID]uint32)
	revoked := make(map[apna.EphID]bool)
	noteIssued := func(h *apna.Host, c *apna.Cert) {
		expOf[c.EphID] = c.ExpTime
		check.Issued(h.AS().AID, c.EphID)
	}

	// Per-logical-flow, per-window delivery counts, attributed through
	// the payload tag (source EphIDs change across migrations, payloads
	// do not).
	delivered := make([][]int, 0)
	onDeliver := func(m host.Message) {
		verdict.Delivered++
		now := in.Now()
		if exp, ok := expOf[m.Flow.Src.EphID]; ok && now > int64(exp)+1 {
			verdict.ExpiredAccepted++
		}
		if revoked[m.Flow.Src.EphID] {
			verdict.RevokedAccepted++
		}
		var flowID, window int
		if n, _ := fmt.Sscanf(string(m.Payload), "f%d w%d", &flowID, &window); n == 2 &&
			flowID >= 0 && flowID < len(delivered) && window >= 0 && window < cfg.Windows {
			delivered[flowID][window]++
		}
	}
	for _, h := range servers {
		h := h
		h.Stack.OnMessage(func(m host.Message) {
			onDeliver(m)
			check.Delivered(h.Name, m)
		})
		h.Stack.OnAccept(func(_ ephid.EphID, peer wire.Endpoint, addressed ephid.EphID) {
			check.Accepted(peer, wire.Endpoint{AID: h.AS().AID, EphID: addressed})
		})
	}

	// The lifecycle engine's observer feeds renewals and migration
	// dials to the referee, so migrated flows stay attributable and
	// their re-handshakes are not mistaken for replays.
	in.Lifecycle().SetObserver(func(ev apna.LifecycleEvent) {
		if cfg.Debug {
			fmt.Printf("dbg t=%v lifecycle %v host=%s\n", in.Sim.Now(), ev, ev.Host.Name)
		}
		switch ev.Kind {
		case "renewed":
			noteIssued(ev.Host, &ev.New.Cert)
		case "migrate-dial":
			check.Dialed(ev.New.Endpoint(), ev.Peer)
		}
	})

	attackers := make([]*apna.Attacker, cfg.Attackers)
	for k := range attackers {
		attackers[k] = in.Attacker(fmt.Sprintf("mallory-%02d", k))
		aid := attackers[k].AS().AID
		other := firstAID
		if other == aid {
			other++
		}
		if err := attackers[k].TapInterAS(aid, other); err != nil {
			return nil, err
		}
	}

	// Phase 1: issuance. Servers mint one long-lived serving EphID
	// (they must stay dialable across every window); clients pre-issue
	// their fixed-size per-flow pools with the short lifetime under
	// test.
	serverLife := uint32(cfg.Windows+1) * cfg.EphIDLifetime
	if serverLife < 3600 {
		serverLife = 3600
	}
	serverIDs := make([]*host.OwnedEphID, cfg.ASes)
	var issue []*apna.Pending[*host.OwnedEphID]
	for _, s := range servers {
		issue = append(issue, s.NewEphIDAsync(ephid.KindData, serverLife))
	}
	pools := make([][]*apna.Pending[*host.OwnedEphID], len(clients))
	for i, c := range clients {
		for f := 0; f < cfg.PoolSize; f++ {
			p := c.NewEphIDAsync(ephid.KindData, cfg.EphIDLifetime)
			pools[i] = append(pools[i], p)
			issue = append(issue, p)
		}
	}
	if err := in.AwaitAll(apna.Ops(issue...)...); err != nil {
		return nil, fmt.Errorf("issuance wave: %w", err)
	}
	for i, s := range servers {
		id, err := issue[i].Result()
		if err != nil {
			return nil, fmt.Errorf("server issuance: %w", err)
		}
		serverIDs[i] = id
		noteIssued(s, &id.Cert)
	}
	for i, c := range clients {
		for _, p := range pools[i] {
			id, err := p.Result()
			if err != nil {
				return nil, fmt.Errorf("client issuance: %w", err)
			}
			noteIssued(c, &id.Cert)
		}
	}

	// Phase 2: long-lived flows. Dials retry across chaos — continuity
	// is a gate here, unlike E7's best-effort flows. Identifiers of
	// dials that time out go straight back to the pool.
	var flows []e9Flow
	for ci := range clients {
		for f := 0; f < cfg.LongFlowsPerClient; f++ {
			flows = append(flows, e9Flow{client: ci})
			delivered = append(delivered, make([]int, cfg.Windows))
		}
	}
	acquire := func(ci int) *host.OwnedEphID {
		id, err := clients[ci].Stack.Acquire(host.PerFlow, "")
		if err != nil {
			verdict.NoEphIDErrors++
			return nil
		}
		return id
	}
	dialServer := func(ci int) (*host.OwnedEphID, *apna.Pending[*host.Conn]) {
		id := acquire(ci)
		if id == nil {
			return nil, nil
		}
		sc := &serverIDs[serverOf(ci)].Cert
		check.Dialed(id.Endpoint(), apna.Endpoint{AID: sc.AID, EphID: sc.EphID})
		return id, clients[ci].ConnectAsync(id, sc, nil)
	}
	type pendDial struct {
		fi, ci int
		id     *host.OwnedEphID
		p      *apna.Pending[*host.Conn]
		conn   *host.Conn
	}
	for attempt := 0; attempt < 6; attempt++ {
		var ops []apna.Op
		var pend []pendDial
		for fi := range flows {
			if flows[fi].conn != nil {
				continue
			}
			ci := flows[fi].client
			id, p := dialServer(ci)
			if p == nil {
				continue
			}
			pend = append(pend, pendDial{fi: fi, ci: ci, id: id, p: p})
			ops = append(ops, p)
		}
		if len(ops) == 0 {
			break
		}
		if err := in.AwaitAll(ops...); err != nil && err != apna.ErrTimeout {
			return nil, fmt.Errorf("handshake wave: %w", err)
		}
		for _, d := range pend {
			if conn, err := d.p.Result(); err == nil {
				flows[d.fi].conn = conn
			} else {
				// A timed-out AwaitAll means the timeline drained, so
				// the dial record was already abandoned (AbortDial) at
				// quiescence — releasing the identifier for the retry
				// cannot leave a stale record to claim a later ack.
				clients[d.ci].Stack.Release(d.id)
			}
		}
	}
	for fi := range flows {
		if flows[fi].conn == nil {
			fail("long flow %d never established", fi)
		}
	}

	// Phase 3: the endurance loop. Each window carries WavesPerWindow
	// data waves on the long flows, a sequential dial-send-close churn,
	// and — from the second window on — an attacker wave replaying
	// everything captured so far, whose source (and destination) EphIDs
	// are by then expired. Between waves the clock advances through the
	// window, so renewals and migrations fire mid-traffic exactly as
	// the engine schedules them.
	windowDur := time.Duration(cfg.EphIDLifetime) * time.Second
	waveStep := windowDur / time.Duration(cfg.WavesPerWindow)
	voluntary := 0
	seqTotal := 0
	for w := 0; w < cfg.Windows; w++ {
		for wave := 0; wave < cfg.WavesPerWindow; wave++ {
			var ops []apna.Op
			for fi, fl := range flows {
				if fl.conn == nil {
					continue
				}
				msg := fmt.Sprintf("f%d w%d x%d", fi, w, wave)
				ops = append(ops, clients[fl.client].SendAsync(fl.conn, []byte(msg)))
			}

			// Sequential churn: dial, deliver one message, close.
			// Across the run each client opens far more of these than
			// its pool holds — Release is what keeps Acquire fed.
			var seq []pendDial
			if wave < cfg.SequentialPerWindow {
				for ci := range clients {
					id, p := dialServer(ci)
					if p == nil {
						continue
					}
					seq = append(seq, pendDial{ci: ci, id: id, p: p})
					ops = append(ops, p)
				}
			}

			// Attack wave at each window boundary: replayed frames face
			// the border's expiry checks (dst ingress, src egress) and
			// the hosts' replay windows; the freshly minted expired
			// identifier probes the egress drop-expired path directly.
			if wave == 0 && w > 0 {
				for k, att := range attackers {
					n, err := att.ReplayCaptured(apna.AttackReplay, true)
					if err != nil {
						return nil, err
					}
					verdict.ReplayedFrames += uint64(n)
					aid := att.AS().AID
					expired := in.AS(aid).Sealer().Mint(ephid.Payload{
						HID: 1, ExpTime: uint32(in.Now() - 10)})
					dst := serverIDs[(k+w)%cfg.ASes].Endpoint()
					if err := att.InjectExpired(apna.Endpoint{AID: aid, EphID: expired}, dst); err != nil {
						return nil, err
					}
				}
			}

			if err := in.AwaitAll(ops...); err != nil && err != apna.ErrTimeout {
				return nil, fmt.Errorf("window %d wave %d: %w", w, wave, err)
			}

			// Finish the sequential flows: one message through, then
			// teardown. Dials chaos ate release their identifier
			// unused.
			var sends []apna.Op
			var open []pendDial
			for _, s := range seq {
				conn, err := s.p.Result()
				if err != nil {
					clients[s.ci].Stack.Release(s.id)
					continue
				}
				s.conn = conn
				open = append(open, s)
				sends = append(sends, clients[s.ci].SendAsync(conn, []byte(fmt.Sprintf("sq %d", seqTotal))))
				seqTotal++
			}
			if len(sends) > 0 {
				if err := in.AwaitAll(sends...); err != nil && err != apna.ErrTimeout {
					return nil, fmt.Errorf("window %d wave %d seq sends: %w", w, wave, err)
				}
			}
			for _, s := range open {
				s.conn.Close()
				if voluntary < cfg.VoluntaryRevokes && w == 0 {
					// Voluntarily revoke the no-longer-needed identifier
					// (Section VIII-G2) — seeding the revocation list the
					// scheduled GC must reap once the EphID expires.
					as := clients[s.ci].AS()
					if err := as.Agent.RevokeVoluntary(clients[s.ci].HID(), s.id.Cert.EphID); err == nil {
						revoked[s.id.Cert.EphID] = true
						check.Revoked(s.id.Cert.EphID)
						clients[s.ci].Stack.Retire(s.id)
						voluntary++
					}
				}
			}

			if cfg.Debug {
				for fi, fl := range flows {
					if fl.conn == nil {
						continue
					}
					fmt.Printf("dbg t=%v w%d x%d flow%d local=%v est=%v migr=%v served=%d\n",
						in.Sim.Now(), w, wave, fi, fl.conn.Local().Cert.EphID,
						fl.conn.Established(), fl.conn.Migrating(), delivered[fi][w])
				}
			}
			// Advance through the window slice; the lifecycle timers
			// fire inside this sweep.
			in.RunFor(waveStep)
		}
	}
	// One extra quiet window so the last revocation entries expire and
	// the GC timer sweeps them.
	in.RunFor(windowDur)
	in.RunUntilIdle()

	// Verdict assembly and gates.
	lcStats := in.Lifecycle().Stats()
	verdict.Renewals = lcStats.RenewalsCompleted
	verdict.RenewalsFailed = lcStats.RenewalsFailed
	verdict.Migrations = lcStats.MigrationsCompleted
	verdict.PoolReaped = lcStats.PoolReaped
	verdict.Retired = lcStats.Retired
	verdict.RevocationsReaped = lcStats.RevocationsReaped
	verdict.HostsReaped = lcStats.HostsReaped
	for _, as := range in.ASes() {
		st := as.Router.Stats()
		verdict.DropExpired += st.Get(border.VerdictDropExpired)
		verdict.DropRevoked += st.Get(border.VerdictDropRevoked)
	}
	if virtual := in.Sim.Now().Seconds(); virtual > 0 {
		verdict.RenewalsPerSec = float64(verdict.Renewals) / virtual
	}
	// Sequential churn runs on the first min(SequentialPerWindow,
	// WavesPerWindow) waves of each window — count what actually ran,
	// not the configured ask, so the pool-exceeded gate cannot pass on
	// flows that never existed.
	seqPerWindow := cfg.SequentialPerWindow
	if seqPerWindow > cfg.WavesPerWindow {
		seqPerWindow = cfg.WavesPerWindow
	}
	verdict.FlowsTotal = cfg.LongFlowsPerClient + seqPerWindow*cfg.Windows
	verdict.ContinuityOK = true
	for fi := range flows {
		if flows[fi].conn == nil {
			verdict.ContinuityOK = false
			continue
		}
		for w := 0; w < cfg.Windows; w++ {
			if delivered[fi][w] == 0 {
				verdict.ContinuityOK = false
				fail("flow %d delivered nothing in window %d", fi, w)
			}
		}
	}
	verdict.Report = check.Check()
	verdict.Events = in.Sim.Events()

	if verdict.NoEphIDErrors > 0 {
		fail("%d ErrNoEphID starvation events", verdict.NoEphIDErrors)
	}
	if verdict.ExpiredAccepted > 0 {
		fail("%d deliveries from expired EphIDs", verdict.ExpiredAccepted)
	}
	if verdict.RevokedAccepted > 0 {
		fail("%d deliveries from revoked EphIDs", verdict.RevokedAccepted)
	}
	if verdict.FlowsTotal <= cfg.PoolSize {
		fail("flow count %d does not exceed pool size %d", verdict.FlowsTotal, cfg.PoolSize)
	}
	if verdict.Renewals == 0 {
		fail("lifecycle engine completed no renewals")
	}
	if verdict.Migrations == 0 {
		fail("lifecycle engine migrated no flows")
	}
	if verdict.DropExpired == 0 {
		fail("no expired frame was ever dropped (attack wave ineffective)")
	}
	if verdict.RevocationsReaped == 0 && cfg.VoluntaryRevokes > 0 {
		fail("scheduled GC reaped no revocation entries")
	}
	if !verdict.Report.OK {
		fail("paper invariant violations (see report)")
	}
	verdict.OK = len(verdict.Failures) == 0
	return verdict, nil
}

// Fprint renders the sweep summary.
func (r *E9Result) Fprint(w io.Writer) {
	c := r.Config
	fmt.Fprintf(w, "E9: lifecycle endurance sweep (%d seeds, %d windows x %ds EphIDs, pool %d)\n",
		len(c.Seeds), c.Windows, c.EphIDLifetime, c.PoolSize)
	fmt.Fprintf(w, "  %-6s %-8s %-7s %-9s %-7s %-7s %-11s %-9s %s\n",
		"seed", "verdict", "flows", "renewals", "migr", "noephid", "expired-acc", "delivered", "gc(rev/pool)")
	for i := range r.Verdicts {
		v := &r.Verdicts[i]
		verdict := "PASS"
		if !v.OK {
			verdict = "FAIL"
		}
		fmt.Fprintf(w, "  %-6d %-8s %-7d %-9d %-7d %-7d %-11d %-9d %d/%d\n",
			v.Seed, verdict, v.FlowsTotal, v.Renewals, v.Migrations,
			v.NoEphIDErrors, v.ExpiredAccepted, v.Delivered,
			v.RevocationsReaped, v.PoolReaped)
	}
	status := "every lifecycle gate held on every seed"
	if !r.OK {
		status = "LIFECYCLE GATE FAILURES — see JSON verdicts"
	}
	fmt.Fprintf(w, "  %s (%v wall)\n", status, r.WallElapsed.Round(time.Millisecond))
}

// FprintJSON emits the BENCH_e9.json artifact: a provenance header
// line followed by one JSON verdict per seed, one per line, keeping the
// artifact valid JSON-lines.
func (r *E9Result) FprintJSON(w io.Writer) error {
	header, err := json.Marshal(struct {
		Experiment string           `json:"experiment"`
		Provenance provenance.Block `json:"provenance"`
	}{"e9", r.Provenance})
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s\n", header); err != nil {
		return err
	}
	for i := range r.Verdicts {
		raw, err := json.Marshal(&r.Verdicts[i])
		if err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s\n", raw); err != nil {
			return err
		}
	}
	return nil
}

// Report renders the sweep to w and returns whether every gate held
// on every seed.
func (r *E9Result) Report(w io.Writer, jsonOut bool) (bool, error) {
	return report(w, jsonOut, r.OK, r.Fprint, r.FprintJSON)
}

// SeedSweep expands a base seed into a sweep of n consecutive seeds
// (base, base+1, ...); n is clamped to at least 1.
func SeedSweep(base int64, n int) []int64 {
	if n < 1 {
		n = 1
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = base + int64(i)
	}
	return out
}

// report is the body of every gated result's Report: the JSON artifact
// alone when jsonOut (so `-json > BENCH_eN.json` stays clean), the
// human table otherwise.
func report(w io.Writer, jsonOut, ok bool, table func(io.Writer), artifact func(io.Writer) error) (bool, error) {
	if jsonOut {
		return ok, artifact(w)
	}
	table(w)
	return ok, nil
}

// fprintObject adapts a single-object JSON renderer (E11, E12) to
// report's artifact form: the object and a trailing newline.
func fprintObject(render func() ([]byte, error)) func(io.Writer) error {
	return func(w io.Writer) error {
		raw, err := render()
		if err != nil {
			return err
		}
		_, err = fmt.Fprintln(w, string(raw))
		return err
	}
}
