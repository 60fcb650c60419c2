package experiments

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"time"

	"apna"
	"apna/internal/accountability"
	"apna/internal/crypto"
	"apna/internal/ephid"
	"apna/internal/netsim"
	"apna/internal/provenance"
	"apna/internal/wire"
)

// E12 — thousand-AS revocation-digest dissemination sweep.
//
// The paper disseminates revocations by having every AS flood its
// cumulative digest to every other AS each interval: O(N²) messages and
// bytes proportional to the total revocation backlog, every interval,
// forever. PR 8 replaces that with delta digests over a bounded-fan-out
// relay overlay; E12 is the experiment that proves the complexity claim
// at scale and gates it in CI.
//
// It builds the accountability engines directly — no hosts, no border
// routers, no EphID issuance — because dissemination cost is a property
// of the digest plane alone. Each AS is an engine with its own Ed25519
// key, a synthetic trust store, and a lightweight RemoteSink recording
// installs; the transport is a seeded discrete-event simulator applying
// per-message latency and (where configured) loss. Three phases:
//
//  1. Relay at full scale (default 1000 ASes, clean links): messages
//     per interval must stay ≤ max-degree × N (vs the N(N−1) mesh
//     projection reported alongside), steady-state delta bytes must be
//     an order of magnitude below the snapshot sync, marker
//     revocations must install everywhere within the depth × interval
//     bound, and no sink may ever install an (EphID, origin) pair that
//     was never revoked.
//  2. Mesh reference (small N, every AS an origin): the deterministic
//     conformance baseline — measured messages must equal
//     activeOrigins × (N−1) exactly, which anchors the analytic
//     N(N−1) projection the relay phase is compared against.
//  3. Equivalence under loss (small N, both modes, lossy links):
//     mesh and relay worlds run the same churn schedule with the same
//     EphIDs; both must converge to the identical remote-revocation
//     sets — the ground truth minus each AS's own entries — within a
//     bounded number of anti-entropy rounds.

// E12Config parameterises the dissemination sweep. The AS graph is the
// facade's (apna.WithASGraph, laid out by apna.Layout): a clique of
// core ASes, mid-tier ASes each homed to ProvidersPerAS cores
// (round-robin), stubs each homed to ProvidersPerAS mids.
type E12Config struct {
	// Seed drives key generation order, loss, and nothing else — the
	// schedule itself is deterministic.
	Seed int64 `json:"seed"`

	// Core, Mid, Stubs size the relay-phase AS graph.
	Core  int `json:"core"`
	Mid   int `json:"mid"`
	Stubs int `json:"stubs"`
	// ProvidersPerAS is the multihoming degree (default 2).
	ProvidersPerAS int `json:"providers_per_as"`

	// Interval is the digest flush cadence; LinkLatency the one-way
	// overlay link latency.
	Interval    time.Duration `json:"interval_ns"`
	LinkLatency time.Duration `json:"link_latency_ns"`

	// SnapshotEvery is the relay phase's anti-entropy cadence. It is
	// set above Ticks by default so the measured steady state is
	// delta-only after the initial seq-1 snapshot sync.
	SnapshotEvery int `json:"snapshot_every"`
	// Ticks is the number of measured flush intervals.
	Ticks int `json:"ticks"`

	// ActiveOrigins ASes (spread across the tiers) carry revocation
	// state: Backlog pre-existing entries each, plus ChurnPerTick new
	// entries per interval.
	ActiveOrigins int `json:"active_origins"`
	Backlog       int `json:"backlog"`
	ChurnPerTick  int `json:"churn_per_tick"`

	// MeshASes sizes the full-mesh conformance reference.
	MeshASes int `json:"mesh_ases"`

	// Equivalence phase: EquivASes ASes (≥17: 4 cores, 12 mids, the
	// rest stubs), EquivLoss per-message drop probability,
	// EquivSnapshotEvery the anti-entropy cadence, EquivChurnTicks
	// intervals of churn, EquivMaxTicks the convergence budget.
	EquivASes          int     `json:"equiv_ases"`
	EquivLoss          float64 `json:"equiv_loss"`
	EquivSnapshotEvery int     `json:"equiv_snapshot_every"`
	EquivChurnTicks    int     `json:"equiv_churn_ticks"`
	EquivMaxTicks      int     `json:"equiv_max_ticks"`
}

// DefaultE12 is the CI configuration: 1000 ASes in the relay phase.
func DefaultE12() E12Config {
	return E12Config{
		Seed:               1,
		Core:               10,
		Mid:                90,
		Stubs:              900,
		ProvidersPerAS:     2,
		Interval:           time.Second,
		LinkLatency:        10 * time.Millisecond,
		SnapshotEvery:      16,
		Ticks:              10,
		ActiveOrigins:      8,
		Backlog:            600,
		ChurnPerTick:       5,
		MeshASes:           64,
		EquivASes:          48,
		EquivLoss:          0.05,
		EquivSnapshotEvery: 4,
		EquivChurnTicks:    3,
		EquivMaxTicks:      40,
	}
}

// E12Relay reports the full-scale relay phase.
type E12Relay struct {
	ASes      int `json:"ases"`
	Links     int `json:"links"`
	MaxDegree int `json:"max_degree"`
	// Depth is the largest BFS eccentricity among the active origins.
	Depth int `json:"depth"`

	// MsgsPerIntervalMax is the worst interval's internet-wide digest
	// message count; MsgBound is max_degree × N; MeshMsgsProjected is
	// the N(N−1) all-origins-active full-mesh cost at the same N.
	MsgsPerIntervalMax uint64 `json:"msgs_per_interval_max"`
	MsgBound           uint64 `json:"msg_bound"`
	MeshMsgsProjected  uint64 `json:"mesh_msgs_projected"`

	// SnapshotSyncBytes is the cost of the initial full-state sync
	// (ticks 1..depth+1); DeltaBytesPerInterval the steady-state
	// average after it — churn-proportional, backlog-independent.
	SnapshotSyncBytes     uint64  `json:"snapshot_sync_bytes"`
	DeltaBytesPerInterval float64 `json:"delta_bytes_per_interval"`

	// LatencyMaxMs is the slowest marker install across every
	// (origin, receiver) pair; LatencyBoundMs the proved
	// depth × (interval + latency) bound.
	LatencyMaxMs   float64 `json:"latency_max_ms"`
	LatencyBoundMs float64 `json:"latency_bound_ms"`

	FalseInstalls uint64   `json:"false_installs"`
	Failures      []string `json:"failures,omitempty"`
	OK            bool     `json:"ok"`
}

// E12MeshRef reports the full-mesh conformance reference.
type E12MeshRef struct {
	ASes int `json:"ases"`
	// MsgsPerInterval must equal MsgsExpected = activeOrigins × (N−1)
	// exactly: the mesh is deterministic, so any drift is a bug.
	MsgsPerInterval uint64   `json:"msgs_per_interval"`
	MsgsExpected    uint64   `json:"msgs_expected"`
	Installs        uint64   `json:"installs"`
	FalseInstalls   uint64   `json:"false_installs"`
	Failures        []string `json:"failures,omitempty"`
	OK              bool     `json:"ok"`
}

// E12Equiv reports the mesh-vs-relay equivalence phase.
type E12Equiv struct {
	ASes int     `json:"ases"`
	Loss float64 `json:"loss"`
	// TicksToConverge counts intervals after churn stopped until every
	// AS's installed set matched the ground truth, per mode.
	MeshTicksToConverge  int      `json:"mesh_ticks_to_converge"`
	RelayTicksToConverge int      `json:"relay_ticks_to_converge"`
	FalseInstalls        uint64   `json:"false_installs"`
	Failures             []string `json:"failures,omitempty"`
	OK                   bool     `json:"ok"`
}

// E12Result is the BENCH_e12.json artifact.
type E12Result struct {
	Experiment  string           `json:"experiment"`
	Provenance  provenance.Block `json:"provenance"`
	Config      E12Config        `json:"config"`
	Relay       E12Relay         `json:"relay"`
	Mesh        E12MeshRef       `json:"mesh"`
	Equivalence E12Equiv         `json:"equivalence"`
	OK          bool             `json:"ok"`
	WallElapsed time.Duration    `json:"wall_elapsed_ns"`
}

// ---- harness ----

// e12Trust resolves engine signing keys for the synthetic internet.
type e12Trust map[ephid.AID][]byte

func (t e12Trust) SigKey(aid ephid.AID, _ int64) ([]byte, error) {
	key, ok := t[aid]
	if !ok {
		return nil, fmt.Errorf("e12: no key for AS %v", aid)
	}
	return key, nil
}

// e12ID derives the deterministic EphID for an origin's k-th
// revocation, identical across worlds so installed sets are comparable.
func e12ID(origin, k int) ephid.EphID {
	var id ephid.EphID
	id[0] = 0xE1
	binary.BigEndian.PutUint32(id[1:5], uint32(origin))
	binary.BigEndian.PutUint32(id[5:9], uint32(k))
	return id
}

// e12EphIDOf is the synthetic agent endpoint EphID of an AS.
func e12EphIDOf(aid ephid.AID) ephid.EphID {
	var id ephid.EphID
	id[0] = 0xAA
	binary.BigEndian.PutUint32(id[1:5], uint32(aid))
	return id
}

// e12Sink records digest installs: truth-checked counts always, first
// install times for marker EphIDs, and (when record is set) the full
// installed set for equivalence comparison.
type e12Sink struct {
	w             *e12World
	installs      uint64
	falseInstalls uint64
	origins       map[ephid.AID]bool
	markerAt      map[ephid.EphID]time.Duration
	record        bool
	set           map[ephid.EphID]ephid.AID
}

func (s *e12Sink) ApplyRemote(id ephid.EphID, origin ephid.AID, _ uint32) {
	s.installs++
	if s.w.truth[id] != origin {
		s.falseInstalls++
		return
	}
	if _, marked := s.w.markers[id]; marked {
		if _, seen := s.markerAt[id]; !seen {
			s.markerAt[id] = s.w.sim.Now()
		}
	}
	s.origins[origin] = true
	if s.record {
		s.set[id] = origin
	}
}

// e12World is one synthetic internet of bare accountability engines.
type e12World struct {
	sim     *netsim.Simulator
	cfg     E12Config
	aids    []ephid.AID
	engines []*accountability.Engine
	sinks   []*e12Sink
	adj     [][]int
	truth   map[ephid.EphID]ephid.AID
	markers map[ephid.EphID]time.Duration // mint times
	rng     *rand.Rand
	loss    float64
}

// newE12World builds n engines wired through a seeded simulator. adj
// (when non-nil) registers overlay neighbors; fullPeers registers the
// all-pairs peer set mesh flooding and unicast snapshot repair need.
func newE12World(cfg E12Config, n int, adj [][]int, mode accountability.Mode, snapEvery int, loss float64, fullPeers bool) (*e12World, error) {
	w := &e12World{
		sim:     netsim.New(cfg.Seed),
		cfg:     cfg,
		adj:     adj,
		truth:   make(map[ephid.EphID]ephid.AID),
		markers: make(map[ephid.EphID]time.Duration),
		rng:     rand.New(rand.NewSource(cfg.Seed ^ 0xe12)),
		loss:    loss,
	}
	w.sim.SetEpoch(1_700_000_000)
	trust := make(e12Trust, n)
	w.aids = make([]ephid.AID, n)
	w.engines = make([]*accountability.Engine, n)
	w.sinks = make([]*e12Sink, n)
	for i := 0; i < n; i++ {
		aid := ephid.AID(i + 1)
		signer, err := crypto.GenerateSigner()
		if err != nil {
			return nil, fmt.Errorf("e12: keygen for AS %v: %w", aid, err)
		}
		trust[aid] = signer.PublicKey()
		eng := accountability.New(accountability.Config{
			AID:    aid,
			Signer: signer,
			Trust:  trust,
			Now:    w.sim.NowUnix,
		})
		eng.SetDissemination(mode, snapEvery)
		sink := &e12Sink{
			w:        w,
			origins:  make(map[ephid.AID]bool),
			markerAt: make(map[ephid.EphID]time.Duration),
		}
		eng.AddRemoteSink(sink)
		eng.SetSend(w.sendFrom(aid))
		w.aids[i] = aid
		w.engines[i] = eng
		w.sinks[i] = sink
	}
	if fullPeers {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i != j {
					w.engines[i].RegisterPeer(w.aids[j], e12EphIDOf(w.aids[j]))
				}
			}
		}
	}
	for i := range adj {
		for _, j := range adj[i] {
			w.engines[i].RegisterNeighbor(w.aids[j], e12EphIDOf(w.aids[j]))
		}
	}
	return w, nil
}

// sendFrom is the transport: per-message loss, then delivery after the
// link latency on the simulator timeline.
func (w *e12World) sendFrom(src ephid.AID) func(wire.Endpoint, []byte) error {
	from := wire.Endpoint{AID: src, EphID: e12EphIDOf(src)}
	return func(dst wire.Endpoint, payload []byte) error {
		i := int(dst.AID) - 1
		if i < 0 || i >= len(w.engines) {
			return fmt.Errorf("e12: no AS %v", dst.AID)
		}
		if w.loss > 0 && w.rng.Float64() < w.loss {
			return nil // lost in transit, not a send failure
		}
		peer := w.engines[i]
		data := append([]byte(nil), payload...)
		w.sim.Schedule(w.cfg.LinkLatency, func() { peer.HandleMessage(from, data) })
		return nil
	}
}

// tick flushes every engine and drains the interval's deliveries.
func (w *e12World) tick(n int) {
	for _, eng := range w.engines {
		eng.FlushDigest()
	}
	w.sim.RunUntil(time.Duration(n) * w.cfg.Interval)
}

// totals sums digest-plane transmissions across every engine.
func (w *e12World) totals() (msgs, bytes uint64) {
	for _, eng := range w.engines {
		st := eng.Stats()
		msgs += st.MessagesSent
		bytes += st.DigestBytesSent
	}
	return msgs, bytes
}

// falseInstalls sums truth violations across every sink.
func (w *e12World) falseInstalls() uint64 {
	var n uint64
	for _, s := range w.sinks {
		n += s.falseInstalls
	}
	return n
}

// mint revokes a fresh deterministic EphID at origin index o.
func (w *e12World) mint(o, k int) ephid.EphID {
	id := e12ID(o, k)
	w.truth[id] = w.aids[o]
	w.engines[o].NoteRevoked(id, uint32(w.sim.NowUnix()+1_000_000))
	return id
}

// e12Overlay lays out the facade's provider/customer AS graph
// (apna.WithASGraph) at AIDs 1…n — the AIDs newE12World gives its
// engines — and returns it as adjacency lists over engine indices
// (index i is AID i+1), each AS's neighbors in link order.
func e12Overlay(core, mid, stubs, providers int) ([][]int, error) {
	aids, links, err := apna.Layout(apna.WithASGraph(1, apna.ASGraphConfig{
		Core: core, Mid: mid, Stubs: stubs, ProvidersPerAS: providers}))
	if err != nil {
		return nil, fmt.Errorf("e12: %w", err)
	}
	adj := make([][]int, len(aids))
	for _, l := range links {
		a, b := int(l.A)-1, int(l.B)-1
		adj[a] = append(adj[a], b)
		adj[b] = append(adj[b], a)
	}
	return adj, nil
}

// bfsEcc returns the eccentricity of src and how many nodes it reaches.
func bfsEcc(adj [][]int, src int) (ecc, reached int) {
	dist := make([]int, len(adj))
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []int{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		reached++
		if dist[u] > ecc {
			ecc = dist[u]
		}
		for _, v := range adj[u] {
			if dist[v] < 0 {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return ecc, reached
}

// e12Origins spreads the active origins across the three tiers.
func e12Origins(cfg E12Config) []int {
	n := cfg.Core + cfg.Mid + cfg.Stubs
	candidates := []int{
		0, 1,
		cfg.Core, cfg.Core + 1,
		cfg.Core + cfg.Mid, cfg.Core + cfg.Mid + 1,
		cfg.Core + cfg.Mid + cfg.Stubs/2, n - 1,
	}
	seen := make(map[int]bool)
	var origins []int
	for _, c := range candidates {
		if c >= 0 && c < n && !seen[c] && len(origins) < cfg.ActiveOrigins {
			seen[c] = true
			origins = append(origins, c)
		}
	}
	for i := 0; len(origins) < cfg.ActiveOrigins && i < n; i++ {
		if !seen[i] {
			seen[i] = true
			origins = append(origins, i)
		}
	}
	return origins
}

// ---- phases ----

func runE12Relay(cfg E12Config) (E12Relay, error) {
	adj, err := e12Overlay(cfg.Core, cfg.Mid, cfg.Stubs, cfg.ProvidersPerAS)
	if err != nil {
		return E12Relay{}, err
	}
	n := len(adj)
	w, err := newE12World(cfg, n, adj, accountability.ModeRelay, cfg.SnapshotEvery, 0, false)
	if err != nil {
		return E12Relay{}, err
	}

	r := E12Relay{ASes: n, MeshMsgsProjected: uint64(n) * uint64(n-1)}
	fail := func(format string, args ...any) {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
	for i := range adj {
		r.Links += len(adj[i])
		if len(adj[i]) > r.MaxDegree {
			r.MaxDegree = len(adj[i])
		}
	}
	r.Links /= 2
	r.MsgBound = uint64(r.MaxDegree) * uint64(n)

	origins := e12Origins(cfg)
	for _, o := range origins {
		ecc, reached := bfsEcc(adj, o)
		if reached != n {
			return r, fmt.Errorf("e12: AS graph disconnected: origin %d reaches %d of %d", o, reached, n)
		}
		if ecc > r.Depth {
			r.Depth = ecc
		}
	}
	markerTick := cfg.Ticks - r.Depth + 1
	deltaFrom := r.Depth + 3 // first tick with no snapshot raw still in flight, plus margin
	if markerTick < 2 || deltaFrom > cfg.Ticks {
		return r, fmt.Errorf("e12: Ticks=%d too small for overlay depth %d", cfg.Ticks, r.Depth)
	}

	// Preload the backlog so the seq-1 snapshot carries real bulk.
	next := make([]int, len(origins))
	for oi, o := range origins {
		for k := 0; k < cfg.Backlog; k++ {
			w.mint(o, next[oi])
			next[oi]++
		}
	}

	perTickMsgs := make([]uint64, cfg.Ticks+1)
	perTickBytes := make([]uint64, cfg.Ticks+1)
	var prevMsgs, prevBytes uint64
	for tick := 1; tick <= cfg.Ticks; tick++ {
		for oi, o := range origins {
			for c := 0; c < cfg.ChurnPerTick; c++ {
				id := w.mint(o, next[oi])
				next[oi]++
				if tick == markerTick && c == 0 {
					w.markers[id] = w.sim.Now()
				}
			}
		}
		w.tick(tick)
		msgs, bytes := w.totals()
		perTickMsgs[tick] = msgs - prevMsgs
		perTickBytes[tick] = bytes - prevBytes
		prevMsgs, prevBytes = msgs, bytes
	}

	for tick := 1; tick <= cfg.Ticks; tick++ {
		if perTickMsgs[tick] > r.MsgsPerIntervalMax {
			r.MsgsPerIntervalMax = perTickMsgs[tick]
		}
		if tick <= r.Depth+1 {
			r.SnapshotSyncBytes += perTickBytes[tick]
		}
		if tick >= deltaFrom {
			r.DeltaBytesPerInterval += float64(perTickBytes[tick])
		}
	}
	r.DeltaBytesPerInterval /= float64(cfg.Ticks - deltaFrom + 1)

	if r.MsgsPerIntervalMax > r.MsgBound {
		fail("relay sent %d msgs in one interval, above the %d = degree×N bound", r.MsgsPerIntervalMax, r.MsgBound)
	}
	if r.DeltaBytesPerInterval*10 > float64(r.SnapshotSyncBytes) {
		fail("steady-state delta bytes/interval %.0f not an order of magnitude below the %d-byte snapshot sync — deltas are scaling with the backlog",
			r.DeltaBytesPerInterval, r.SnapshotSyncBytes)
	}

	r.LatencyBoundMs = float64(r.Depth) * (cfg.Interval + cfg.LinkLatency).Seconds() * 1000
	mintAt := time.Duration(0)
	for _, at := range w.markers {
		mintAt = at // all markers are minted in the same interval
	}
	for i, s := range w.sinks {
		for id := range w.markers {
			if w.truth[id] == w.aids[i] {
				continue // the origin never installs its own entries
			}
			at, ok := s.markerAt[id]
			if !ok {
				fail("marker from AS %v never installed at AS %v within %d ticks", w.truth[id], w.aids[i], cfg.Ticks)
				continue
			}
			ms := (at - mintAt).Seconds() * 1000
			if ms > r.LatencyMaxMs {
				r.LatencyMaxMs = ms
			}
		}
	}
	if r.LatencyMaxMs > r.LatencyBoundMs {
		fail("marker dissemination took %.1fms, above the %.1fms depth×interval bound", r.LatencyMaxMs, r.LatencyBoundMs)
	}
	r.FalseInstalls = w.falseInstalls()
	if r.FalseInstalls != 0 {
		fail("%d installs of never-revoked (EphID, origin) pairs", r.FalseInstalls)
	}
	r.OK = len(r.Failures) == 0
	return r, nil
}

func runE12Mesh(cfg E12Config) (E12MeshRef, error) {
	n := cfg.MeshASes
	w, err := newE12World(cfg, n, nil, accountability.ModeMesh, cfg.Ticks+1, 0, true)
	if err != nil {
		return E12MeshRef{}, err
	}
	r := E12MeshRef{ASes: n, MsgsExpected: uint64(n) * uint64(n-1)}
	fail := func(format string, args ...any) {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
	for o := 0; o < n; o++ {
		w.mint(o, 0)
	}
	w.tick(1)
	r.MsgsPerInterval, _ = w.totals()
	if r.MsgsPerInterval != r.MsgsExpected {
		fail("mesh reference sent %d msgs, want exactly activeOrigins×(N−1) = %d", r.MsgsPerInterval, r.MsgsExpected)
	}
	for i, s := range w.sinks {
		r.Installs += s.installs
		if len(s.origins) != n-1 {
			fail("mesh AS %v installed from %d origins, want %d", w.aids[i], len(s.origins), n-1)
		}
	}
	r.FalseInstalls = w.falseInstalls()
	if r.FalseInstalls != 0 {
		fail("%d false installs in the mesh reference", r.FalseInstalls)
	}
	r.OK = len(r.Failures) == 0
	return r, nil
}

func runE12Equiv(cfg E12Config) (E12Equiv, error) {
	n := cfg.EquivASes
	r := E12Equiv{ASes: n, Loss: cfg.EquivLoss, MeshTicksToConverge: -1, RelayTicksToConverge: -1}
	if n < 17 {
		return r, fmt.Errorf("e12: EquivASes=%d, need ≥17 for the 4-core/12-mid graph", n)
	}
	fail := func(format string, args ...any) {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
	adj, err := e12Overlay(4, 12, n-16, cfg.ProvidersPerAS)
	if err != nil {
		return r, err
	}
	mesh, err := newE12World(cfg, n, nil, accountability.ModeMesh, cfg.EquivSnapshotEvery, cfg.EquivLoss, true)
	if err != nil {
		return r, err
	}
	relay, err := newE12World(cfg, n, adj, accountability.ModeRelay, cfg.EquivSnapshotEvery, cfg.EquivLoss, true)
	if err != nil {
		return r, err
	}
	worlds := []*e12World{mesh, relay}
	for _, w := range worlds {
		for _, s := range w.sinks {
			s.record = true
			s.set = make(map[ephid.EphID]ephid.AID)
		}
	}

	// Identical churn schedule in both worlds: every AS revokes two
	// EphIDs per interval for EquivChurnTicks intervals, same EphIDs in
	// both (e12ID is deterministic), so the installed sets are directly
	// comparable.
	perOrigin := 2 * cfg.EquivChurnTicks
	// Sinks only record truth-consistent entries and an AS never
	// receives its own digests, so set ⊆ truth∖own — a size match means
	// the set IS the ground truth minus the AS's own entries.
	converged := func(w *e12World) bool {
		want := len(w.truth) - perOrigin
		for _, s := range w.sinks {
			if len(s.set) != want {
				return false
			}
		}
		return true
	}
	tick := 0
	for ; tick < cfg.EquivChurnTicks; tick++ {
		for _, w := range worlds {
			for o := 0; o < n; o++ {
				w.mint(o, 2*tick)
				w.mint(o, 2*tick+1)
			}
			w.tick(tick + 1)
		}
	}
	for extra := 0; extra < cfg.EquivMaxTicks; extra++ {
		for wi, w := range worlds {
			if (wi == 0 && r.MeshTicksToConverge >= 0) || (wi == 1 && r.RelayTicksToConverge >= 0) {
				continue
			}
			w.tick(tick + 1)
			if converged(w) {
				if wi == 0 {
					r.MeshTicksToConverge = extra + 1
				} else {
					r.RelayTicksToConverge = extra + 1
				}
			}
		}
		tick++
		if r.MeshTicksToConverge >= 0 && r.RelayTicksToConverge >= 0 {
			break
		}
	}
	if r.MeshTicksToConverge < 0 {
		fail("mesh world did not converge within %d anti-entropy ticks at %.0f%% loss", cfg.EquivMaxTicks, cfg.EquivLoss*100)
	}
	if r.RelayTicksToConverge < 0 {
		fail("relay world did not converge within %d anti-entropy ticks at %.0f%% loss", cfg.EquivMaxTicks, cfg.EquivLoss*100)
	}

	// Equivalence proper: per AS, the mesh and relay installed sets must
	// be identical, and each must be exactly the ground truth minus the
	// AS's own entries.
	if r.MeshTicksToConverge >= 0 && r.RelayTicksToConverge >= 0 {
		for i := 0; i < n; i++ {
			ms, rs := mesh.sinks[i].set, relay.sinks[i].set
			if len(ms) != len(rs) {
				fail("AS %v: mesh installed %d entries, relay %d", mesh.aids[i], len(ms), len(rs))
				continue
			}
			for id, origin := range ms {
				if rs[id] != origin {
					fail("AS %v: entry %v origin mismatch between modes", mesh.aids[i], id)
					break
				}
			}
			for id, origin := range mesh.truth {
				if origin == mesh.aids[i] {
					continue
				}
				if ms[id] != origin {
					fail("AS %v: mesh set missing ground-truth entry from AS %v", mesh.aids[i], origin)
					break
				}
			}
		}
	}
	r.FalseInstalls = mesh.falseInstalls() + relay.falseInstalls()
	if r.FalseInstalls != 0 {
		fail("%d false installs across the equivalence worlds", r.FalseInstalls)
	}
	r.OK = len(r.Failures) == 0
	return r, nil
}

// RunE12 executes the three-phase dissemination sweep.
func RunE12(cfg E12Config) (*E12Result, error) {
	if cfg.Interval <= 0 || cfg.Ticks < 4 || cfg.ActiveOrigins < 1 || cfg.ChurnPerTick < 1 ||
		cfg.MeshASes < 2 || cfg.EquivChurnTicks < 1 || cfg.EquivMaxTicks < 1 {
		return nil, fmt.Errorf("experiments: e12 config incomplete: %+v", cfg)
	}
	if cfg.SnapshotEvery <= cfg.Ticks {
		return nil, fmt.Errorf("experiments: e12 needs SnapshotEvery > Ticks (%d ≤ %d) so the steady state is delta-only", cfg.SnapshotEvery, cfg.Ticks)
	}
	start := time.Now() //apna:wallclock
	res := &E12Result{
		Experiment: "e12",
		Provenance: provenance.Collect(cfg.Seed, cfg),
		Config:     cfg,
	}
	var err error
	if res.Relay, err = runE12Relay(cfg); err != nil {
		return nil, err
	}
	if res.Mesh, err = runE12Mesh(cfg); err != nil {
		return nil, err
	}
	if res.Equivalence, err = runE12Equiv(cfg); err != nil {
		return nil, err
	}
	res.OK = res.Relay.OK && res.Mesh.OK && res.Equivalence.OK
	res.WallElapsed = time.Since(start) //apna:wallclock
	return res, nil
}

// JSON renders the result as the BENCH_e12.json artifact.
func (r *E12Result) JSON() ([]byte, error) { return json.MarshalIndent(r, "", "  ") }

// Fprint renders the human-readable phase table.
func (r *E12Result) Fprint(w io.Writer) {
	verdict := func(ok bool) string {
		if ok {
			return "PASS"
		}
		return "FAIL"
	}
	fmt.Fprintf(w, "E12: dissemination sweep (%d ASes, depth %d, degree ≤ %d)\n",
		r.Relay.ASes, r.Relay.Depth, r.Relay.MaxDegree)
	fmt.Fprintf(w, "  relay  %s  %d msgs/interval (bound %d, mesh would be %d), delta %.0f B/interval vs %d B snapshot sync, latency %.0fms ≤ %.0fms\n",
		verdict(r.Relay.OK), r.Relay.MsgsPerIntervalMax, r.Relay.MsgBound, r.Relay.MeshMsgsProjected,
		r.Relay.DeltaBytesPerInterval, r.Relay.SnapshotSyncBytes, r.Relay.LatencyMaxMs, r.Relay.LatencyBoundMs)
	fmt.Fprintf(w, "  mesh   %s  %d msgs/interval at %d ASes (expected exactly %d)\n",
		verdict(r.Mesh.OK), r.Mesh.MsgsPerInterval, r.Mesh.ASes, r.Mesh.MsgsExpected)
	fmt.Fprintf(w, "  equiv  %s  %d ASes at %.0f%% loss: mesh converged in %d ticks, relay in %d, %d false installs\n",
		verdict(r.Equivalence.OK), r.Equivalence.ASes, r.Equivalence.Loss*100,
		r.Equivalence.MeshTicksToConverge, r.Equivalence.RelayTicksToConverge, r.Equivalence.FalseInstalls)
	status := "every dissemination gate held"
	if !r.OK {
		status = "DISSEMINATION GATE FAILURES — see JSON phases"
	}
	fmt.Fprintf(w, "  %s (%v wall, commit %s)\n", status,
		r.WallElapsed.Round(time.Millisecond), r.Provenance.Commit)
}

// Report renders the sweep to w and returns whether every gate held.
func (r *E12Result) Report(w io.Writer, jsonOut bool) (bool, error) {
	return report(w, jsonOut, r.OK, r.Fprint, r.JSON)
}
