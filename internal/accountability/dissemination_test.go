package accountability_test

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"apna"
	"apna/internal/accountability"
	"apna/internal/crypto"
	"apna/internal/ephid"
	"apna/internal/netsim"
	"apna/internal/wire"
)

// E12, the thousand-AS revocation-digest dissemination sweep, as a test
// of the digest plane alone: bare engines (no hosts, no border routers,
// no EphID issuance), each with its own Ed25519 key, a synthetic trust
// store and a sink that truth-checks every install, over a seeded
// netsim timeline applying the link latency and per-message loss.
const (
	interval    = time.Second
	linkLatency = 10 * time.Millisecond

	// The relay phase: 1000 ASes on apna.WithASGraph, clean links,
	// relayTicks measured intervals. Its anti-entropy cadence lies past
	// the last tick, so the steady state after the seq-1 snapshot sync
	// is delta-only.
	relayTicks         = 10
	relaySnapshotEvery = 16
	backlog            = 600 // entries per origin before tick 1
	churnPerTick       = 5   // new entries per origin per interval

	// The mesh reference: meshASes ASes, every one an origin.
	meshASes = 64
)

// relayGraph is the relay phase's AS graph: a clique of 10 cores, 90
// mids and 900 stubs, each non-core AS homed to two providers.
var relayGraph = apna.ASGraphConfig{Core: 10, Mid: 90, Stubs: 900, ProvidersPerAS: 2}

// relayOrigins are the active origins, by AS index: two cores, two
// mids, two stubs, the middle stub and the last.
var relayOrigins = []int{0, 1, 10, 11, 100, 101, 550, 999}

// equivRow is one mesh ≡ relay case: both modes run the same churn over
// the same graph (the relay mode's overlay) with seeded loss, and each
// must reach the ground truth within budget quiet intervals.
type equivRow struct {
	name          string
	topo          apna.TopologyOption
	seed          int64
	loss          float64
	snapshotEvery int // anti-entropy cadence
	churnTicks    int // intervals in which every AS revokes two EphIDs
	budget        int
}

// equivRows' first row is the golden's.
var equivRows = []equivRow{
	{"asgraph48_loss5", apna.WithASGraph(1, apna.ASGraphConfig{Core: 4, Mid: 12, Stubs: 32, ProvidersPerAS: 2}), 1, 0.05, 4, 3, 40},
	{"line4_loss25", apna.WithLine(1, 4, 0), 7, 0.25, 2, 3, 24},
	{"star16_loss20", apna.WithStar(1, 15, 0), 3, 0.20, 3, 2, 30},
	{"asgraph30_p1_loss10", apna.WithASGraph(1, apna.ASGraphConfig{Core: 2, Mid: 6, Stubs: 22, ProvidersPerAS: 1}), 11, 0.10, 3, 2, 40},
	{"asgraph40_p3_loss15", apna.WithASGraph(1, apna.ASGraphConfig{Core: 5, Mid: 10, Stubs: 25, ProvidersPerAS: 3}), 23, 0.15, 5, 4, 40},
}

// relayResult, meshResult and equivResult are the golden's phase
// objects; every count in them is a deterministic function of the
// constants above.
type relayResult struct {
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
	// average after it.
	SnapshotSyncBytes     uint64  `json:"snapshot_sync_bytes"`
	DeltaBytesPerInterval float64 `json:"delta_bytes_per_interval"`

	// LatencyMaxMs is the slowest marker install across every (origin,
	// receiver) pair; LatencyBoundMs is depth × (interval + latency).
	LatencyMaxMs   float64 `json:"latency_max_ms"`
	LatencyBoundMs float64 `json:"latency_bound_ms"`

	FalseInstalls uint64 `json:"false_installs"`
	OK            bool   `json:"ok"`
}

type meshResult struct {
	ASes            int    `json:"ases"`
	MsgsPerInterval uint64 `json:"msgs_per_interval"`
	MsgsExpected    uint64 `json:"msgs_expected"`
	Installs        uint64 `json:"installs"`
	FalseInstalls   uint64 `json:"false_installs"`
	OK              bool   `json:"ok"`
}

type equivResult struct {
	ASes int     `json:"ases"`
	Loss float64 `json:"loss"`
	// TicksToConverge counts the quiet intervals after churn until
	// every AS's installed set matched the ground truth, -1 if never.
	MeshTicksToConverge  int    `json:"mesh_ticks_to_converge"`
	RelayTicksToConverge int    `json:"relay_ticks_to_converge"`
	FalseInstalls        uint64 `json:"false_installs"`
	OK                   bool   `json:"ok"`
}

// TestDisseminationAtScale runs E12's three phases and holds their
// counts byte for byte against testdata/e12.golden.json:
//
//  1. relay: 1000 ASes on the relay overlay. Messages per interval stay
//     ≤ max-degree × N, steady-state delta bytes lie at least 10× below
//     the snapshot sync, marker revocations install everywhere within
//     depth × (interval + latency), and nothing is ever installed that
//     was not revoked.
//  2. mesh: the full-mesh reference sends exactly origins × (N−1)
//     messages, the count the relay phase's N(N−1) projection rests on.
//  3. equivalence: per equivRows row, mesh and relay both converge
//     under loss to the ground truth minus each AS's own entries.
//
// Regenerate the golden deliberately with
//
//	E12_REGEN=1 go test ./internal/accountability -run TestDisseminationAtScale
func TestDisseminationAtScale(t *testing.T) {
	if raceEnabled {
		t.Skip("the 1000-AS sweep is too slow under the race detector")
	}
	var got struct {
		Equivalence equivResult `json:"equivalence"`
		Mesh        meshResult  `json:"mesh"`
		Relay       relayResult `json:"relay"`
	}
	t.Run("relay", func(t *testing.T) { got.Relay = runRelay(t) })
	t.Run("mesh", func(t *testing.T) { got.Mesh = runMesh(t) })
	t.Run("equivalence", func(t *testing.T) {
		for i, row := range equivRows {
			t.Run(row.name, func(t *testing.T) {
				r := runEquiv(t, row)
				if i == 0 {
					got.Equivalence = r
				}
			})
		}
	})

	raw, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	raw = append(raw, '\n')
	path := filepath.Join("testdata", "e12.golden.json")
	if os.Getenv("E12_REGEN") != "" {
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (regenerate with E12_REGEN=1): %v", err)
	}
	if !bytes.Equal(raw, want) {
		t.Errorf("counts drifted from %s:\n got: %s\nwant: %s", path, raw, want)
	}
}

func runRelay(t *testing.T) relayResult {
	w := newWorld(t, 1, apna.WithASGraph(1, relayGraph), accountability.ModeRelay, relaySnapshotEvery, 0)
	n := len(w.aids)
	r := relayResult{ASes: n, MeshMsgsProjected: uint64(n) * uint64(n-1)}
	for _, nbrs := range w.adj {
		r.Links += len(nbrs)
		r.MaxDegree = max(r.MaxDegree, len(nbrs))
	}
	r.Links /= 2
	r.MsgBound = uint64(r.MaxDegree) * uint64(n)
	for _, o := range relayOrigins {
		ecc, reached := bfsEcc(w.adj, o)
		if reached != n {
			t.Fatalf("AS graph disconnected: origin %d reaches %d of %d", o, reached, n)
		}
		r.Depth = max(r.Depth, ecc)
	}
	markerTick := relayTicks - r.Depth + 1
	deltaFrom := r.Depth + 3 // first tick with no snapshot still in flight, plus margin
	if markerTick < 2 || deltaFrom > relayTicks {
		t.Fatalf("%d ticks too few for overlay depth %d", relayTicks, r.Depth)
	}

	// Preload the backlog so the seq-1 snapshot carries real bulk.
	next := make([]int, len(relayOrigins))
	for oi, o := range relayOrigins {
		for ; next[oi] < backlog; next[oi]++ {
			w.mint(o, next[oi])
		}
	}
	var perTickMsgs, perTickBytes [relayTicks + 1]uint64
	var prevMsgs, prevBytes uint64
	for tick := 1; tick <= relayTicks; tick++ {
		for oi, o := range relayOrigins {
			for c := 0; c < churnPerTick; c++ {
				id := w.mint(o, next[oi])
				next[oi]++
				if tick == markerTick && c == 0 {
					w.markers[id] = true
					w.markedAt = w.sim.Now()
				}
			}
		}
		w.tick(tick)
		msgs, bytes := w.totals()
		perTickMsgs[tick], perTickBytes[tick] = msgs-prevMsgs, bytes-prevBytes
		prevMsgs, prevBytes = msgs, bytes
	}
	for tick := 1; tick <= relayTicks; tick++ {
		r.MsgsPerIntervalMax = max(r.MsgsPerIntervalMax, perTickMsgs[tick])
		if tick <= r.Depth+1 {
			r.SnapshotSyncBytes += perTickBytes[tick]
		}
		if tick >= deltaFrom {
			r.DeltaBytesPerInterval += float64(perTickBytes[tick])
		}
	}
	r.DeltaBytesPerInterval /= float64(relayTicks - deltaFrom + 1)

	if r.MsgsPerIntervalMax > r.MsgBound {
		t.Errorf("relay sent %d msgs in one interval, above the %d = degree×N bound", r.MsgsPerIntervalMax, r.MsgBound)
	}
	if r.DeltaBytesPerInterval*10 > float64(r.SnapshotSyncBytes) {
		t.Errorf("steady-state delta bytes/interval %.0f not an order of magnitude below the %d-byte snapshot sync: deltas scale with the backlog",
			r.DeltaBytesPerInterval, r.SnapshotSyncBytes)
	}
	r.LatencyBoundMs = float64(r.Depth) * (interval + linkLatency).Seconds() * 1000
	for i, s := range w.sinks {
		for id := range w.markers {
			if w.truth[id] == w.aids[i] {
				continue // an origin never installs its own entries
			}
			at, ok := s.markerAt[id]
			if !ok {
				t.Errorf("marker from AS %v never installed at AS %v within %d ticks", w.truth[id], w.aids[i], relayTicks)
				continue
			}
			r.LatencyMaxMs = max(r.LatencyMaxMs, (at-w.markedAt).Seconds()*1000)
		}
	}
	if r.LatencyMaxMs > r.LatencyBoundMs {
		t.Errorf("marker dissemination took %.1fms, above the %.1fms depth×interval bound", r.LatencyMaxMs, r.LatencyBoundMs)
	}
	r.FalseInstalls = w.falseInstalls()
	if r.FalseInstalls != 0 {
		t.Errorf("%d installs of never-revoked (EphID, origin) pairs", r.FalseInstalls)
	}
	r.OK = !t.Failed()
	return r
}

func runMesh(t *testing.T) meshResult {
	w := newWorld(t, 1, apna.WithFullMesh(1, meshASes, 0), accountability.ModeMesh, relaySnapshotEvery, 0)
	w.record = true
	n := len(w.aids)
	r := meshResult{ASes: n, MsgsExpected: uint64(n) * uint64(n-1)}
	for o := range w.aids {
		w.mint(o, 0)
	}
	w.tick(1)
	r.MsgsPerInterval, _ = w.totals()
	if r.MsgsPerInterval != r.MsgsExpected {
		t.Errorf("mesh sent %d msgs, want exactly origins×(N−1) = %d", r.MsgsPerInterval, r.MsgsExpected)
	}
	for i, s := range w.sinks {
		r.Installs += s.installs
		if len(s.set) != n-1 {
			t.Errorf("mesh AS %v installed from %d origins, want %d", w.aids[i], len(s.set), n-1)
		}
	}
	r.FalseInstalls = w.falseInstalls()
	if r.FalseInstalls != 0 {
		t.Errorf("%d false installs in the mesh reference", r.FalseInstalls)
	}
	r.OK = !t.Failed()
	return r
}

func runEquiv(t *testing.T, row equivRow) equivResult {
	r := equivResult{Loss: row.loss}
	converge := func(name string, mode accountability.Mode) int {
		w := newWorld(t, row.seed, row.topo, mode, row.snapshotEvery, row.loss)
		r.ASes = len(w.aids)
		ticks := w.converge(row.churnTicks, row.budget)
		r.FalseInstalls += w.falseInstalls()
		if ticks < 0 {
			t.Errorf("%s did not converge within %d anti-entropy ticks at %.0f%% loss", name, row.budget, row.loss*100)
			return ticks
		}
		// converge's size match assumes no AS installs its own
		// entries; require every other AS's entry to be there.
		for i, s := range w.sinks {
			for id, origin := range w.truth {
				if origin != w.aids[i] && s.set[id] != origin {
					t.Errorf("%s AS %v misses ground-truth entry from AS %v", name, w.aids[i], origin)
					break
				}
			}
		}
		return ticks
	}
	r.MeshTicksToConverge = converge("mesh", accountability.ModeMesh)
	r.RelayTicksToConverge = converge("relay", accountability.ModeRelay)
	t.Logf("converged after %d quiet ticks (mesh), %d (relay)", r.MeshTicksToConverge, r.RelayTicksToConverge)
	if r.FalseInstalls != 0 {
		t.Errorf("%d false installs across the equivalence worlds", r.FalseInstalls)
	}
	r.OK = !t.Failed()
	return r
}

// world is one synthetic internet of bare accountability engines.
// Engine i is AS aids[i]; every AS knows every other as a peer (mesh
// flooding and unicast snapshot repair need that) and the topology's
// links as its relay overlay.
type world struct {
	sim      *netsim.Simulator
	rng      *rand.Rand
	loss     float64
	aids     []ephid.AID
	index    map[ephid.AID]int
	adj      [][]int
	engines  []*accountability.Engine
	sinks    []*sink
	truth    map[ephid.EphID]ephid.AID
	markers  map[ephid.EphID]bool
	markedAt time.Duration
	// record makes the sinks keep their installed sets.
	record bool
}

func newWorld(t *testing.T, seed int64, topo apna.TopologyOption, mode accountability.Mode, snapshotEvery int, loss float64) *world {
	t.Helper()
	aids, links, err := apna.Layout(topo)
	if err != nil {
		t.Fatal(err)
	}
	n := len(aids)
	w := &world{
		sim:     netsim.New(seed),
		rng:     rand.New(rand.NewSource(seed ^ 0xe12)),
		loss:    loss,
		index:   make(map[ephid.AID]int, n),
		adj:     make([][]int, n),
		engines: make([]*accountability.Engine, n),
		sinks:   make([]*sink, n),
		truth:   make(map[ephid.EphID]ephid.AID),
		markers: make(map[ephid.EphID]bool),
	}
	trust := make(trustMap, n)
	for i, aid := range aids {
		w.aids = append(w.aids, aid)
		w.index[aid] = i
		signer, err := crypto.GenerateSigner()
		if err != nil {
			t.Fatal(err)
		}
		trust[aid] = signer.PublicKey()
		eng := accountability.New(accountability.Config{
			AID: aid, Signer: signer, Trust: trust, Now: w.sim.NowUnix,
		})
		eng.SetDissemination(mode, snapshotEvery)
		w.sinks[i] = &sink{w: w, markerAt: make(map[ephid.EphID]time.Duration)}
		eng.AddRemoteSink(w.sinks[i])
		eng.SetSend(w.sendFrom(aid))
		w.engines[i] = eng
	}
	for _, l := range links {
		a, b := w.index[l.A], w.index[l.B]
		w.adj[a] = append(w.adj[a], b)
		w.adj[b] = append(w.adj[b], a)
	}
	for i, eng := range w.engines {
		for j, peer := range w.aids {
			if j != i {
				eng.RegisterPeer(peer, agentEphID(peer))
			}
		}
		for _, j := range w.adj[i] {
			eng.RegisterNeighbor(w.aids[j], agentEphID(w.aids[j]))
		}
	}
	return w
}

// sendFrom is the transport: per-message loss, then delivery after the
// link latency on the simulator timeline.
func (w *world) sendFrom(src ephid.AID) func(wire.Endpoint, []byte) error {
	from := wire.Endpoint{AID: src, EphID: agentEphID(src)}
	return func(dst wire.Endpoint, payload []byte) error {
		i, ok := w.index[dst.AID]
		if !ok {
			return fmt.Errorf("no AS %v", dst.AID)
		}
		if w.loss > 0 && w.rng.Float64() < w.loss {
			return nil // lost in transit, not a send failure
		}
		peer := w.engines[i]
		data := append([]byte(nil), payload...)
		w.sim.Schedule(linkLatency, func() { peer.HandleMessage(from, data) })
		return nil
	}
}

// tick flushes every engine and drains the n-th interval's deliveries.
func (w *world) tick(n int) {
	for _, eng := range w.engines {
		eng.FlushDigest()
	}
	w.sim.RunUntil(time.Duration(n) * interval)
}

// converge runs churnTicks intervals in which every AS revokes two
// EphIDs, then up to budget quiet intervals, and returns how many quiet
// intervals it took every AS to hold the ground truth minus its own
// entries, or -1.
func (w *world) converge(churnTicks, budget int) int {
	w.record = true
	tick := 0
	for ; tick < churnTicks; tick++ {
		for o := range w.aids {
			w.mint(o, 2*tick)
			w.mint(o, 2*tick+1)
		}
		w.tick(tick + 1)
	}
	// Sinks record only truth-consistent entries and an AS never
	// receives its own digests, so a set of the right size IS the
	// ground truth minus the AS's own entries.
	want := len(w.truth) - 2*churnTicks
	for quiet := 1; quiet <= budget; quiet++ {
		tick++
		w.tick(tick)
		done := true
		for _, s := range w.sinks {
			done = done && len(s.set) == want
		}
		if done {
			return quiet
		}
	}
	return -1
}

// totals sums digest-plane transmissions across every engine.
func (w *world) totals() (msgs, bytes uint64) {
	for _, eng := range w.engines {
		st := eng.Stats()
		msgs += st.MessagesSent
		bytes += st.DigestBytesSent
	}
	return msgs, bytes
}

func (w *world) falseInstalls() uint64 {
	var n uint64
	for _, s := range w.sinks {
		n += s.falseInstalls
	}
	return n
}

// mint revokes origin o's k-th EphID (AS index o), the same EphID in
// every world so installed sets are comparable.
func (w *world) mint(o, k int) ephid.EphID {
	var id ephid.EphID
	id[0] = 0xE1
	binary.BigEndian.PutUint32(id[1:5], uint32(o))
	binary.BigEndian.PutUint32(id[5:9], uint32(k))
	w.truth[id] = w.aids[o]
	w.engines[o].NoteRevoked(id, uint32(w.sim.NowUnix()+1_000_000))
	return id
}

// sink is an AS's RemoteSink: it counts installs, flags those of
// never-revoked (EphID, origin) pairs, times markers' first installs
// and, when the world records, keeps the installed set.
type sink struct {
	w             *world
	installs      uint64
	falseInstalls uint64
	markerAt      map[ephid.EphID]time.Duration
	set           map[ephid.EphID]ephid.AID
}

func (s *sink) ApplyRemote(id ephid.EphID, origin ephid.AID, _ uint32) {
	s.installs++
	if s.w.truth[id] != origin {
		s.falseInstalls++
		return
	}
	if _, seen := s.markerAt[id]; !seen && s.w.markers[id] {
		s.markerAt[id] = s.w.sim.Now()
	}
	if s.w.record {
		if s.set == nil {
			s.set = make(map[ephid.EphID]ephid.AID)
		}
		s.set[id] = origin
	}
}

// trustMap resolves the engines' signing keys.
type trustMap map[ephid.AID][]byte

func (t trustMap) SigKey(aid ephid.AID, _ int64) ([]byte, error) {
	key, ok := t[aid]
	if !ok {
		return nil, fmt.Errorf("no key for AS %v", aid)
	}
	return key, nil
}

// agentEphID is the synthetic agent endpoint of an AS.
func agentEphID(aid ephid.AID) ephid.EphID {
	var id ephid.EphID
	id[0] = 0xAA
	binary.BigEndian.PutUint32(id[1:5], uint32(aid))
	return id
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
		ecc = max(ecc, dist[u])
		for _, v := range adj[u] {
			if dist[v] < 0 {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return ecc, reached
}
