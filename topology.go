package apna

import (
	"errors"
	"fmt"
	"time"
)

// An internet is described by the functional options passed to New, and
// by nothing else:
//
//	in, err := apna.New(seed,
//		apna.WithAS(100, "alice"),
//		apna.WithAS(200, "bob", "carol"),
//		apna.WithLink(100, 200, 20*time.Millisecond))
//
// Generators produce whole shapes at once: WithLine, WithStar,
// WithFullMesh and WithASGraph. Layout validates a description and
// returns the ASes and links it lays out, without building anything.

// topology is the description the options write into. New and Layout
// validate it as a whole before using any of it.
type topology struct {
	opts      Options
	ases      []topoAS
	links     []ASLink
	attackers []topoAttacker
	chaos     *ChaosConfig
	lifetimes *Lifetimes
	dissem    *Dissemination
	errs      []error
}

type topoAS struct {
	aid   AID
	hosts []string
}

type topoAttacker struct {
	aid  AID
	name string
}

// ASLink is one inter-AS link of a description: the two ASes whose
// border routers it connects and its one-way latency.
type ASLink struct {
	A, B    AID
	Latency time.Duration
}

// ErrBadTopology wraps every topology validation failure.
var ErrBadTopology = errors.New("apna: invalid topology")

// TopologyOption adds to the description of an internet.
type TopologyOption func(*topology)

// describe applies the options to an empty description and validates
// the result.
func describe(topo []TopologyOption) (*topology, error) {
	t := &topology{opts: DefaultOptions()}
	for _, o := range topo {
		o(t)
	}
	return t, t.validate()
}

// Layout validates a description and returns the ASes and inter-AS links
// it declares, in declaration order, without building anything. It is
// how code outside the facade learns the shape a generator lays out:
// the scenario validator checks taps and partitions against it, and E12
// runs its engines over WithASGraph's graph.
func Layout(topo ...TopologyOption) ([]AID, []ASLink, error) {
	t, err := describe(topo)
	if err != nil {
		return nil, nil, err
	}
	aids := make([]AID, len(t.ases))
	for i, as := range t.ases {
		aids[i] = as.aid
	}
	return aids, t.links, nil
}

func (t *topology) addAS(aid AID, hosts ...string) {
	t.ases = append(t.ases, topoAS{aid: aid, hosts: hosts})
}

func (t *topology) addLink(a, b AID, latency time.Duration) {
	t.links = append(t.links, ASLink{A: a, B: b, Latency: latency})
}

// WithOptions sets the simulation options (latencies, strike limit, MS
// policy). Without it New uses DefaultOptions.
func WithOptions(o Options) TopologyOption {
	return func(t *topology) { t.opts = o }
}

// WithAS adds an AS and, optionally, named hosts attached to it.
func WithAS(aid AID, hosts ...string) TopologyOption {
	return func(t *topology) { t.addAS(aid, hosts...) }
}

// WithLink connects two ASes' border routers with the given one-way
// latency. Both ASes must be declared (by WithAS or a generator).
func WithLink(a, b AID, latency time.Duration) TopologyOption {
	return func(t *topology) { t.addLink(a, b, latency) }
}

// WithHosts attaches named hosts to an already-declared AS.
func WithHosts(aid AID, names ...string) TopologyOption {
	return func(t *topology) {
		for i := range t.ases {
			if t.ases[i].aid == aid {
				t.ases[i].hosts = append(t.ases[i].hosts, names...)
				return
			}
		}
		t.errs = append(t.errs, fmt.Errorf("%w: hosts %v on undeclared AS %v", ErrBadTopology, names, aid))
	}
}

// WithLine generates a line topology of n ASes numbered first,
// first+1, ..., chained by links of the given latency.
func WithLine(first AID, n int, latency time.Duration) TopologyOption {
	return func(t *topology) {
		if n < 1 {
			t.errs = append(t.errs, fmt.Errorf("%w: line of %d ASes", ErrBadTopology, n))
			return
		}
		for i := 0; i < n; i++ {
			t.addAS(first + AID(i))
			if i > 0 {
				t.addLink(first+AID(i-1), first+AID(i), latency)
			}
		}
	}
}

// WithStar generates a star topology: a center AS plus `leaves` leaf
// ASes numbered center+1, ..., each linked to the center.
func WithStar(center AID, leaves int, latency time.Duration) TopologyOption {
	return func(t *topology) {
		if leaves < 1 {
			t.errs = append(t.errs, fmt.Errorf("%w: star with %d leaves", ErrBadTopology, leaves))
			return
		}
		t.addAS(center)
		for i := 1; i <= leaves; i++ {
			t.addAS(center + AID(i))
			t.addLink(center, center+AID(i), latency)
		}
	}
}

// WithFullMesh generates a full mesh of n ASes numbered first,
// first+1, ..., with a direct link between every pair.
func WithFullMesh(first AID, n int, latency time.Duration) TopologyOption {
	return func(t *topology) {
		if n < 1 {
			t.errs = append(t.errs, fmt.Errorf("%w: mesh of %d ASes", ErrBadTopology, n))
			return
		}
		for i := 0; i < n; i++ {
			t.addAS(first + AID(i))
			for j := 0; j < i; j++ {
				t.addLink(first+AID(j), first+AID(i), latency)
			}
		}
	}
}

// ASGraphConfig sizes a provider/customer AS hierarchy for WithASGraph:
// Core tier-1 ASes in a full mesh, Mid transit ASes each buying from
// ProvidersPerAS core providers, and Stubs leaf ASes each buying from
// ProvidersPerAS mid providers. Total ASes = Core + Mid + Stubs; maximum
// overlay depth is 4 hops (stub → mid → core → mid → stub), so relay
// dissemination latency is bounded by 4 digest intervals regardless of
// scale.
type ASGraphConfig struct {
	// Core is the number of fully meshed tier-1 ASes (>= 1).
	Core int
	// Mid is the number of mid-tier transit ASes.
	Mid int
	// Stubs is the number of stub leaf ASes (requires Mid >= 1).
	Stubs int
	// ProvidersPerAS is how many providers each non-core AS links to
	// (multi-homing degree; non-positive selects 2, clamped to the size
	// of the tier above).
	ProvidersPerAS int
	// CoreLatency is the one-way latency of core-core links.
	CoreLatency time.Duration
	// Latency is the one-way latency of provider-customer links.
	Latency time.Duration
}

// WithASGraph generates a provider/customer AS hierarchy (the internet
// shape the paper assumes digests propagate across): a Core-AS full
// mesh at first, Mid transit ASes at first+Core, Stubs leaves at
// first+Core+Mid. Provider assignment is deterministic round-robin
// (customer i's j-th provider is tier-above AS (i*P+j) mod tier size),
// spreading customers evenly while keeping the graph reproducible.
func WithASGraph(first AID, g ASGraphConfig) TopologyOption {
	return func(t *topology) {
		if g.Core < 1 || g.Mid < 0 || g.Stubs < 0 || (g.Stubs > 0 && g.Mid < 1) {
			t.errs = append(t.errs, fmt.Errorf("%w: AS graph core=%d mid=%d stubs=%d",
				ErrBadTopology, g.Core, g.Mid, g.Stubs))
			return
		}
		p := g.ProvidersPerAS
		if p <= 0 {
			p = 2
		}
		WithFullMesh(first, g.Core, g.CoreLatency)(t)
		attach := func(aid AID, i int, tierFirst AID, tierSize int) {
			t.addAS(aid)
			providers := min(p, tierSize)
			for j := 0; j < providers; j++ {
				t.addLink(tierFirst+AID((i*providers+j)%tierSize), aid, g.Latency)
			}
		}
		midFirst := first + AID(g.Core)
		for i := 0; i < g.Mid; i++ {
			attach(midFirst+AID(i), i, first, g.Core)
		}
		stubFirst := midFirst + AID(g.Mid)
		for i := 0; i < g.Stubs; i++ {
			attach(stubFirst+AID(i), i, midFirst, g.Mid)
		}
	}
}

// WithChaos applies a chaos configuration (jitter, duplication,
// reordering, loss, timed partitions) to every inter-AS link of the
// built internet. Intra-AS links (host access, service links) stay
// clean: AS-internal control protocols assume ordered channels,
// matching the paper's model where adversaries sit on the open
// internet, not inside the AS's infrastructure.
func WithChaos(cfg ChaosConfig) TopologyOption {
	return func(t *topology) { t.chaos = &cfg }
}

// WithAttacker attaches a named attacker to an AS (which must be
// declared) like a rogue device. The attacker is NOT a bootstrapped
// subscriber — it holds no credentials, no kHA and no EphIDs;
// everything it achieves must come from forging, capturing or
// stealing. Retrieve it with Internet.Attacker(name).
func WithAttacker(aid AID, name string) TopologyOption {
	return func(t *topology) { t.attackers = append(t.attackers, topoAttacker{aid: aid, name: name}) }
}

// WithLifetimes starts the EphID lifecycle engine on the built
// internet: host pools are watched on lt.CheckInterval, identifiers
// entering the renewal lead window are renewed through the MS's
// rate-limited renewal path with live flows migrated to the successor,
// and revocation-list plus host_info GC runs on lt.GCInterval. Zero
// fields take DefaultLifetimes values.
func WithLifetimes(lt Lifetimes) TopologyOption {
	return func(t *topology) { t.lifetimes = &lt }
}

// WithDissemination starts revocation-digest dissemination on the built
// internet: every d.Interval of virtual time each AS's accountability
// engine flushes a signed digest of its live revocations (a delta of
// the churn since the last flush, every d.SnapshotEvery-th flush a full
// anti-entropy snapshot), and each receiver installs the entries into
// its border routers' remote revocation lists, so borders across the
// whole internet drop frames from remotely-revoked EphIDs. d.Mode
// selects mesh flooding or the bounded-fan-out relay overlay; the
// overlay is the set of physically linked ASes, so under
// DisseminateRelay digests follow the same provider/customer edges
// packets do. Zero fields take DefaultDigestInterval, DisseminateMesh
// and DefaultSnapshotEvery. Complaints (Host.Complain) work without
// this option; only internet-wide dissemination needs the timer.
func WithDissemination(d Dissemination) TopologyOption {
	return func(t *topology) { t.dissem = &d }
}

// validate checks the whole description: generator arguments, duplicate
// ASes, links between undeclared or identical ASes, negative latencies,
// duplicate host names, attacker placement, chaos ranges and lifecycle
// durations.
func (t *topology) validate() error {
	if len(t.errs) > 0 {
		return t.errs[0]
	}
	ases := make(map[AID]bool, len(t.ases))
	hostNames := make(map[string]bool)
	for _, as := range t.ases {
		if ases[as.aid] {
			return fmt.Errorf("%w: %v declared twice", ErrBadTopology, as.aid)
		}
		ases[as.aid] = true
		for _, name := range as.hosts {
			if name == "" {
				return fmt.Errorf("%w: empty host name on AS %v", ErrBadTopology, as.aid)
			}
			if hostNames[name] {
				return fmt.Errorf("%w: host %q declared twice", ErrBadTopology, name)
			}
			hostNames[name] = true
		}
	}
	seen := make(map[asPair]bool, len(t.links))
	for _, l := range t.links {
		if l.A == l.B {
			return fmt.Errorf("%w: self-link on AS %v", ErrBadTopology, l.A)
		}
		if !ases[l.A] || !ases[l.B] {
			return fmt.Errorf("%w: link %v-%v references undeclared AS", ErrBadTopology, l.A, l.B)
		}
		if l.Latency < 0 {
			return fmt.Errorf("%w: negative latency on link %v-%v", ErrBadTopology, l.A, l.B)
		}
		k := pairOf(l.A, l.B)
		if seen[k] {
			return fmt.Errorf("%w: link %v-%v declared twice", ErrBadTopology, l.A, l.B)
		}
		seen[k] = true
	}
	attackers := make(map[string]bool, len(t.attackers))
	for _, a := range t.attackers {
		if a.name == "" {
			return fmt.Errorf("%w: empty attacker name on AS %v", ErrBadTopology, a.aid)
		}
		if !ases[a.aid] {
			return fmt.Errorf("%w: attacker %q on undeclared AS %v", ErrBadTopology, a.name, a.aid)
		}
		if attackers[a.name] {
			return fmt.Errorf("%w: attacker %q declared twice", ErrBadTopology, a.name)
		}
		attackers[a.name] = true
	}
	if t.chaos != nil {
		for _, p := range []float64{t.chaos.Loss, t.chaos.DupProb, t.chaos.ReorderProb} {
			if p < 0 || p > 1 {
				return fmt.Errorf("%w: chaos probability %v outside [0,1]", ErrBadTopology, p)
			}
		}
		if t.chaos.Jitter < 0 || t.chaos.ReorderDelay < 0 {
			return fmt.Errorf("%w: negative chaos delay", ErrBadTopology)
		}
		for _, iv := range t.chaos.Partitions {
			if iv.From < 0 || iv.Until <= iv.From {
				return fmt.Errorf("%w: partition window [%v,%v) is empty or negative",
					ErrBadTopology, iv.From, iv.Until)
			}
		}
	}
	if lt := t.lifetimes; lt != nil {
		for _, d := range []time.Duration{lt.RenewLead, lt.CheckInterval, lt.GCInterval,
			lt.MigrateRetry, lt.RevokedRetention} {
			if d < 0 {
				return fmt.Errorf("%w: negative lifecycle duration %v", ErrBadTopology, d)
			}
		}
	}
	return nil
}
