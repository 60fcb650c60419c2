// Package apna is a from-scratch implementation of APNA, the
// Accountable and Private Network Architecture of Lee, Pappas, Barrera,
// Szalachowski and Perrig, "Source Accountability with Domain-brokered
// Privacy" (CoNEXT 2016).
//
// The package is the public facade: it composes the internal protocol
// engines (EphID sealing, registry, management service, border routers,
// accountability agents, DNS, host stacks) into a deterministic
// simulated internet of ASes, hosts and links, against which all of the
// paper's protocols run end to end.
//
// A minimal session looks like:
//
//	in, _ := apna.New(1,
//		apna.WithAS(100, "alice"),
//		apna.WithAS(200, "bob"),
//		apna.WithLink(100, 200, 20*time.Millisecond))
//
//	alice, bob := in.Host("alice"), in.Host("bob")
//	idA, _ := alice.NewEphID(ephid.KindData, 900)
//	idB, _ := bob.NewEphID(ephid.KindData, 900)
//
//	conn, _ := alice.Connect(idA, &idB.Cert, nil)
//	alice.Send(conn, []byte("hello over encrypted APNA"))
//
// Every packet alice sends is linkable to her by AS 100 (and only
// AS 100), carries a MAC her AS verifies at egress, and is encrypted
// end to end with a key derived from the two EphIDs' certificates.
//
// The options passed to New are the only way to describe an internet:
// ASes and links (WithAS, WithLink, the WithLine/WithStar/WithFullMesh/
// WithASGraph generators), hosts, attackers, chaos, the EphID lifecycle
// engine and revocation-digest dissemination. Layout returns the ASes
// and links a description lays out without building it; AddHosts adds
// hosts to a running internet.
//
// Every blocking helper above is a thin Await wrapper over a
// non-blocking *Async counterpart (NewEphIDAsync, ConnectAsync, ...)
// returning a Pending future. Initiating many operations before
// awaiting them interleaves their packets in one shared timeline:
//
//	ops := []apna.Op{}
//	for _, h := range in.Hosts() {
//		ops = append(ops, h.NewEphIDAsync(ephid.KindData, 900))
//	}
//	in.AwaitAll(ops...) // all issuance handshakes overlap
//
// Use of AS, Host and Internet values is single-goroutine, matching the
// discrete-event simulator underneath; see README.md for a tour and
// DESIGN.md for the architecture.
package apna

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"apna/internal/cert"
	"apna/internal/dns"
	"apna/internal/ephid"
	"apna/internal/host"
	"apna/internal/ms"
	"apna/internal/netsim"
	"apna/internal/rpki"
	"apna/internal/wire"
)

// Re-exported types: the facade's own signatures name these, so a
// caller of the facade can write the values it hands out — identifiers,
// certificates, connections and messages — without spelling the
// internal package each comes from.
type (
	// AID identifies an AS.
	AID = ephid.AID
	// HID identifies a host within its AS.
	HID = ephid.HID
	// EphID is the 16-byte ephemeral identifier.
	EphID = ephid.EphID
	// Endpoint is a routable AID:EphID address.
	Endpoint = wire.Endpoint
	// Cert is an AS-issued EphID certificate.
	Cert = cert.Cert
	// OwnedEphID is an EphID a host holds the private keys for.
	OwnedEphID = host.OwnedEphID
	// Conn is a host's handle on an established connection.
	Conn = host.Conn
	// Message is application data delivered by a host stack.
	Message = host.Message
)

// PerFlow is the EphID granularity (Section VIII-A) that gives every
// connection a fresh EphID, released by Conn.Close — the per-flow pools
// the lifecycle engine (WithLifetimes) keeps fed.
const PerFlow = host.PerFlow

// Re-exported EphID kinds (Section VIII-A / VII-A of the paper).
const (
	// KindData is a data-plane EphID for regular communication.
	KindData = ephid.KindData
	// KindReceiveOnly marks an EphID that is only ever a destination.
	KindReceiveOnly = ephid.KindReceiveOnly
)

// Errors returned by the facade.
var (
	ErrDuplicateHost = errors.New("apna: host name already exists")
	ErrUnknownAS     = errors.New("apna: unknown AS")
	ErrTimeout       = errors.New("apna: operation did not complete")
)

// Options tunes internet construction.
type Options struct {
	// HostLinkLatency is the one-way latency of host access links.
	HostLinkLatency time.Duration
	// ServiceLinkLatency is the one-way latency between a border
	// router and AS-internal services.
	ServiceLinkLatency time.Duration
	// StrikeLimit configures accountability agents (0 disables HID
	// escalation).
	StrikeLimit int
	// Policy is the MS issuance policy.
	Policy ms.Policy
}

// DefaultOptions returns sane simulation defaults.
func DefaultOptions() Options {
	return Options{
		HostLinkLatency:    200 * time.Microsecond,
		ServiceLinkLatency: 50 * time.Microsecond,
		StrikeLimit:        7,
		Policy:             ms.DefaultPolicy(),
	}
}

// Internet is a simulated APNA internet.
type Internet struct {
	Sim   *netsim.Simulator
	Trust *rpki.TrustStore
	Zone  *dns.Zone

	opts      Options
	authority *rpki.Authority
	ases      map[AID]*AS
	hosts     map[string]*Host
	attackers map[string]*Attacker
	adjacency map[AID][]AID
	links     map[asPair]*netsim.Link
	// live holds outstanding async operations with reply-routing state,
	// settled (resolved or abandoned) whenever the timeline quiesces.
	live []Op
	// lifecycle, when non-nil, is the running EphID lifecycle engine
	// (WithLifetimes).
	lifecycle *Lifecycle
	// acctObserver, when non-nil, observes every accountability-plane
	// event across all AS engines (OnAccountability).
	acctObserver func(AcctEvent)
}

// New builds a ready internet from a description: every AS stood up,
// links connected, routes computed, hosts bootstrapped, attackers
// attached and the optional engines started. The whole description is
// validated before anything is built, so a bad one costs nothing and
// fails with ErrBadTopology.
func New(seed int64, topo ...TopologyOption) (*Internet, error) {
	t, err := describe(topo)
	if err != nil {
		return nil, err
	}
	auth, err := rpki.NewAuthority()
	if err != nil {
		return nil, err
	}
	zone, err := dns.NewZone()
	if err != nil {
		return nil, err
	}
	in := &Internet{
		Sim:       netsim.New(seed),
		Trust:     rpki.NewTrustStore(auth.PublicKey()),
		Zone:      zone,
		opts:      t.opts,
		authority: auth,
		ases:      make(map[AID]*AS),
		hosts:     make(map[string]*Host),
		attackers: make(map[string]*Attacker),
		adjacency: make(map[AID][]AID),
		links:     make(map[asPair]*netsim.Link),
	}
	for _, as := range t.ases {
		if err := in.addAS(as.aid); err != nil {
			return nil, err
		}
	}
	for _, l := range t.links {
		link := in.Sim.NewLink(fmt.Sprintf("%v-%v", l.A, l.B), l.Latency, 0)
		in.ases[l.A].Router.AttachNeighbor(l.B, link.A())
		in.ases[l.B].Router.AttachNeighbor(l.A, link.B())
		in.adjacency[l.A] = append(in.adjacency[l.A], l.B)
		in.adjacency[l.B] = append(in.adjacency[l.B], l.A)
		in.links[pairOf(l.A, l.B)] = link
	}
	if err := in.introduce(); err != nil {
		return nil, err
	}
	if t.chaos != nil {
		for _, l := range in.links {
			l.SetChaos(*t.chaos)
		}
	}
	for _, as := range t.ases {
		if _, err := in.AddHosts(as.aid, as.hosts...); err != nil {
			return nil, err
		}
	}
	for _, a := range t.attackers {
		in.addAttacker(a.aid, a.name)
	}
	if t.lifetimes != nil {
		in.startLifecycle(*t.lifetimes)
	}
	if t.dissem != nil {
		in.startDissemination(*t.dissem)
	}
	return in, nil
}

// asPair keys an inter-AS link by its endpoints, lowest AID first.
type asPair struct{ lo, hi AID }

func pairOf(a, b AID) asPair {
	if b < a {
		a, b = b, a
	}
	return asPair{lo: a, hi: b}
}

// Now returns the current virtual Unix time.
func (in *Internet) Now() int64 { return in.Sim.NowUnix() }

// AS returns the AS with the given AID, or nil.
func (in *Internet) AS(aid AID) *AS { return in.ases[aid] }

// Host returns the host with the given name, or nil. Names are assigned
// by AddHosts / WithAS / WithHosts and are unique within the internet.
func (in *Internet) Host(name string) *Host { return in.hosts[name] }

// ASes returns every AS in the internet, sorted by AID — the
// deterministic iteration order scheduled maintenance (lifecycle GC)
// and scenario code rely on.
func (in *Internet) ASes() []*AS {
	aids := make([]AID, 0, len(in.ases))
	for aid := range in.ases {
		aids = append(aids, aid)
	}
	sort.Slice(aids, func(i, j int) bool { return aids[i] < aids[j] })
	out := make([]*AS, len(aids))
	for i, aid := range aids {
		out[i] = in.ases[aid]
	}
	return out
}

// Hosts returns every host in the internet, sorted by name, for
// scenario code that fans operations out across the whole population.
func (in *Internet) Hosts() []*Host {
	names := make([]string, 0, len(in.hosts))
	for name := range in.hosts {
		names = append(names, name)
	}
	sort.Strings(names)
	hosts := make([]*Host, len(names))
	for i, name := range names {
		hosts[i] = in.hosts[name]
	}
	return hosts
}

// InterASLink returns the link between two directly connected ASes, or
// nil — the handle partitions and adversarial wiretaps use.
func (in *Internet) InterASLink(a, b AID) *netsim.Link { return in.links[pairOf(a, b)] }

// introduce runs once every AS and link exists: it computes inter-domain
// routes and installs them on every border router, introduces every
// accountability engine to its peers so revocation digests can flood
// the whole internet, and gives every DNS resolver a referral to every
// other AS's zone.
func (in *Internet) introduce() error {
	tables := netsim.ComputeAllRoutes(in.adjacency)
	for aid, as := range in.ases {
		as.Router.SetRoutes(tables[aid])
	}
	for _, a := range in.ases {
		for _, b := range in.ases {
			if a != b {
				_, _, aaEp := b.ServiceEndpoints()
				a.Acct.RegisterPeer(b.AID, aaEp.EphID)
			}
		}
	}
	// Physically linked ASes are also relay-overlay neighbors, so digest
	// dissemination in relay mode follows the same provider/customer
	// edges packets do.
	for aid, nbrs := range in.adjacency {
		a := in.ases[aid]
		for _, nb := range nbrs {
			_, _, aaEp := in.ases[nb].ServiceEndpoints()
			a.Acct.RegisterNeighbor(nb, aaEp.EphID)
		}
	}
	// DNS delegation: every AS's resolver learns a signed referral for
	// every other AS's apex, carrying the remote resolver's certificate
	// and zone key under the local zone's signature — the DNSSEC-style
	// chain a resolving host walks for cross-AS names (Section VII-A).
	refTTL := in.Sim.NowUnix() + 10*365*24*3600
	for _, a := range in.ases {
		for _, b := range in.ases {
			if a == b {
				continue
			}
			ref, err := a.Zone.Refer(b.Zone.Apex(), &b.dnsID.Cert, b.Zone.PublicKey(), refTTL)
			if err != nil {
				return err
			}
			a.dnsSvc.AddReferral(ref)
		}
	}
	return nil
}

// RunUntilIdle drains the event queue (bounded) and returns the number
// of events executed. Reaching idle settles outstanding asynchronous
// operations exactly like an Await that drains the timeline.
func (in *Internet) RunUntilIdle() int {
	n := in.Sim.Run(1 << 22)
	if in.Sim.Pending() == 0 {
		in.settleLive()
	}
	return n
}

// RunFor advances virtual time by d, executing due events. Like
// RunUntilIdle, reaching quiescence settles outstanding asynchronous
// operations.
func (in *Internet) RunFor(d time.Duration) {
	in.Sim.RunUntil(in.Sim.Now() + d)
	if in.Sim.Pending() == 0 {
		in.settleLive()
	}
}
