// Package scenario is the declarative scenario DSL: a JSON (or struct)
// specification of a whole simulation run — topology, host population,
// attacker mix, chaos, virtual-time phases of actions, invariant
// selection and pass/fail bounds — plus a generic runner that compiles
// a Spec into the options of apna.New (a generator, WithHosts,
// WithChaos, WithAttacker, WithLifetimes, WithDissemination) and
// executes it on internal/netsim.
//
// Every chaotic decision of a run is captured as a seq-stamped fault
// schedule (netsim.CaptureFaults); re-running a spec against its
// recorded schedule reproduces the run bit-exactly, and a hand-edited
// schedule bends the network without touching any code. The scenarios
// E6, E7, E9 and E10 are specs (scenarios/e6.json, e7.json, e9.json,
// e10.json): the spec is the implementation, pinned by the golden
// corpus test.
//
// A spec is held to the gates its blocks and actions imply as well as
// to its bounds: complaints to their receipts and revocations,
// dissemination to its latency bound, a lifetimes block to the EphID
// lifecycle's (renewals and migrations happen, no pooled dial starves,
// nothing is delivered from an expired or revoked EphID, every flow
// delivers in every validity window, churn outlives its pool and GC
// reaps what was voluntarily revoked).
package scenario

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"os"
	"slices"
	"time"

	"apna"
	"apna/internal/invariant"
	"apna/internal/population"
)

// ErrBadSpec wraps every specification validation failure.
var ErrBadSpec = errors.New("scenario: invalid spec")

// Duration is a time.Duration that marshals as a Go duration string
// ("10ms") and unmarshals from either a string or integer nanoseconds.
type Duration time.Duration

// D returns the underlying time.Duration.
func (d Duration) D() time.Duration { return time.Duration(d) }

// MarshalJSON renders the duration as a string.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON accepts "10ms"-style strings or integer nanoseconds.
func (d *Duration) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err == nil {
		v, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("scenario: bad duration %q: %w", s, err)
		}
		*d = Duration(v)
		return nil
	}
	var ns int64
	if err := json.Unmarshal(b, &ns); err != nil {
		return fmt.Errorf("scenario: duration must be a string or nanoseconds: %s", b)
	}
	*d = Duration(ns)
	return nil
}

// Spec is a complete declarative scenario.
type Spec struct {
	// Name identifies the scenario in verdicts and artifacts.
	Name string `json:"name"`
	// Seed drives the deterministic simulation.
	Seed int64 `json:"seed"`
	// Topology lays out ASes, links and hosts.
	Topology TopologySpec `json:"topology"`
	// Chaos, when set, applies to every inter-AS link.
	Chaos *ChaosSpec `json:"chaos,omitempty"`
	// Attackers are rogue devices attached to ASes.
	Attackers []AttackerSpec `json:"attackers,omitempty"`
	// Lifetimes, when set, starts the EphID lifecycle engine and holds
	// the run to the lifecycle gates.
	Lifetimes *LifetimesSpec `json:"lifetimes,omitempty"`
	// Dissemination, when set, starts revocation-digest dissemination.
	Dissemination *DissemSpec `json:"dissemination,omitempty"`
	// Phases execute in order; each phase's actions share one await of
	// the virtual timeline (overlapping operations), and the next phase
	// starts only after the timeline quiesces.
	Phases []PhaseSpec `json:"phases"`
	// Invariants selects the paper properties to referee (names from
	// internal/invariant.Names); empty means no referee.
	Invariants []string `json:"invariants,omitempty"`
	// Bounds are the verdict's pass/fail thresholds.
	Bounds *Bounds `json:"bounds,omitempty"`
}

// TopologySpec describes the AS graph and host population. Hosts are
// named "h<as>-<idx>" with two-digit zero padding, or "<role>-<as>"
// when the topology declares roles ("<role>-<as>-<idx>" for a role
// with several hosts per AS).
type TopologySpec struct {
	// Kind selects the generator: "full-mesh", "line", "star" or
	// "as-graph".
	Kind string `json:"kind"`
	// ASes is the AS count for full-mesh/line/star (star: center plus
	// ASes-1 leaves). Every generator numbers the first AS 100.
	ASes int `json:"ases,omitempty"`
	// HostsPerAS bootstraps this many hosts in every AS.
	HostsPerAS int `json:"hosts_per_as"`
	// Roles, instead of HostsPerAS, bootstraps one host per role in
	// every AS, in role order: roles ["srv", "bad"] put srv-00 and
	// bad-00 in the first AS. Actions select hosts and flows by role.
	Roles []string `json:"roles,omitempty"`
	// RoleHosts gives a role more than one host per AS: {"cli": 2} puts
	// cli-00-00 and cli-00-01 where cli-00 would be. A target naming the
	// role means its first host.
	RoleHosts map[string]int `json:"role_hosts,omitempty"`
	// LinkLatency is the one-way inter-AS latency.
	LinkLatency Duration `json:"link_latency"`
	// Core/Mid/Stubs/ProvidersPerAS size the "as-graph"
	// provider/customer hierarchy (see apna.ASGraphConfig).
	Core           int `json:"core,omitempty"`
	Mid            int `json:"mid,omitempty"`
	Stubs          int `json:"stubs,omitempty"`
	ProvidersPerAS int `json:"providers_per_as,omitempty"`
	// CoreLatency is the core-core latency for "as-graph" (0: LinkLatency).
	CoreLatency Duration `json:"core_latency,omitempty"`
}

// ChaosSpec mirrors apna.ChaosConfig with JSON-friendly durations.
type ChaosSpec struct {
	Loss         float64         `json:"loss,omitempty"`
	Jitter       Duration        `json:"jitter,omitempty"`
	DupProb      float64         `json:"dup_prob,omitempty"`
	ReorderProb  float64         `json:"reorder_prob,omitempty"`
	ReorderDelay Duration        `json:"reorder_delay,omitempty"`
	Partitions   []PartitionSpec `json:"partitions,omitempty"`
}

// PartitionSpec is a timed partition window on every inter-AS link
// (for single-link partitions use the "partition" action instead).
type PartitionSpec struct {
	From  Duration `json:"from"`
	Until Duration `json:"until"`
}

// AttackerSpec attaches a named attacker to an AS, optionally
// wiretapping one inter-AS link.
type AttackerSpec struct {
	Name string `json:"name"`
	AS   uint32 `json:"as"`
	// Tap, when set, is the [a, b] inter-AS link the attacker wiretaps.
	Tap []uint32 `json:"tap,omitempty"`
}

// LifetimesSpec mirrors apna.Lifetimes with JSON-friendly durations.
type LifetimesSpec struct {
	RenewLead     Duration `json:"renew_lead,omitempty"`
	CheckInterval Duration `json:"check_interval,omitempty"`
	GCInterval    Duration `json:"gc_interval,omitempty"`
	MigrateRetry  Duration `json:"migrate_retry,omitempty"`
	RenewLifetime uint32   `json:"renew_lifetime_s,omitempty"`
}

// DissemSpec mirrors apna.Dissemination.
type DissemSpec struct {
	Interval Duration `json:"interval"`
	// Mode is "mesh" (default) or "relay".
	Mode          string `json:"mode,omitempty"`
	SnapshotEvery int    `json:"snapshot_every,omitempty"`
}

// PhaseSpec is one virtual-time phase: its actions run in order, the
// asynchronous operations they start share one await, and post-await
// steps (shutoff ground truth, resolve expectations) run once the
// timeline has quiesced.
type PhaseSpec struct {
	Name    string       `json:"name"`
	Actions []ActionSpec `json:"actions"`
}

// Action ops.
const (
	// OpIssue requests PerHost EphIDs (lifetime LifetimeS) on every
	// host, or on the hosts of Roles, all overlapping; consecutive issue
	// actions share one await.
	OpIssue = "issue"
	// OpDial establishes FlowsPerHost flows per host round-robin across
	// the population (the E6/E7 peer spread), or one flow (FromPool
	// flows) per host of each role To names, dialing each peer's last
	// issued EphID. Retries re-dials the flows that did not establish,
	// from the same source EphID, or from a fresh pool pick.
	OpDial = "dial"
	// OpChurn makes each host of a role To names dial its target from a
	// per-flow EphID it acquires from its pool, overlapping the phase's
	// other operations. Once the phase's await is over, every churn flow
	// that established sends one message and closes, and the first
	// Revoke EphIDs it closed are voluntarily revoked (Section VIII-G2)
	// and retired; the others go back to the pool.
	OpChurn = "churn"
	// OpSend sends one data wave ("flow %d wave %d") on every
	// established flow, or PerFlow messages on the flows of each role
	// PerFlow names. Retries re-sends the wave while a flow that sent
	// in it has delivered nothing.
	OpSend = "send"
	// OpShutoff files Count mid-flight shutoffs using retained
	// evidence, against flows sourced by Roles if set; see the shutoff
	// fields for target selection, ground truth, identity theft and the
	// cross-AS complaint form.
	OpShutoff = "shutoff"
	// OpAttack makes every attacker probe the selected attack surfaces.
	OpAttack = "attack"
	// OpPartition partitions the inter-AS link A-B for Duration
	// starting now.
	OpPartition = "partition"
	// OpPublish issues Host a receive-only EphID (plus a serving data
	// EphID) and registers it under As in the host's AS zone.
	OpPublish = "publish"
	// OpResolve runs the chained inter-domain lookup of As from From,
	// checks Expect ("ok" or "nxdomain"), and optionally dials the
	// resolved certificate.
	OpResolve = "resolve"
	// OpFlashcrowd pushes a modeled population with a flash-crowd
	// arrival spike through the control-plane engines
	// (internal/population) and folds its deterministic counters and
	// trace hash into the verdict.
	OpFlashcrowd = "flashcrowd"
	// OpRun advances virtual time by Duration.
	OpRun = "run"
)

// ActionSpec is one step of a phase; Op selects which of the field
// groups below applies.
type ActionSpec struct {
	Op string `json:"op"`

	// issue
	PerHost   int    `json:"per_host,omitempty"`
	LifetimeS uint32 `json:"lifetime_s,omitempty"`

	// dial
	FlowsPerHost int `json:"flows_per_host,omitempty"`
	// To maps a role to the host each host of that role dials, from its
	// first EphID, instead of the FlowsPerHost spread (churn: the host
	// each churn flow dials).
	To map[string]RoleTarget `json:"to,omitempty"`
	// FromPool makes a To dial open this many flows per host, each from
	// a per-flow EphID acquired from the host's pool; a dial that does
	// not establish returns its EphID, and a pool that has none to give
	// counts as an ErrNoEphID starvation.
	FromPool int `json:"from_pool,omitempty"`
	// Retries re-attempts what a dial, send or complaint left
	// unfinished, at most this many times.
	Retries int `json:"retries,omitempty"`

	// send: messages per flow, by the role of the flow's source.
	PerFlow map[string]int `json:"per_flow,omitempty"`

	// shutoff
	Count            int  `json:"count,omitempty"`
	PreferAttackerAS bool `json:"prefer_attacker_as,omitempty"`
	RecordRevoked    bool `json:"record_revoked,omitempty"`
	Steal            bool `json:"steal,omitempty"`
	// Roles limits an issue to hosts of these roles, and a shutoff's
	// targets to flows sourced by them.
	Roles []string `json:"roles,omitempty"`
	// Complain files each shutoff as a complaint to the victim's own
	// AS, which carries it across the border; the source AS's receipt
	// is checked, and the revocation counts from when that AS made it.
	Complain bool `json:"complain,omitempty"`

	// churn: how many of the EphIDs it closes are voluntarily revoked.
	Revoke int `json:"revoke,omitempty"`

	// attack
	Surfaces []string `json:"surfaces,omitempty"`
	Replay   bool     `json:"replay,omitempty"`
	// StealFrom makes every attacker steal the identity of the host it
	// names, counted from the attacker's AS, and inject a frame from it
	// at its own border: a third party, which can learn of the
	// revocation only through dissemination.
	StealFrom *RoleTarget `json:"steal_from,omitempty"`

	// partition
	A        uint32   `json:"a,omitempty"`
	B        uint32   `json:"b,omitempty"`
	Duration Duration `json:"duration,omitempty"` // also: run

	// publish / resolve
	Host   string `json:"host,omitempty"`
	From   string `json:"from,omitempty"`
	As     string `json:"name,omitempty"`
	Expect string `json:"expect,omitempty"`
	Dial   bool   `json:"dial,omitempty"`

	// flashcrowd
	Population *PopulationSpec `json:"population,omitempty"`
}

// RoleTarget names a host relative to an AS: the host of role Role in
// the AS ASOffset places after it, wrapping around the AS list.
type RoleTarget struct {
	Role     string `json:"role"`
	ASOffset int    `json:"as_offset,omitempty"`
}

// Attack surface names for ActionSpec.Surfaces.
const (
	SurfaceForged  = "forged"
	SurfaceForeign = "foreign"
	SurfaceSpoofed = "spoofed"
	SurfaceFramed  = "framed"
	SurfaceExpired = "expired"
)

// PopulationSpec sizes an OpFlashcrowd run. The trace is recorded so
// the verdict carries a deterministic hash of the whole modeled
// workload.
type PopulationSpec struct {
	Hosts      int     `json:"hosts"`
	Ticks      int     `json:"ticks"`
	Workers    int     `json:"workers"`
	FlashMult  float64 `json:"flash_mult,omitempty"`
	FlashTick  int     `json:"flash_tick,omitempty"`
	FlashTicks int     `json:"flash_ticks,omitempty"`
}

// Bounds are the verdict's pass/fail thresholds; zero values impose no
// bound. ShutoffsComplete additionally requires every filed shutoff to
// be accepted and the filed count to reach the requested count.
type Bounds struct {
	MinFlows         int    `json:"min_flows,omitempty"`
	MinDelivered     int    `json:"min_delivered,omitempty"`
	MinRevoked       int    `json:"min_revoked,omitempty"`
	MinResolved      int    `json:"min_resolved,omitempty"`
	MinFlashArrivals uint64 `json:"min_flash_arrivals,omitempty"`
	ShutoffsComplete bool   `json:"shutoffs_complete,omitempty"`
}

// Parse decodes and validates a JSON spec. Unknown fields are rejected
// so typos fail loudly instead of silently deforming the scenario.
func Parse(data []byte) (*Spec, error) {
	var s Spec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadSpec, err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Load reads and parses a spec file.
func Load(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// Validate checks the whole spec: topology shape, size caps, phase
// actions and their cross-references. The facade validates what it
// builds — the AS graph, attacker placement, chaos ranges, lifecycle
// durations — through apna.Layout, whose links the taps and partitions
// are checked against.
func (s *Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("%w: missing name", ErrBadSpec)
	}
	t := &s.Topology
	switch t.Kind {
	case "full-mesh", "line", "star":
		if t.ASes < 1 {
			return fmt.Errorf("%w: topology %q needs ases >= 1", ErrBadSpec, t.Kind)
		}
	case "as-graph":
		if t.Core < 1 || t.Mid < 0 || t.Stubs < 0 || t.ProvidersPerAS < 0 {
			return fmt.Errorf("%w: as-graph needs core >= 1 and non-negative tiers", ErrBadSpec)
		}
		if t.Stubs > 0 && t.Mid < 1 {
			return fmt.Errorf("%w: as-graph stubs need a mid tier", ErrBadSpec)
		}
	}
	// Size caps keep hostile or typo'd specs from allocating the world
	// before anything runs — validation lays every link out, and a
	// mesh has one per pair of its ASes, a customer one per provider.
	const maxASes, maxMeshASes, maxProviders, maxHostsPerAS = 4096, 256, 16, 4096
	for _, n := range []int{t.ASes, t.Core, t.Mid, t.Stubs} {
		if n > maxASes {
			return fmt.Errorf("%w: topology tier %d exceeds cap %d", ErrBadSpec, n, maxASes)
		}
	}
	if (t.Kind == "full-mesh" && t.ASes > maxMeshASes) || (t.Kind == "as-graph" && t.Core > maxMeshASes) {
		return fmt.Errorf("%w: full mesh of more than %d ASes exceeds cap", ErrBadSpec, maxMeshASes)
	}
	if t.ProvidersPerAS > maxProviders {
		return fmt.Errorf("%w: providers_per_as %d exceeds cap %d", ErrBadSpec, t.ProvidersPerAS, maxProviders)
	}
	perAS := t.HostsPerAS + len(t.Roles)
	for role, n := range t.RoleHosts {
		if !slices.Contains(t.Roles, role) || n < 2 || n > maxHostsPerAS {
			return fmt.Errorf("%w: role_hosts gives undeclared role %q or a count %d outside [2,%d]", ErrBadSpec, role, n, maxHostsPerAS)
		}
		perAS += n - 1
	}
	if t.HostsPerAS < 0 || perAS > maxHostsPerAS {
		return fmt.Errorf("%w: %d hosts per AS outside [0,%d]", ErrBadSpec, perAS, maxHostsPerAS)
	}
	if len(t.Roles) > 0 && t.HostsPerAS > 0 {
		return fmt.Errorf("%w: roles replace hosts_per_as; set one of them", ErrBadSpec)
	}
	for i, role := range t.Roles {
		if role == "" || slices.Contains(t.Roles[:i], role) {
			return fmt.Errorf("%w: role %q is empty or declared twice", ErrBadSpec, role)
		}
	}
	if d := s.Dissemination; d != nil {
		switch d.Mode {
		case "", "mesh", "relay":
		default:
			return fmt.Errorf("%w: dissemination mode %q is not \"mesh\" or \"relay\"", ErrBadSpec, d.Mode)
		}
		// The dissemination bound a run is held to is counted in
		// intervals.
		if d.Interval <= 0 {
			return fmt.Errorf("%w: dissemination needs a positive interval", ErrBadSpec)
		}
	}
	_, aids, links, err := s.compile()
	if err != nil {
		return err
	}
	linked := make(map[[2]apna.AID]bool, 2*len(links))
	for _, l := range links {
		linked[[2]apna.AID{l.A, l.B}] = true
		linked[[2]apna.AID{l.B, l.A}] = true
	}

	for _, a := range s.Attackers {
		if len(a.Tap) > 0 {
			if len(a.Tap) != 2 {
				return fmt.Errorf("%w: attacker %q tap wants [a, b], got %v", ErrBadSpec, a.Name, a.Tap)
			}
			if !linked[[2]apna.AID{apna.AID(a.Tap[0]), apna.AID(a.Tap[1])}] {
				return fmt.Errorf("%w: attacker %q taps missing link %d-%d",
					ErrBadSpec, a.Name, a.Tap[0], a.Tap[1])
			}
		}
	}

	for _, name := range s.Invariants {
		if !invariant.Known(name) {
			return fmt.Errorf("%w: unknown invariant %q (have %v)", ErrBadSpec, name, invariant.Names())
		}
	}

	if len(s.Phases) == 0 {
		return fmt.Errorf("%w: no phases", ErrBadSpec)
	}
	hostNames := make(map[string]bool)
	for i := range aids {
		for _, name := range t.hosts(i) {
			hostNames[name] = true
		}
	}
	// victimOffset is, per role, the AS offset of the host its flows
	// dial: what a third-party theft must stay clear of.
	victimOffset := make(map[string]int)
	mod := func(off int) int { return (off%len(aids) + len(aids)) % len(aids) }
	published := make(map[string]bool)
	// issuedTo is, per role ("" for every host), whether an issue
	// action reached it: dials need EphIDs at both ends.
	issuedTo := make(map[string]bool)
	issued := func(role string) bool { return issuedTo[""] || issuedTo[role] }
	dialed := false
	for pi := range s.Phases {
		ph := &s.Phases[pi]
		for ai := range ph.Actions {
			a := &ph.Actions[ai]
			where := fmt.Sprintf("phase %d (%s) action %d (%s)", pi, ph.Name, ai, a.Op)
			const maxRetries = 16
			retry := a.Op == OpDial || a.Op == OpSend || a.Complain
			if a.Retries < 0 || a.Retries > maxRetries || a.Retries > 0 && !retry {
				return fmt.Errorf("%w: %s retries %d (dials, sends and complaints retry up to %d times)", ErrBadSpec, where, a.Retries, maxRetries)
			}
			const maxPool = 64
			if a.FromPool < 0 || a.FromPool > maxPool || a.FromPool > 0 && (a.Op != OpDial || a.To == nil) {
				return fmt.Errorf("%w: %s from_pool %d (a dial toward to targets takes up to %d)", ErrBadSpec, where, a.FromPool, maxPool)
			}
			if a.Revoke < 0 || a.Revoke > 0 && a.Op != OpChurn {
				return fmt.Errorf("%w: %s revoke %d (churn revokes zero or more of the EphIDs it closes)", ErrBadSpec, where, a.Revoke)
			}
			for _, role := range a.roles() {
				if !slices.Contains(t.Roles, role) {
					return fmt.Errorf("%w: %s names unknown role %q (topology declares %v)", ErrBadSpec, where, role, t.Roles)
				}
			}
			switch a.Op {
			case OpIssue:
				if a.PerHost < 1 || a.LifetimeS < 1 {
					return fmt.Errorf("%w: %s needs per_host and lifetime_s >= 1", ErrBadSpec, where)
				}
				issuedTo[""] = issuedTo[""] || len(a.Roles) == 0
				for _, role := range a.Roles {
					issuedTo[role] = true
				}
			case OpDial, OpChurn:
				if a.Op == OpChurn && a.To == nil {
					return fmt.Errorf("%w: %s needs a to target", ErrBadSpec, where)
				}
				if a.Op == OpDial && (a.To == nil) == (a.FlowsPerHost < 1) {
					return fmt.Errorf("%w: %s needs exactly one of flows_per_host >= 1 and to", ErrBadSpec, where)
				}
				everyHost := issued("") || len(t.Roles) > 0 && !slices.ContainsFunc(t.Roles, func(r string) bool { return !issued(r) })
				if a.To == nil && !everyHost {
					return fmt.Errorf("%w: %s before any issue action", ErrBadSpec, where)
				}
				for _, role := range slices.Sorted(maps.Keys(a.To)) {
					dst := a.To[role]
					if !issued(role) || !issued(dst.Role) {
						return fmt.Errorf("%w: %s before any issue to %q and %q", ErrBadSpec, where, role, dst.Role)
					}
					if a.Op == OpDial {
						victimOffset[role] = dst.ASOffset
					}
				}
				dialed = dialed || a.Op == OpDial
			case OpSend:
				if !dialed {
					return fmt.Errorf("%w: %s before any dial action", ErrBadSpec, where)
				}
				if len(a.PerFlow) > 0 && slices.Min(slices.Collect(maps.Values(a.PerFlow))) < 1 {
					return fmt.Errorf("%w: %s sends fewer than one message per flow", ErrBadSpec, where)
				}
			case OpShutoff:
				if a.Count < 1 {
					return fmt.Errorf("%w: %s needs count >= 1", ErrBadSpec, where)
				}
				if !dialed {
					return fmt.Errorf("%w: %s before any dial action", ErrBadSpec, where)
				}
				if a.Steal && len(s.Attackers) == 0 {
					return fmt.Errorf("%w: %s steals identities without attackers", ErrBadSpec, where)
				}
				if a.Complain && (a.RecordRevoked || a.Steal) {
					return fmt.Errorf("%w: %s complaints check their receipts; drop record_revoked and steal", ErrBadSpec, where)
				}
			case OpAttack:
				if len(s.Attackers) == 0 {
					return fmt.Errorf("%w: %s without attackers", ErrBadSpec, where)
				}
				for _, sf := range a.Surfaces {
					switch sf {
					case SurfaceForged, SurfaceForeign, SurfaceSpoofed, SurfaceFramed, SurfaceExpired:
					default:
						return fmt.Errorf("%w: %s has unknown surface %q", ErrBadSpec, where, sf)
					}
				}
				if st := a.StealFrom; st != nil {
					victim, ok := victimOffset[st.Role]
					if !ok {
						return fmt.Errorf("%w: %s steals from role %q, which dials nothing", ErrBadSpec, where, st.Role)
					}
					// The injection lands at the attacker's border; there
					// the stolen host's own AS knows the revocation from
					// its local list and its victim's AS from the receipt.
					if mod(st.ASOffset) == 0 || mod(st.ASOffset+victim) == 0 {
						return fmt.Errorf("%w: %s steal offset %d collapses onto the attacker's or the victim's AS among %d ASes",
							ErrBadSpec, where, st.ASOffset, len(aids))
					}
				}
			case OpPartition:
				if a.Duration <= 0 {
					return fmt.Errorf("%w: %s needs a positive duration", ErrBadSpec, where)
				}
				if !linked[[2]apna.AID{apna.AID(a.A), apna.AID(a.B)}] {
					return fmt.Errorf("%w: %s partitions missing link %d-%d", ErrBadSpec, where, a.A, a.B)
				}
			case OpPublish:
				if !hostNames[a.Host] {
					return fmt.Errorf("%w: %s on unknown host %q", ErrBadSpec, where, a.Host)
				}
				if a.As == "" {
					return fmt.Errorf("%w: %s needs a name", ErrBadSpec, where)
				}
				published[a.As] = true
			case OpResolve:
				if !hostNames[a.From] {
					return fmt.Errorf("%w: %s from unknown host %q", ErrBadSpec, where, a.From)
				}
				if a.As == "" {
					return fmt.Errorf("%w: %s needs a name", ErrBadSpec, where)
				}
				switch a.Expect {
				case "ok", "nxdomain":
				default:
					return fmt.Errorf("%w: %s expect must be \"ok\" or \"nxdomain\", got %q",
						ErrBadSpec, where, a.Expect)
				}
				if a.Expect == "ok" && !published[a.As] {
					return fmt.Errorf("%w: %s expects %q resolved but nothing published it",
						ErrBadSpec, where, a.As)
				}
				if a.Dial && a.Expect != "ok" {
					return fmt.Errorf("%w: %s dials a name expected to be denied", ErrBadSpec, where)
				}
			case OpFlashcrowd:
				p := a.Population
				if p == nil || p.Hosts < 1 || p.Ticks < 1 {
					return fmt.Errorf("%w: %s needs population hosts and ticks >= 1", ErrBadSpec, where)
				}
				if p.Workers < 1 {
					return fmt.Errorf("%w: %s needs an explicit worker count (determinism)", ErrBadSpec, where)
				}
				cfg := population.DefaultConfig()
				cfg.Hosts, cfg.Ticks, cfg.Workers = p.Hosts, p.Ticks, p.Workers
				cfg.FlashMult, cfg.FlashTick, cfg.FlashTicks = p.FlashMult, p.FlashTick, p.FlashTicks
				if err := cfg.Validate(); err != nil {
					return fmt.Errorf("%w: %s: %w", ErrBadSpec, where, err)
				}
			case OpRun:
				if a.Duration <= 0 {
					return fmt.Errorf("%w: %s needs a positive duration", ErrBadSpec, where)
				}
			default:
				return fmt.Errorf("%w: %s is not a known op", ErrBadSpec, where)
			}
		}
	}
	return nil
}

// roles lists, in a fixed order, every role the action names.
func (a *ActionSpec) roles() []string {
	roles := slices.Concat(a.Roles, slices.Sorted(maps.Keys(a.To)), slices.Sorted(maps.Keys(a.PerFlow)))
	for _, role := range slices.Sorted(maps.Keys(a.To)) {
		roles = append(roles, a.To[role].Role)
	}
	if a.StealFrom != nil {
		roles = append(roles, a.StealFrom.Role)
	}
	return roles
}

// hosts names the hosts of the i-th AS in layout order: one per role
// ("srv-03") or RoleHosts of it ("cli-03-00", "cli-03-01"), or
// HostsPerAS numbered ones ("h03-00").
func (t *TopologySpec) hosts(i int) []string {
	var names []string
	for j := range t.HostsPerAS {
		names = append(names, fmt.Sprintf("h%02d-%02d", i, j))
	}
	for _, role := range t.Roles {
		if n := t.RoleHosts[role]; n > 0 {
			for j := range n {
				names = append(names, fmt.Sprintf("%s-%02d-%02d", role, i, j))
			}
			continue
		}
		names = append(names, fmt.Sprintf("%s-%02d", role, i))
	}
	return names
}

// layout lists the role of each host of an AS in layout order, a role
// once per host it has; nil without roles.
func (t *TopologySpec) layout() []string {
	var roles []string
	for _, role := range t.Roles {
		for range max(t.RoleHosts[role], 1) {
			roles = append(roles, role)
		}
	}
	return roles
}

// compile turns everything in the spec but its hosts into facade
// options and has apna.Layout validate them: it returns the options,
// the ASes in generator order and the inter-AS links. Host names are
// the scenario's own and unique by construction; Run adds them once
// the ASes are known.
func (s *Spec) compile() ([]apna.TopologyOption, []apna.AID, []apna.ASLink, error) {
	t := &s.Topology
	const first apna.AID = 100
	var topo []apna.TopologyOption
	switch t.Kind {
	case "full-mesh":
		topo = append(topo, apna.WithFullMesh(first, t.ASes, t.LinkLatency.D()))
	case "line":
		topo = append(topo, apna.WithLine(first, t.ASes, t.LinkLatency.D()))
	case "star":
		topo = append(topo, apna.WithStar(first, t.ASes-1, t.LinkLatency.D()))
	case "as-graph":
		core := t.CoreLatency.D()
		if core == 0 {
			core = t.LinkLatency.D()
		}
		topo = append(topo, apna.WithASGraph(first, apna.ASGraphConfig{
			Core: t.Core, Mid: t.Mid, Stubs: t.Stubs,
			ProvidersPerAS: t.ProvidersPerAS,
			CoreLatency:    core, Latency: t.LinkLatency.D(),
		}))
	default:
		return nil, nil, nil, fmt.Errorf("%w: unknown topology kind %q", ErrBadSpec, t.Kind)
	}
	if c := s.Chaos; c != nil {
		cfg := apna.ChaosConfig{
			Loss: c.Loss, Jitter: c.Jitter.D(), DupProb: c.DupProb,
			ReorderProb: c.ReorderProb, ReorderDelay: c.ReorderDelay.D(),
		}
		for _, iv := range c.Partitions {
			cfg.Partitions = append(cfg.Partitions,
				apna.ChaosInterval{From: iv.From.D(), Until: iv.Until.D()})
		}
		topo = append(topo, apna.WithChaos(cfg))
	}
	for _, a := range s.Attackers {
		topo = append(topo, apna.WithAttacker(apna.AID(a.AS), a.Name))
	}
	if lt := s.Lifetimes; lt != nil {
		topo = append(topo, apna.WithLifetimes(apna.Lifetimes{
			RenewLead: lt.RenewLead.D(), CheckInterval: lt.CheckInterval.D(),
			GCInterval: lt.GCInterval.D(), MigrateRetry: lt.MigrateRetry.D(),
			RenewLifetime: lt.RenewLifetime,
		}))
	}
	if d := s.Dissemination; d != nil {
		mode := apna.DisseminateMesh
		if d.Mode == "relay" {
			mode = apna.DisseminateRelay
		}
		topo = append(topo, apna.WithDissemination(apna.Dissemination{
			Interval: d.Interval.D(), Mode: mode, SnapshotEvery: d.SnapshotEvery,
		}))
	}
	aids, links, err := apna.Layout(topo...)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("%w: %w", ErrBadSpec, err)
	}
	return topo, aids, links, nil
}
