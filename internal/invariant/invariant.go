// Package invariant checks the paper's security properties over whole
// simulation runs. It is the conformance half of the adversarial
// harness: internal/adversary plays the attacker, this package plays
// the referee.
//
// The checker is an event recorder. Scenario code feeds it ground
// truth as the run unfolds — EphIDs issued (Section IV-C), dials
// initiated and handshakes accepted (Section IV-D1), messages
// delivered through the per-flow taps of internal/host, shutoffs
// applied (Section IV-E), and attack frames injected
// (internal/adversary) — and Check replays the trace against the
// invariant list:
//
//   - attributable:     every delivered packet's source EphID was
//     genuinely issued by the AS it claims (Sections III-B, IV-D3).
//   - no-forged-accept: no attacker-fabricated EphID ever reached an
//     application, as a data source or a handshake peer (Section IV-B).
//   - shutoff-stops:    after a shutoff lands (plus an in-flight grace
//     window), nothing more is delivered from the revoked EphID
//     (Section IV-E).
//   - no-replay:        no (flow, nonce) pair is delivered twice and no
//     flow completes more handshakes than were dialed (Section VIII-D).
//   - flow-unlinkable:  under per-flow granularity a source EphID
//     appears in at most one flow (Section VIII-A) — reuse would let
//     observers link flows.
package invariant

import (
	"fmt"
	"time"

	"apna/internal/ephid"
	"apna/internal/host"
	"apna/internal/wire"
)

// Invariant names (stable identifiers used in reports and JSON).
const (
	InvAttributable   = "attributable"
	InvNoForgedAccept = "no-forged-accept"
	InvShutoffStops   = "shutoff-stops"
	InvNoReplay       = "no-replay"
	InvFlowUnlinkable = "flow-unlinkable"
)

// flowKey identifies a unidirectional flow by its endpoints.
type flowKey struct {
	src, dst wire.Endpoint
}

// delivery is one recorded application-level delivery.
type delivery struct {
	at    time.Duration
	host  string
	flow  wire.Flow
	nonce uint64
}

// Checker accumulates a run's trace. It is driven from simulator
// callbacks on a single goroutine, like everything else in the
// simulation.
type Checker struct {
	now func() time.Duration
	// grace is how long after a shutoff in-flight packets may still
	// legitimately arrive (maximum path delay under the run's chaos
	// configuration).
	grace time.Duration

	issued     map[ephid.EphID]ephid.AID
	dials      map[flowKey]int
	accepts    map[flowKey]int
	acceptAt   map[flowKey]time.Duration
	deliveries []delivery
	revokedAt  map[ephid.EphID]time.Duration
	forged     map[ephid.EphID]bool
}

// New creates a checker. now supplies virtual time (the simulator's
// clock); grace bounds how long after a shutoff in-flight traffic may
// still arrive.
func New(now func() time.Duration, grace time.Duration) *Checker {
	return &Checker{
		now: now, grace: grace,
		issued:    make(map[ephid.EphID]ephid.AID),
		dials:     make(map[flowKey]int),
		accepts:   make(map[flowKey]int),
		acceptAt:  make(map[flowKey]time.Duration),
		revokedAt: make(map[ephid.EphID]time.Duration),
		forged:    make(map[ephid.EphID]bool),
	}
}

// Issued records that an AS issued an EphID to one of its hosts —
// including the service and control EphIDs stood up at bootstrap if
// their traffic can reach the observed hosts.
func (c *Checker) Issued(aid ephid.AID, e ephid.EphID) { c.issued[e] = aid }

// Dialed records a handshake initiation from src toward dst.
func (c *Checker) Dialed(src, dst wire.Endpoint) { c.dials[flowKey{src, dst}]++ }

// Accepted records a responder-side handshake completion: peer is the
// initiating endpoint, addressed the endpoint the initiator dialed
// (matching the key recorded by Dialed). Wire it to host.OnAccept.
func (c *Checker) Accepted(peer, addressed wire.Endpoint) {
	k := flowKey{peer, addressed}
	c.accepts[k]++
	c.acceptAt[k] = c.now()
}

// Delivered records an application-level delivery on hostName's stack.
// Wire it to host.OnMessage (or a per-flow tap); the nonce is read from
// the message's retained raw frame.
func (c *Checker) Delivered(hostName string, m host.Message) {
	var nonce uint64
	var hdr wire.Header
	if err := hdr.DecodeFromBytes(m.Raw); err == nil {
		nonce = hdr.Nonce
	}
	c.deliveries = append(c.deliveries, delivery{
		at: c.now(), host: hostName, flow: m.Flow, nonce: nonce,
	})
}

// Revoked records that a shutoff for e has been applied at the border
// routers by the current virtual time.
func (c *Checker) Revoked(e ephid.EphID) { c.RevokedAt(e, c.now()) }

// RevokedAt records that the shutoff for e took effect at virtual time
// at — for a cross-AS complaint, when the source AS executed it, which
// is earlier than when the victim learns so from the receipt.
func (c *Checker) RevokedAt(e ephid.EphID, at time.Duration) {
	if _, dup := c.revokedAt[e]; !dup {
		c.revokedAt[e] = at
	}
}

// ForgedInjected records an attacker-fabricated source EphID — the
// kinds adversary.Kind.Fabricated reports: forged, spoofed or expired
// injections. Foreign and framing injections are NOT fabricated (they
// name genuine honest-host EphIDs, so recording them would flag the
// victims' legitimate traffic), and replays of genuine frames are
// covered by the replay invariant instead.
func (c *Checker) ForgedInjected(e ephid.EphID) { c.forged[e] = true }

// Violation is one concrete invariant breach.
type Violation struct {
	Invariant string `json:"invariant"`
	Detail    string `json:"detail"`
}

// Result is the verdict for one invariant.
type Result struct {
	Name string `json:"name"`
	// Section cites the paper property the invariant encodes.
	Section    string      `json:"section"`
	OK         bool        `json:"ok"`
	Checked    int         `json:"checked"`
	Violations []Violation `json:"violations,omitempty"`
}

// Report is the verdict for a whole run.
type Report struct {
	OK      bool     `json:"ok"`
	Results []Result `json:"invariants"`
}

// registry is the named-invariant table in canonical check order.
// Declarative scenario specs select invariant subsets by these names.
var registry = []string{
	InvAttributable,
	InvNoForgedAccept,
	InvShutoffStops,
	InvNoReplay,
	InvFlowUnlinkable,
}

// Names returns every registered invariant name in canonical check
// order. The slice is a copy; callers may mutate it.
func Names() []string { return append([]string(nil), registry...) }

// Known reports whether name identifies a registered invariant.
func Known(name string) bool {
	for _, n := range registry {
		if n == name {
			return true
		}
	}
	return false
}

func (c *Checker) checkFor(name string) func() Result {
	switch name {
	case InvAttributable:
		return c.checkAttributable
	case InvNoForgedAccept:
		return c.checkNoForgedAccept
	case InvShutoffStops:
		return c.checkShutoffStops
	case InvNoReplay:
		return c.checkNoReplay
	case InvFlowUnlinkable:
		return c.checkFlowUnlinkable
	default:
		return nil
	}
}

// CheckSelected replays the recorded trace against the named invariants
// only, in canonical registry order regardless of the order given. A
// nil or empty selection checks everything; an unknown name is an
// error, not a silent skip — a spec asking for a property that does not
// exist must fail loudly.
func (c *Checker) CheckSelected(names []string) (*Report, error) {
	selected := registry
	if len(names) > 0 {
		want := make(map[string]bool, len(names))
		for _, n := range names {
			if !Known(n) {
				return nil, fmt.Errorf("invariant: unknown invariant %q (have %v)", n, registry)
			}
			want[n] = true
		}
		selected = selected[:0:0]
		for _, n := range registry {
			if want[n] {
				selected = append(selected, n)
			}
		}
	}
	rep := &Report{OK: true}
	for _, name := range selected {
		res := c.checkFor(name)()
		res.OK = len(res.Violations) == 0
		rep.OK = rep.OK && res.OK
		rep.Results = append(rep.Results, res)
	}
	return rep, nil
}

func (c *Checker) checkAttributable() Result {
	res := Result{Name: InvAttributable, Section: "III-B, IV-D3"}
	for _, d := range c.deliveries {
		res.Checked++
		aid, ok := c.issued[d.flow.Src.EphID]
		switch {
		case !ok:
			res.Violations = append(res.Violations, Violation{InvAttributable,
				fmt.Sprintf("%s received %v from unissued EphID at %v", d.host, d.flow, d.at)})
		case aid != d.flow.Src.AID:
			res.Violations = append(res.Violations, Violation{InvAttributable,
				fmt.Sprintf("%s received %v claiming %v but EphID was issued by %v",
					d.host, d.flow, d.flow.Src.AID, aid)})
		}
	}
	return res
}

func (c *Checker) checkNoForgedAccept() Result {
	res := Result{Name: InvNoForgedAccept, Section: "IV-B"}
	for _, d := range c.deliveries {
		res.Checked++
		if c.forged[d.flow.Src.EphID] {
			res.Violations = append(res.Violations, Violation{InvNoForgedAccept,
				fmt.Sprintf("%s accepted data from forged EphID %v at %v", d.host, d.flow.Src, d.at)})
		}
	}
	for k := range c.accepts {
		res.Checked++
		if c.forged[k.src.EphID] {
			res.Violations = append(res.Violations, Violation{InvNoForgedAccept,
				fmt.Sprintf("handshake accepted from forged EphID %v", k.src)})
		}
	}
	return res
}

func (c *Checker) checkShutoffStops() Result {
	res := Result{Name: InvShutoffStops, Section: "IV-E"}
	for _, d := range c.deliveries {
		rev, ok := c.revokedAt[d.flow.Src.EphID]
		if !ok {
			continue
		}
		res.Checked++
		if d.at > rev+c.grace {
			res.Violations = append(res.Violations, Violation{InvShutoffStops,
				fmt.Sprintf("%s received %v at %v, %v after shutoff(+grace %v) at %v",
					d.host, d.flow, d.at, d.at-rev, c.grace, rev)})
		}
	}
	return res
}

func (c *Checker) checkNoReplay() Result {
	res := Result{Name: InvNoReplay, Section: "VIII-D"}
	seen := make(map[string]bool, len(c.deliveries))
	for _, d := range c.deliveries {
		res.Checked++
		key := fmt.Sprintf("%s|%d", d.flow, d.nonce)
		if seen[key] {
			res.Violations = append(res.Violations, Violation{InvNoReplay,
				fmt.Sprintf("%s delivered flow %v nonce %d twice", d.host, d.flow, d.nonce)})
		}
		seen[key] = true
	}
	for k, n := range c.accepts {
		res.Checked++
		if dials := c.dials[k]; n > dials {
			res.Violations = append(res.Violations, Violation{InvNoReplay,
				fmt.Sprintf("flow %v->%v completed %d handshakes for %d dials", k.src, k.dst, n, dials)})
		}
	}
	return res
}

func (c *Checker) checkFlowUnlinkable() Result {
	res := Result{Name: InvFlowUnlinkable, Section: "VIII-A"}
	peers := make(map[ephid.EphID]map[wire.Endpoint]bool)
	note := func(src ephid.EphID, dst wire.Endpoint) {
		if peers[src] == nil {
			peers[src] = make(map[wire.Endpoint]bool)
		}
		peers[src][dst] = true
	}
	for k := range c.dials {
		note(k.src.EphID, k.dst)
	}
	for _, d := range c.deliveries {
		note(d.flow.Src.EphID, d.flow.Dst)
	}
	for src, dsts := range peers {
		res.Checked++
		if len(dsts) > 1 {
			res.Violations = append(res.Violations, Violation{InvFlowUnlinkable,
				fmt.Sprintf("source EphID %v used toward %d peers", src, len(dsts))})
		}
	}
	return res
}
