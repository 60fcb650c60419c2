// Package adversary implements the active attacker of the paper's
// threat model (Section III): "malicious hosts may attempt to frame
// honest hosts, replay packets, or continue sending after a shutoff,
// and on-path entities may record and inject traffic."
//
// An Attacker is a first-class simulation entity. It can attach to an
// AS like a rogue device (injecting through the border router's egress
// pipeline), splice into any link as an on-path wiretap (capturing
// frames for replay), and inject frames at a router's external
// interface as if they arrived from a neighbor AS. Every attack frame
// it emits is recorded as an Injection, giving the invariant checker
// (internal/invariant) the ground truth it needs to assert that none
// of them was ever accepted.
//
// The attacker's randomness comes from the simulator's seeded RNG, so
// adversarial runs are exactly as reproducible as clean ones.
package adversary

import (
	"errors"
	"fmt"
	"math/rand"

	"apna/internal/ephid"
	"apna/internal/netsim"
	"apna/internal/wire"
)

// Kind classifies an injected attack frame by the paper property it
// probes.
type Kind uint8

const (
	// KindForged: fabricated random source EphID — unforgeability
	// (Section IV-B, design choice 1).
	KindForged Kind = iota
	// KindExpired: a genuine EphID whose expiration has passed
	// (Section IV-C, egress expiry check of Figure 4).
	KindExpired
	// KindForeign: a genuine EphID minted by a different AS than the
	// claimed source AS — only the issuing AS can decrypt it.
	KindForeign
	// KindSpoof: the source AID claims an AS the attacker is not in
	// (source accountability, Section IV-D3).
	KindSpoof
	// KindReplay: bit-exact replay of a captured frame
	// (Section VIII-D).
	KindReplay
	// KindPostShutoff: transmission from an EphID after its shutoff
	// (Section IV-E: shutoffs must actually stop traffic).
	KindPostShutoff
	// KindFraming: an honest host's genuine EphID named as source
	// without its MAC key — the framing attack of Section VI-C. Unlike
	// KindForged/KindSpoof the source EphID is genuine, so harnesses
	// must not treat it as fabricated.
	KindFraming
)

// kindCount is the number of attack kinds.
const kindCount = 7

// AllKinds lists every attack kind, for iteration in reports.
var AllKinds = []Kind{KindForged, KindExpired, KindForeign, KindSpoof,
	KindReplay, KindPostShutoff, KindFraming}

// Fabricated reports whether the kind's source EphID is made up by the
// attacker (rather than a genuinely issued identifier it captured or
// stole) — the set an invariant checker records as forged.
func (k Kind) Fabricated() bool {
	return k == KindForged || k == KindSpoof || k == KindExpired
}

// String names the attack kind.
func (k Kind) String() string {
	switch k {
	case KindForged:
		return "forged-ephid"
	case KindExpired:
		return "expired-ephid"
	case KindForeign:
		return "foreign-ephid"
	case KindSpoof:
		return "source-spoof"
	case KindReplay:
		return "replay"
	case KindPostShutoff:
		return "post-shutoff"
	case KindFraming:
		return "framing"
	default:
		return fmt.Sprintf("attack(%d)", uint8(k))
	}
}

// Injection records one attack frame the attacker emitted.
type Injection struct {
	Kind Kind
	// SrcEphID is the source EphID the frame claimed.
	SrcEphID ephid.EphID
}

// Stats counts the attacker's activity by kind.
type Stats struct {
	Injected [kindCount]uint64
}

// Errors returned by attacker operations.
var (
	ErrNotAttached = errors.New("adversary: attacker has no port")
	ErrNoInjector  = errors.New("adversary: no external injector installed")
)

// Attacker is one adversarial entity in the simulation.
type Attacker struct {
	name string
	sim  *netsim.Simulator
	rng  *rand.Rand

	port     *netsim.Port
	external func(frame []byte)

	captured   [][]byte
	injections []Injection
	stats      Stats

	nonce uint64
}

// New creates an attacker drawing randomness from the simulator's
// seeded RNG.
func New(name string, sim *netsim.Simulator) *Attacker {
	return &Attacker{name: name, sim: sim, rng: sim.Rand(),
		// Attack nonces start far above any honest host's per-session
		// counter so forged frames never alias honest (src, nonce)
		// pairs by accident — aliasing would make replay accounting
		// ambiguous.
		nonce: 1 << 40,
	}
}

// Name returns the attacker's name.
func (a *Attacker) Name() string { return a.name }

// AttachPort binds the attacker to a network port — the rogue-device
// attachment, typically the far end of a link whose near end is
// attached to a border router like a host port.
func (a *Attacker) AttachPort(p *netsim.Port) {
	a.port = p
	p.Attach(a)
}

// HandleFrame implements netsim.Handler: the attacker drops whatever
// the network delivers to it (ICMP feedback, stray traffic).
func (a *Attacker) HandleFrame([]byte, *netsim.Port) {}

// SetExternalInjector installs the hook for injecting frames at a
// border router's external interface (border.Router.HandleExternalFrame
// wired through the facade) — the on-path position past the source AS's
// egress checks.
func (a *Attacker) SetExternalInjector(fn func(frame []byte)) { a.external = fn }

// TapLink splices the attacker into a link as a passive wiretap: every
// frame crossing the link (either direction) is captured for later
// replay. Chains with any previously installed tap.
func (a *Attacker) TapLink(l *netsim.Link) {
	l.AddTap(func(frame []byte, _ *netsim.Port) {
		a.captured = append(a.captured, frame)
	})
}

// Injections returns every attack frame emitted so far.
func (a *Attacker) Injections() []Injection { return a.injections }

// Stats returns a snapshot of the attacker's counters.
func (a *Attacker) Stats() Stats { return a.stats }

// RandomEphID fabricates a uniformly random EphID. With a 4-byte
// authentication tag inside the EphID and an 8-byte packet MAC, the
// odds of one passing any AS's checks are negligible — which is exactly
// the property the harness asserts.
func (a *Attacker) RandomEphID() ephid.EphID {
	var e ephid.EphID
	a.rng.Read(e[:])
	return e
}

// forge builds a ProtoSession frame from src to dst with a random
// payload and a random (necessarily invalid) packet MAC.
func (a *Attacker) forge(src, dst wire.Endpoint, payloadLen int) []byte {
	a.nonce++
	payload := make([]byte, payloadLen)
	a.rng.Read(payload)
	p := wire.Packet{
		Header: wire.Header{
			NextProto: wire.ProtoSession, HopLimit: wire.DefaultHopLimit,
			Nonce:  a.nonce,
			SrcAID: src.AID, DstAID: dst.AID,
			SrcEphID: src.EphID, DstEphID: dst.EphID,
		},
		Payload: payload,
	}
	a.rng.Read(p.Header.MAC[:])
	frame, err := p.Encode()
	if err != nil {
		panic(err) // forged payloads are bounded; Encode cannot fail
	}
	return frame
}

// inject emits an attack frame, recording it. External injections go
// through the external injector; internal ones through the attacker's
// port. Both are scheduled as zero-delay events so they interleave
// with in-flight traffic in the shared timeline.
func (a *Attacker) inject(kind Kind, frame []byte, external bool) error {
	if external {
		if a.external == nil {
			return ErrNoInjector
		}
		buf := append([]byte(nil), frame...)
		a.sim.Schedule(0, func() { a.external(buf) })
	} else {
		if a.port == nil {
			return ErrNotAttached
		}
		a.port.Send(frame)
	}
	a.injections = append(a.injections, Injection{
		Kind:     kind,
		SrcEphID: wire.FrameSrcEphID(frame),
	})
	a.stats.Injected[kind]++
	return nil
}

// InjectForged sends a frame whose source EphID is fabricated from
// random bytes, claiming srcAID as its origin.
func (a *Attacker) InjectForged(srcAID ephid.AID, dst wire.Endpoint) error {
	return a.inject(KindForged,
		a.forge(wire.Endpoint{AID: srcAID, EphID: a.RandomEphID()}, dst, 32), false)
}

// InjectExpired sends a frame sourced from a genuine but expired EphID
// (obtained by a compromised host holding identifiers past their
// lifetime).
func (a *Attacker) InjectExpired(src, dst wire.Endpoint) error {
	return a.inject(KindExpired, a.forge(src, dst, 32), false)
}

// InjectForeign sends a frame claiming srcAID as origin but carrying an
// EphID minted by a different AS — the cross-AS misuse of a genuinely
// issued identifier.
func (a *Attacker) InjectForeign(srcAID ephid.AID, foreign ephid.EphID, dst wire.Endpoint) error {
	return a.inject(KindForeign,
		a.forge(wire.Endpoint{AID: srcAID, EphID: foreign}, dst, 32), false)
}

// InjectSpoofed sends a frame whose source AID claims an AS the
// attacker is not attached to. external selects the on-path variant
// (injected at a router's external interface, past the claimed AS's
// egress checks).
func (a *Attacker) InjectSpoofed(claimAID ephid.AID, dst wire.Endpoint, external bool) error {
	return a.inject(KindSpoof,
		a.forge(wire.Endpoint{AID: claimAID, EphID: a.RandomEphID()}, dst, 32), external)
}

// InjectFramed sends a frame naming an honest host's genuine endpoint
// as source without possessing its MAC key — the framing attack of
// Section VI-C. The per-packet MAC check at egress defeats it.
func (a *Attacker) InjectFramed(src, dst wire.Endpoint) error {
	return a.inject(KindFraming, a.forge(src, dst, 32), false)
}

// ReplayCaptured re-emits every wiretapped frame, bit exact. external
// selects injection at a router's external interface (the on-path
// replay position); otherwise frames go out the attacker's own port.
// kind is recorded per injection: KindReplay for ordinary replays,
// KindPostShutoff when replaying traffic of a revoked flow.
func (a *Attacker) ReplayCaptured(kind Kind, external bool) (int, error) {
	n := 0
	for _, frame := range a.captured {
		if err := a.inject(kind, frame, external); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

// Compromised is a stolen host identity: the per-packet MAC key a host
// shares with its AS plus one of its EphIDs. A compromised identity
// forges frames that pass every egress check — until the EphID is
// revoked, which is precisely what the post-shutoff attack probes.
type Compromised struct {
	mac   *wire.PacketMAC
	src   wire.Endpoint
	nonce uint64
}

// Compromise steals a host identity.
func (a *Attacker) Compromise(macKey []byte, src wire.Endpoint) (*Compromised, error) {
	pm, err := wire.NewPacketMAC(macKey)
	if err != nil {
		return nil, err
	}
	return &Compromised{mac: pm, src: src, nonce: 1 << 41}, nil
}

// Frame builds a validly MACed frame from the stolen identity with a
// fresh nonce.
func (c *Compromised) Frame(dst wire.Endpoint, payload []byte) ([]byte, error) {
	c.nonce++
	p := wire.Packet{
		Header: wire.Header{
			NextProto: wire.ProtoSession, HopLimit: wire.DefaultHopLimit,
			Nonce:  c.nonce,
			SrcAID: c.src.AID, DstAID: dst.AID,
			SrcEphID: c.src.EphID, DstEphID: dst.EphID,
		},
		Payload: payload,
	}
	frame, err := p.Encode()
	if err != nil {
		return nil, err
	}
	c.mac.Apply(frame)
	return frame, nil
}

// InjectCompromised sends a validly MACed frame from a stolen identity
// out the attacker's port, recorded under kind (KindPostShutoff when
// the identity has been revoked).
func (a *Attacker) InjectCompromised(kind Kind, c *Compromised, dst wire.Endpoint, payload []byte) error {
	frame, err := c.Frame(dst, payload)
	if err != nil {
		return err
	}
	return a.inject(kind, frame, false)
}

// InjectCompromisedExternal sends a validly MACed frame from a stolen
// identity at the router's external interface — the on-path position
// *past* the source AS's egress checks. After the identity is revoked,
// only a border that learned the revocation through the inter-domain
// dissemination plane (remote revocation list) can drop these frames,
// which is exactly what the E10 scenario probes.
func (a *Attacker) InjectCompromisedExternal(kind Kind, c *Compromised, dst wire.Endpoint, payload []byte) error {
	frame, err := c.Frame(dst, payload)
	if err != nil {
		return err
	}
	return a.inject(kind, frame, true)
}
