package netsim

import (
	"fmt"
	"time"
)

// Handler consumes frames arriving at a node. from identifies the port
// the frame arrived on, letting routers distinguish interfaces.
//
// The frame belongs to the handler: no one else holds the backing
// array, so the handler may mutate it, retain it, or pass it on with
// Port.Forward. Code that calls HandleFrame directly must hand over a
// buffer it will not touch again.
//
// The simulator calls HandleFrame once per frame, in (time, seq) order,
// unless the handler is also a BatchHandler; then it calls HandleFrames
// instead, once per run.
type Handler interface {
	HandleFrame(frame []byte, from *Port)
}

// BatchHandler is a Handler that takes the frames due at one instant
// together, as a border router takes packets off its NIC. The simulator
// delivers to it through HandleFrames only: frames[i] arrived on
// from[i], in the order HandleFrame would have been called, and a frame
// that is alone at its instant is a run of one (see "Runs" in the
// package comment for what ends a run).
//
// Each frame belongs to the handler, as under Handler. The two slices
// do not: they are the simulator's and are cleared and reused when
// HandleFrames returns, so the handler must not retain them. One
// handler value must be attached to every port whose frames may share a
// run, and it must be comparable (a pointer).
type BatchHandler interface {
	Handler
	HandleFrames(frames [][]byte, from []*Port)
}

// HandlerFunc adapts a function to the Handler interface. The result is
// never a BatchHandler: wrapping a handler's HandleFrame in it makes the
// simulator deliver to that handler frame by frame.
//
//apna:only apna/internal/ap
type HandlerFunc func(frame []byte, from *Port)

// HandleFrame implements Handler.
func (f HandlerFunc) HandleFrame(frame []byte, from *Port) { f(frame, from) }

// Link is a bidirectional point-to-point link between two ports, with a
// one-way latency and an independent loss probability per frame.
// Optional chaos behaviour (jitter, duplication, reordering, timed
// partitions) is configured with SetChaos, and frame taps for on-path
// capture with AddTap.
type Link struct {
	sim     *Simulator
	latency time.Duration
	loss    float64
	name    string
	a, b    Port

	chaos ChaosConfig
	taps  []func(frame []byte, from *Port)
}

// NewLink creates a link in the simulator with the given one-way latency
// and loss probability in [0,1).
func (s *Simulator) NewLink(name string, latency time.Duration, loss float64) *Link {
	l := &Link{sim: s, latency: latency, loss: loss, name: name}
	l.a = Port{link: l, peer: &l.b}
	l.b = Port{link: l, peer: &l.a}
	return l
}

// A returns the first port of the link.
func (l *Link) A() *Port { return &l.a }

// B returns the second port of the link.
func (l *Link) B() *Port { return &l.b }

// String names the link.
func (l *Link) String() string { return fmt.Sprintf("link(%s)", l.name) }

// Port is one end of a link. Attach binds it to a node; Send transmits
// toward the opposite end.
type Port struct {
	link  *Link
	peer  *Port
	owner Handler
	batch BatchHandler // owner, if it takes runs
}

// Attach binds the port to its owning node.
func (p *Port) Attach(owner Handler) {
	p.owner = owner
	p.batch, _ = owner.(BatchHandler)
}

// Sim returns the simulator the port's link belongs to.
func (p *Port) Sim() *Simulator { return p.link.sim }

// Owner returns the attached handler (nil if unattached).
func (p *Port) Owner() Handler { return p.owner }

// Send transmits a frame to the opposite port after the link latency
// plus any chaotic delay. The frame is copied at send time: the caller
// keeps its buffer and may reuse it, and real links serialize bits, not
// aliases.
func (p *Port) Send(frame []byte) { p.transmit(frame, false) }

// Forward is Send for a frame the caller owns and gives up: the buffer
// itself is delivered to the opposite port, so the caller must not
// touch it again. Taps and a chaos duplicate still get private copies.
func (p *Port) Forward(frame []byte) { p.transmit(frame, true) }

func (p *Port) transmit(frame []byte, owned bool) {
	l := p.link
	if l.chaos.partitioned(l.sim.now) {
		l.sim.faultMark(l.name, FaultPartition)
		return
	}
	if l.loss > 0 && l.sim.faultChance(l.name, FaultLoss, l.loss) {
		return
	}
	if l.chaos.Loss > 0 && l.sim.faultChance(l.name, FaultChaosLoss, l.chaos.Loss) {
		return
	}
	// The copies below are what a wiretap, Send and a duplicating link
	// cost; a router Forwarding over a plain link makes none of them.
	for _, tap := range l.taps { //apna:coldpath
		l.sim.settle()
		tap(append([]byte(nil), frame...), p)
	}
	buf := frame
	if !owned { //apna:coldpath
		buf = append([]byte(nil), frame...)
	}
	p.deliver(buf)
	if l.chaos.DupProb > 0 && l.sim.faultChance(l.name, FaultDup, l.chaos.DupProb) { //apna:coldpath
		l.sim.settle()
		p.deliver(append([]byte(nil), frame...))
	}
}

// deliver schedules the delivery of buf, which the event then owns, at
// the link latency plus a fresh chaotic-delay draw; each delivery
// jitters independently, so duplicates can overtake originals.
func (p *Port) deliver(buf []byte) {
	l := p.link
	l.sim.scheduleFrame(l.latency+l.chaos.extraDelay(l.sim, l.name), p.peer, buf)
}
