package border

import (
	"apna/internal/netsim"
	"apna/internal/wire"
)

// The router's port handlers. netsim hands a router every frame due at
// one instant in one call (netsim.BatchHandler), the way the paper's
// border router takes a burst off its NIC (Section VII-B), and the
// handlers take such a run through the pipelines' ProcessBatch — the
// 8-lane packet MAC, the batched EphID open, the staged table lookups —
// before they dispatch any of it. A single frame (HandleFrame, a gateway's
// or an attacker's injection) is a run of one: there is no other path.
//
// A run is verified whole and then dispatched frame by frame, where
// frame-by-frame delivery would verify and dispatch each in turn. Every
// frame gets the same verdict either way. A verdict depends on the frame,
// the clock and the router's tables (host_info, the revocation lists);
// within one instant the clock stands still, and the tables change only
// when some other event runs or the dispatch itself changes them — and
// dispatch only sends: Forward queues a delivery, and the drop hook may
// send an ICMP error but must leave the tables alone. The pipelines'
// caches do change between two frames, and never change a verdict. What
// dispatch reads (host ports, routes) it reads per frame, as before, and
// in the frames' order, so every sequence number a send is queued under,
// every fault draw and every counter is what one-by-one delivery gives.
// differential_test.go holds both sides to this at run lengths around the
// pipelines' chunk, with table changes between runs.

// internalSide is the router as the AS's own hosts and services see it,
// externalSide as its neighbor ASes do. Each is one handler value per
// router, attached to every port of its side, so a run gathers frames
// across the side's ports and never mixes the two sides.
type (
	internalSide struct{ r *Router }
	externalSide struct{ r *Router }
)

// HandleFrame implements netsim.Handler on a run of one. Like every
// handler it owns frame, and hands that same buffer on to the next hop.
func (s *internalSide) HandleFrame(frame []byte, _ *netsim.Port) {
	s.r.one[0] = frame
	s.HandleFrames(s.r.one[:], nil)
}

// HandleFrame implements netsim.Handler on a run of one.
func (s *externalSide) HandleFrame(frame []byte, _ *netsim.Port) {
	s.r.one[0] = frame
	s.HandleFrames(s.r.one[:], nil)
}

// HandleExternalFrame injects a frame as if it arrived from a neighbor
// AS — the hook used by gateways and by adversary simulations (replay
// injection). It copies the caller's frame at entry.
func (r *Router) HandleExternalFrame(frame []byte) {
	r.external.HandleFrame(append([]byte(nil), frame...), nil)
}

// HandleFrames implements netsim.BatchHandler for frames from local
// hosts: the egress checks, then intra-AS delivery through the ingress
// checks (so revocation applies between two hosts of one AS too) or the
// way out toward the destination AS.
//
//apna:hotpath
func (s *internalSide) HandleFrames(frames [][]byte, _ []*netsim.Port) {
	r := s.r
	valid := r.wellFormed(frames)
	if len(valid) == 0 {
		return
	}
	if r.egress == nil { //apna:coldpath
		r.egress = r.NewEgressPipeline()
	}
	r.verdicts = r.egress.ProcessBatch(valid, r.verdicts[:0])
	r.local = r.local[:0]
	for i, frame := range valid {
		if r.verdicts[i] == VerdictForward && wire.FrameDstAID(frame) == r.aid {
			r.local = append(r.local, frame) //apna:alloc-ok
		}
	}
	results := r.checkLocal()
	for i, frame := range valid {
		switch v := r.verdicts[i]; {
		case v != VerdictForward:
			r.drop(v, frame)
		case wire.FrameDstAID(frame) == r.aid:
			r.deliverLocal(results[0], frame)
			results = results[1:]
		case wire.FrameFlags(frame)&wire.FlagControl != 0:
			// Control traffic must never leave the AS.
			r.drop(VerdictDropControlLeak, frame)
		case !r.forwardInterdomain(frame):
			r.drop(VerdictDropNoRoute, frame)
		default:
			r.stats.Egressed.Add(1)
		}
	}
}

// HandleFrames implements netsim.BatchHandler for frames from neighbor
// ASes: ingress delivery or transit forwarding.
//
//apna:hotpath
func (s *externalSide) HandleFrames(frames [][]byte, _ []*netsim.Port) {
	r := s.r
	valid := r.wellFormed(frames)
	r.local = r.local[:0]
	for _, frame := range valid {
		if wire.FrameDstAID(frame) == r.aid {
			r.local = append(r.local, frame) //apna:alloc-ok
		}
	}
	results := r.checkLocal()
	for _, frame := range valid {
		switch {
		case wire.FrameDstAID(frame) == r.aid:
			r.deliverLocal(results[0], frame)
			results = results[1:]
		case !wire.FrameDecrementHopLimit(frame):
			// Transit: decrement hop limit, forward on AID.
			r.drop(VerdictDropHopLimit, frame)
		case !r.forwardInterdomain(frame):
			r.drop(VerdictDropNoRoute, frame)
		default:
			r.stats.Transited.Add(1)
		}
	}
}

// wellFormed starts a run: it counts the frames that are not APNA frames
// — they get no ICMP error and nothing else is done about them, so their
// place in the run does not matter — and returns the others in order.
func (r *Router) wellFormed(frames [][]byte) [][]byte {
	r.valid = r.valid[:0]
	for _, frame := range frames {
		if wire.ValidFrame(frame) {
			r.valid = append(r.valid, frame) //apna:alloc-ok
		} else {
			r.stats.count(VerdictDropMalformed)
		}
	}
	return r.valid
}

// checkLocal runs the ingress checks over r.local, the frames of the run
// bound for this AS's own hosts.
func (r *Router) checkLocal() []IngressResult {
	if len(r.local) == 0 {
		return nil
	}
	if r.ingress == nil { //apna:coldpath
		r.ingress = r.NewIngressPipeline()
	}
	r.results = r.ingress.ProcessBatch(r.local, r.results[:0])
	return r.results
}

// deliverLocal hands a frame, which the caller owns and gives up, to the
// host its ingress checks resolved.
func (r *Router) deliverLocal(res IngressResult, frame []byte) {
	v := res.Verdict
	if v == VerdictForward {
		if port, ok := r.tables.Load().hostPorts[res.HID]; ok {
			port.Forward(frame)
			r.stats.Delivered.Add(1)
			return
		}
		v = VerdictDropUnknownHost
	}
	r.drop(v, frame)
}

// forwardInterdomain sends the frame, which the caller owns and gives
// up, toward the destination AID via the next-hop table.
func (r *Router) forwardInterdomain(frame []byte) bool {
	port, ok := r.LookupRoute(wire.FrameDstAID(frame))
	if !ok {
		return false
	}
	port.Forward(frame)
	return true
}

func (r *Router) drop(v Verdict, frame []byte) {
	r.stats.count(v)
	if fn := r.icmpSender.Load(); fn != nil {
		(*fn)(v, frame)
	}
}
