// Package baseline implements the comparator for the forwarding
// ablation: a plain AID-based forwarder that does none of APNA's
// per-packet cryptography — the software equivalent of the
// "theoretical maximum performance" line in Figure 8 and of plain
// IPv4 longest-prefix-free forwarding. Benchmarks run the same frames
// through this forwarder and through the APNA egress pipeline to
// quantify the cost APNA adds (the paper's claim: the addition is
// absorbed below line rate).
package baseline

import (
	"apna/internal/ephid"
	"apna/internal/wire"
)

// Forwarder forwards on the destination AID with a single map lookup.
type Forwarder struct {
	routes map[ephid.AID]ephid.AID
}

// New creates a forwarder with the given next-hop table.
func New(routes map[ephid.AID]ephid.AID) *Forwarder {
	return &Forwarder{routes: routes}
}

// Process forwards one frame: validity check, AID extraction, route
// lookup. It mirrors the control flow of the APNA egress pipeline with
// all cryptographic work removed.
func (f *Forwarder) Process(frame []byte) bool {
	if !wire.ValidFrame(frame) {
		return false
	}
	_, ok := f.routes[wire.FrameDstAID(frame)]
	return ok
}
