// Package pktgen is the traffic-generator substrate for the forwarding
// experiments (paper Section V-B3, Figure 8). It stands in for the
// Spirent chassis of the paper's testbed: it builds data-plane worlds —
// routers, registered hosts and valid or sabotaged APNA frames of
// configurable sizes — for internal/engine to drive, and knows the
// testbed's line rate (120 Gbps in the paper: 6 dual-port 10 GbE NICs)
// that the measured packet rates are clamped against.
//
// NewWorld draws everything its seed fixes first, then builds the ASes
// and mints the lanes on the caller and on the spare cores
// internal/spare lends it; it starts no goroutine of its own, so at
// GOMAXPROCS 1 the caller does all of it. A lane's frames share one
// slab, each capped at its own bytes, and get their packet MACs in
// wire.MACBatch passes under one schedule per source host.
package pktgen

import "apna/internal/asnode"

// PaperPacketSizes are the five frame sizes of Figure 8.
var PaperPacketSizes = []int{128, 256, 512, 1024, 1518}

// PaperCapacityGbps is the testbed NIC capacity.
const PaperCapacityGbps = 120.0

// etherOverhead is the per-frame wire overhead beyond the frame bytes:
// 8 B preamble + 12 B inter-frame gap (the 4 B FCS is part of the
// frame size, as in standard Ethernet accounting).
const etherOverhead = 20

// LineRatePPS returns the theoretical maximum packet rate of a link of
// the given capacity for a frame size — the "theoretical maximum
// performance" line the paper says its measurements match.
func LineRatePPS(capacityGbps float64, frameSize int) float64 {
	return capacityGbps * 1e9 / (float64(frameSize+etherOverhead) * 8)
}

// Fixture is one AS of a World: its data plane as asnode builds it,
// with a registered host population, ready to be pumped through
// pipelines.
type Fixture struct {
	*asnode.Node
	// Now is the fixed clock the router checks expiry against.
	Now int64
}
