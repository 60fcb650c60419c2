// Package pktgen is the traffic-generator substrate for the forwarding
// experiments (paper Section V-B3, Figure 8). It stands in for the
// Spirent chassis of the paper's testbed: it builds data-plane worlds —
// routers, registered hosts and valid or sabotaged APNA frames of
// configurable sizes — for internal/engine to drive.
//
// NewWorld draws everything its seed fixes first, then builds the ASes
// and mints the lanes on the caller and on the spare cores
// internal/spare lends it; it starts no goroutine of its own, so at
// GOMAXPROCS 1 the caller does all of it. A lane's frames share one
// slab, each capped at its own bytes, and get their packet MACs in
// wire.MACBatch passes under one schedule per source host.
package pktgen

import "apna/internal/asnode"

// Fixture is one AS of a World: its data plane as asnode builds it,
// with a registered host population, ready to be pumped through
// pipelines.
type Fixture struct {
	*asnode.Node
	// Now is the fixed clock the router checks expiry against.
	Now int64
}
