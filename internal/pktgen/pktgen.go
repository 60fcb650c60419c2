// Package pktgen is the traffic-generator substrate for the forwarding
// experiments (paper Section V-B3, Figure 8). It stands in for the
// Spirent chassis of the paper's testbed: it builds data-plane worlds —
// routers, registered hosts and valid or sabotaged APNA frames of
// configurable sizes — for internal/engine to drive, and knows the
// testbed's line rate (120 Gbps in the paper: 6 dual-port 10 GbE NICs)
// that the measured packet rates are clamped against.
package pktgen

import (
	"fmt"

	"apna/internal/border"
	"apna/internal/crypto"
	"apna/internal/ephid"
	"apna/internal/hostdb"
	"apna/internal/wire"
)

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

// Fixture is a self-contained data-plane world: an AS with a router,
// a population of registered hosts, and valid MACed frames, ready to be
// pumped through pipelines.
type Fixture struct {
	// AID is the AS's identifier (100 for single-fixture setups).
	AID    ephid.AID
	Router *border.Router
	Sealer *ephid.Sealer
	DB     *hostdb.DB
	Secret *crypto.ASSecret
	// Frames holds one valid egress frame per host, all of equal
	// size.
	Frames [][]byte
	// Now is the fixed clock the router checks expiry against.
	Now int64
}

// NewFixture builds a fixture with the given number of hosts and frame
// size (total APNA frame bytes, header included).
func NewFixture(hosts, frameSize int) (*Fixture, error) {
	if frameSize < wire.HeaderSize {
		return nil, fmt.Errorf("pktgen: frame size %d below header size %d", frameSize, wire.HeaderSize)
	}
	secret, err := crypto.NewASSecret()
	if err != nil {
		return nil, err
	}
	sealer, err := ephid.NewSealer(secret)
	if err != nil {
		return nil, err
	}
	f := &Fixture{AID: 100, Sealer: sealer, DB: hostdb.New(), Secret: secret, Now: 1_000_000}
	f.Router, err = border.New(100, sealer, f.DB, secret, func() int64 { return f.Now })
	if err != nil {
		return nil, err
	}
	f.Router.SetRoutes(nil)

	payload := make([]byte, frameSize-wire.HeaderSize)
	entries := make([]hostdb.Entry, 0, hosts)
	for i := 0; i < hosts; i++ {
		entries = append(entries, hostdb.Entry{
			HID:          ephid.HID(i + 1),
			Keys:         crypto.DeriveHostASKeys([]byte{byte(i), byte(i >> 8), byte(i >> 16), 0x7}),
			RegisteredAt: f.Now,
		})
	}
	f.DB.PutBatch(entries)
	for i := 0; i < hosts; i++ {
		hid := ephid.HID(i + 1)
		keys := entries[i].Keys
		src := sealer.Mint(ephid.Payload{HID: hid, ExpTime: uint32(f.Now) + 3600})

		p := wire.Packet{
			Header: wire.Header{
				NextProto: wire.ProtoSession, HopLimit: wire.DefaultHopLimit,
				Nonce:  uint64(i) + 1,
				SrcAID: 100, DstAID: 200,
				SrcEphID: src,
			},
			Payload: payload,
		}
		p.Header.DstEphID[0] = byte(i)
		frame, err := p.Encode()
		if err != nil {
			return nil, err
		}
		pm, err := wire.NewPacketMAC(keys.MAC[:])
		if err != nil {
			return nil, err
		}
		pm.Apply(frame)
		f.Frames = append(f.Frames, frame)
	}
	return f, nil
}
