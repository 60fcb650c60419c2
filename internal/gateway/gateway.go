// Package gateway implements the APNA gateway of paper Section VII-D:
// a translator that connects unmodified IPv4 hosts to an APNA network
// without changing their network stacks.
//
// The gateway plays two roles. As an APNA host it bootstraps with the
// AS and acquires EphIDs; as a packet translator it maps IPv4 flows
// (identified by the 5-tuple) to APNA flows (identified by AID:EphID
// pairs):
//
//   - For each new outgoing IPv4 flow it uses a different EphID (the
//     paper's assumption) and establishes an APNA session with the
//     destination, found by mapping the destination IPv4 address to an
//     AID:EphID certificate — learned from DNS replies or statically
//     configured.
//   - For destinations learned from DNS replies it allocates a virtual
//     endpoint: a fresh IPv4 address from a private pool, so distinct
//     APNA peers can never collapse onto one address.
//
// Inbound APNA flows reach the legacy side only as replies on
// outbound flows; the paper's legacy-server publishing is not built.
//
// The translated unit is the upper-layer (transport) segment: the
// gateway strips the IPv4 header on the way in and regenerates one on
// the way out.
package gateway

import (
	"errors"
	"fmt"

	"apna/internal/cert"
	"apna/internal/ephid"
	"apna/internal/host"
	"apna/internal/wire"
)

// Errors returned by the gateway.
var (
	ErrNoMapping = errors.New("gateway: no AID:EphID mapping for destination IP")
	ErrNotIPv4   = errors.New("gateway: not a translatable IPv4 packet")
)

// FlowKey is the IPv4 5-tuple. The transport segment keeps its ports,
// so the key uses the segment's first four bytes (source and
// destination port for both UDP and TCP).
type FlowKey struct {
	SrcIP, DstIP     uint32
	Proto            uint8
	SrcPort, DstPort uint16
}

// reverse returns the key of the reply direction.
func (k FlowKey) reverse() FlowKey {
	return FlowKey{
		SrcIP: k.DstIP, DstIP: k.SrcIP, Proto: k.Proto,
		SrcPort: k.DstPort, DstPort: k.SrcPort,
	}
}

// flow is one translated (gateway-initiated) connection.
type flow struct {
	conn *host.Conn
	// local is the gateway EphID serving this flow.
	local ephid.EphID
}

// apnaKey identifies an APNA flow at the gateway.
type apnaKey struct {
	local ephid.EphID
	peer  wire.Endpoint
}

// Gateway is the translator.
type Gateway struct {
	stack    *host.Host
	emitIPv4 func([]byte)

	// mappings from destination IPv4 address to the peer certificate,
	// learned from DNS or configured statically.
	mappings map[uint32]*cert.Cert

	flows  map[FlowKey]*flow
	byAPNA map[apnaKey]FlowKey

	// virtual endpoint allocation for DNS-learned destinations (paper:
	// "an IPv4 address randomly drawn from a private address space").
	nextVirtual uint32

	// Translated counts packets sent on; HandleIPv4's error is a refusal.
	Translated uint64
}

// New creates a gateway around an attached host stack. emitIPv4
// receives translated IPv4 packets for the legacy side.
func New(stack *host.Host, emitIPv4 func([]byte)) *Gateway {
	g := &Gateway{
		stack:    stack,
		emitIPv4: emitIPv4,
		mappings: make(map[uint32]*cert.Cert),
		flows:    make(map[FlowKey]*flow),
		byAPNA:   make(map[apnaKey]FlowKey),
		// 10.200.0.0/16 pool for virtual endpoints.
		nextVirtual: 0x0AC80001,
	}
	stack.OnMessage(g.handleAPNA)
	return g
}

// LearnMapping installs destinationIP -> certificate, the state the
// gateway would glean by inspecting a DNS reply (Section VII-D).
func (g *Gateway) LearnMapping(ip uint32, c *cert.Cert) {
	g.mappings[ip] = c
}

// LearnFromDNS is the DNS-inspection path: given a resolved record, it
// allocates a virtual IPv4 address, installs the mapping, and returns
// the address to place into the DNS reply toward the legacy client —
// the paper's trick for servers whose records carry no IPv4 address.
func (g *Gateway) LearnFromDNS(c *cert.Cert) uint32 {
	ip := g.allocVirtual()
	g.LearnMapping(ip, c)
	return ip
}

func (g *Gateway) allocVirtual() uint32 {
	ip := g.nextVirtual
	g.nextVirtual++
	return ip
}

// HandleIPv4 translates one IPv4 packet from the legacy side into the
// APNA network. A fragment or a header with a bad checksum is dropped
// (wire.ErrIPFragment, wire.ErrIPChecksum): the flow key's ports are
// the first four payload bytes, and only a whole datagram's payload
// starts with them.
func (g *Gateway) HandleIPv4(pkt []byte) error {
	var ip wire.IPv4Header
	if err := ip.DecodeFromBytes(pkt); err != nil {
		return fmt.Errorf("%w: %w", ErrNotIPv4, err)
	}
	if int(ip.TotalLen) != len(pkt) || len(pkt) < wire.IPv4HeaderSize+4 {
		return ErrNotIPv4
	}
	seg := pkt[wire.IPv4HeaderSize:]
	key := FlowKey{
		SrcIP: ip.SrcIP, DstIP: ip.DstIP, Proto: ip.Protocol,
		SrcPort: uint16(seg[0])<<8 | uint16(seg[1]),
		DstPort: uint16(seg[2])<<8 | uint16(seg[3]),
	}

	fl, ok := g.flows[key]
	if !ok {
		peerCert, okm := g.mappings[ip.DstIP]
		if !okm {
			return fmt.Errorf("%w: %08x", ErrNoMapping, ip.DstIP)
		}
		local, err := g.stack.Acquire(host.PerFlow, "")
		if err != nil {
			return err
		}
		conn, err := g.stack.Dial(local, peerCert, host.DialOptions{})
		if err != nil {
			return err
		}
		fl = &flow{conn: conn, local: local.Cert.EphID}
		g.flows[key] = fl
		g.byAPNA[apnaKey{local: local.Cert.EphID, peer: conn.Peer()}] = key
	}
	g.Translated++
	// Queueing before establishment is handled by Conn.
	if err := fl.conn.Send(seg); err != nil {
		return err
	}
	// The peer may have migrated (receive-only dial): track the
	// current endpoint too.
	g.byAPNA[apnaKey{local: fl.local, peer: fl.conn.Peer()}] = key
	return nil
}

// handleAPNA translates inbound APNA session data on an outbound flow
// into IPv4 replies that reverse the flow's 5-tuple.
func (g *Gateway) handleAPNA(m host.Message) {
	key, ok := g.byAPNA[apnaKey{local: m.Flow.Dst.EphID, peer: m.Flow.Src}]
	if !ok {
		return
	}
	g.emit(key.reverse(), m.Payload)
}

// emit builds and sends an IPv4 packet to the legacy side.
func (g *Gateway) emit(key FlowKey, segment []byte) {
	total := wire.IPv4HeaderSize + len(segment)
	buf := make([]byte, total)
	ip := wire.IPv4Header{
		TotalLen: uint16(total), TTL: wire.DefaultHopLimit,
		Protocol: key.Proto, SrcIP: key.SrcIP, DstIP: key.DstIP,
	}
	if ip.Protocol == 0 {
		ip.Protocol = 17
	}
	if err := ip.SerializeTo(buf); err != nil {
		return
	}
	copy(buf[wire.IPv4HeaderSize:], segment)
	g.Translated++
	g.emitIPv4(buf)
}
