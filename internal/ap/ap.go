// Package ap implements connection-sharing devices (paper
// Section VII-B). An access point lets several client devices share one
// subscription without breaking accountability.
//
// Two modes exist:
//
//   - Bridge mode: the AP is a transparent relay; every client
//     authenticates directly with the AS and appears as a first-class
//     host, so the AP holds no protocol state and this package has
//     no code for it.
//   - NAT mode: the AP is a host to the AS and plays RS, MS, router and
//     accountability agent for its clients. It relays EphID requests
//     carrying client-supplied public keys, keeps the EphID_info list
//     mapping issued EphIDs to clients (it cannot decrypt EphIDs — they
//     contain the AP's HID, encrypted under the AS's key), verifies
//     client MACs on egress and replaces them with its own AS MAC, and
//     answers the AS's accountability questions by identifying which
//     client uses a misbehaving EphID. Implemented by NAT.
package ap

import (
	"errors"
	"fmt"

	"apna/internal/cert"
	"apna/internal/crypto"
	"apna/internal/ephid"
	"apna/internal/host"
	"apna/internal/netsim"
	"apna/internal/wire"
)

// Errors returned by the access point.
var (
	ErrUnknownClient = errors.New("ap: unknown client")
	ErrUnknownEphID  = errors.New("ap: EphID not issued through this AP")
)

// Client is a device behind a NAT-mode AP. It MACs its frames under a
// key shared with the AP (established by the AP's internal RS role),
// mirroring kHA one level down.
type Client struct {
	mac  *wire.PacketMAC
	port *netsim.Port
	// Inbox collects frames the AP delivered to this client.
	//
	//apna:testonly TestNATInboundRouting reads through it which client the AP delivered each inbound frame to
	Inbox [][]byte
}

// BuildFrame constructs a MACed APNA frame from this client using one
// of its EphIDs. The MAC uses the client<->AP key; the AP will verify
// and replace it.
func (c *Client) BuildFrame(proto wire.NextProto, src ephid.EphID, srcAID ephid.AID, dst wire.Endpoint, nonce uint64, payload []byte) ([]byte, error) {
	p := wire.Packet{
		Header: wire.Header{
			NextProto: proto, HopLimit: wire.DefaultHopLimit, Nonce: nonce,
			SrcAID: srcAID, DstAID: dst.AID,
			SrcEphID: src, DstEphID: dst.EphID,
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

// Send transmits a frame toward the AP.
func (c *Client) Send(frame []byte) { c.port.Send(frame) }

// NAT is the NAT-mode access point.
type NAT struct {
	stack *host.Host
	sim   *netsim.Simulator

	clients map[string]*Client
	// ephidInfo is the EphID_info list of Section VII-B: issued EphID
	// -> owning client. The AP cannot decrypt EphIDs (they carry the
	// AP's HID under the AS's key), so it must keep this list.
	ephidInfo map[ephid.EphID]string
	// macs caches per-client verifiers.
	macs map[string]*wire.PacketMAC

	// Stats; a frame with an EphID the AP did not issue goes uncounted.
	Forwarded, DroppedBadMAC uint64
}

// NewNAT creates a NAT-mode AP around the AP's own (already
// bootstrapped and attached) host stack.
func NewNAT(stack *host.Host, sim *netsim.Simulator) *NAT {
	n := &NAT{
		stack: stack, sim: sim,
		clients:   make(map[string]*Client),
		ephidInfo: make(map[ephid.EphID]string),
		macs:      make(map[string]*wire.PacketMAC),
	}
	// Inbound frames for the AP's EphIDs: route by EphID_info.
	stack.RegisterRawHandler(wire.ProtoSession, func(hdr *wire.Header, payload []byte) {
		n.deliverInbound(hdr, payload)
	})
	return n
}

// AdmitClient plays the AP's RS role: authenticate (implicit here) and
// establish shared keys with the client, attaching it over a link.
func (n *NAT) AdmitClient(name string) (*Client, error) {
	if _, dup := n.clients[name]; dup {
		return nil, fmt.Errorf("ap: client %q already admitted", name)
	}
	// Shared-key establishment stands in for the DH of Figure 2 run
	// between client and AP.
	apKey, err := crypto.GenerateKeyPair()
	if err != nil {
		return nil, err
	}
	clKey, err := crypto.GenerateKeyPair()
	if err != nil {
		return nil, err
	}
	secret, err := apKey.SharedSecret(clKey.PublicKey())
	if err != nil {
		return nil, err
	}
	keys := crypto.DeriveHostASKeys(secret)

	c := &Client{}
	if c.mac, err = wire.NewPacketMAC(keys.MAC[:]); err != nil {
		return nil, err
	}
	verifier, err := wire.NewPacketMAC(keys.MAC[:])
	if err != nil {
		return nil, err
	}

	link := n.sim.NewLink("ap-"+name, 0, 0)
	link.A().Attach(netsim.HandlerFunc(func(frame []byte, _ *netsim.Port) {
		n.handleClientFrame(name, frame)
	}))
	link.B().Attach(netsim.HandlerFunc(func(frame []byte, _ *netsim.Port) {
		c.Inbox = append(c.Inbox, frame)
	}))
	c.port = link.B()

	n.clients[name] = c
	n.macs[name] = verifier
	return c, nil
}

// RequestEphIDForClient plays the AP's MS role: relay an EphID request
// to the real MS with the client's public keys, and record the issued
// EphID in EphID_info. The certificate is handed back to the client.
func (n *NAT) RequestEphIDForClient(name string, kind ephid.Kind, lifetime uint32,
	dhPub, sigPub []byte, cb func(*cert.Cert, error)) error {
	if _, ok := n.clients[name]; !ok {
		return fmt.Errorf("%w: %q", ErrUnknownClient, name)
	}
	return n.stack.RequestEphIDFor(kind, lifetime, dhPub, sigPub, func(c *cert.Cert, err error) {
		if err == nil {
			n.ephidInfo[c.EphID] = name
		}
		cb(c, err)
	})
}

// handleClientFrame plays the AP's router role for outgoing packets:
// verify the client MAC, confirm the source EphID belongs to that
// client, replace the MAC with the AP's AS MAC, and forward.
func (n *NAT) handleClientFrame(name string, frame []byte) {
	if !wire.ValidFrame(frame) {
		n.DroppedBadMAC++
		return
	}
	owner, ok := n.ephidInfo[wire.FrameSrcEphID(frame)]
	if !ok || owner != name {
		return
	}
	verifier := n.macs[name]
	if !verifier.Verify(frame) {
		n.DroppedBadMAC++
		return
	}
	// Replace the MAC with the AP<->AS MAC and hand the frame to the
	// AP's own uplink.
	out := append([]byte(nil), frame...)
	n.stack.ApplyMAC(out)
	n.stack.SendFrame(out)
	n.Forwarded++
}

// deliverInbound plays the AP's router role for incoming packets:
// route to the owning client from EphID_info.
func (n *NAT) deliverInbound(hdr *wire.Header, payload []byte) {
	owner, ok := n.ephidInfo[hdr.DstEphID]
	if !ok {
		return
	}
	c := n.clients[owner]
	p := wire.Packet{Header: *hdr, Payload: payload}
	frame, err := p.Encode()
	if err != nil {
		return
	}
	// Deliver over the client link (scheduled so ordering matches
	// other link traffic).
	peer := c.port
	n.sim.Schedule(0, func() {
		if peer.Owner() != nil {
			peer.Owner().HandleFrame(frame, peer)
		}
	})
	n.Forwarded++
}

// Identify plays the AP's accountability-agent role: when the AS holds
// the AP accountable for a misbehaving EphID, the AP names the client.
func (n *NAT) Identify(e ephid.EphID) (string, error) {
	owner, ok := n.ephidInfo[e]
	if !ok {
		return "", ErrUnknownEphID
	}
	return owner, nil
}
