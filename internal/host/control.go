package host

import (
	"encoding/binary"
	"fmt"

	"apna/internal/aa"
	"apna/internal/accountability"
	"apna/internal/cert"
	"apna/internal/icmp"
	"apna/internal/wire"
)

// ICMP support (Section VIII-B) and shutoff-request initiation
// (Section IV-E).

// Ping sends an ICMP echo request to the destination endpoint, sourcing
// it from a usable EphID (routers and hosts alike use their own EphIDs
// for ICMP, keeping feedback accountable yet private).
func (h *Host) Ping(dst wire.Endpoint, seq uint16) error {
	src := h.pickServing()
	if src == nil {
		return ErrNoEphID
	}
	m := icmp.Message{Type: icmp.TypeEchoRequest, Seq: seq}
	return h.send(wire.ProtoICMP, 0, src.Cert.EphID, dst, m.Encode(), nil)
}

// handleICMP answers echo requests and surfaces replies and errors.
func (h *Host) handleICMP(hdr *wire.Header, payload []byte) {
	m, err := icmp.Decode(payload)
	if err != nil {
		return
	}
	switch m.Type {
	case icmp.TypeEchoRequest:
		// Reply from the EphID the request addressed, preserving the
		// correlation the paper's return-address argument relies on.
		if _, ok := h.pool[hdr.DstEphID]; !ok {
			return
		}
		reply := icmp.Message{Type: icmp.TypeEchoReply, Seq: m.Seq, Body: m.Body}
		_ = h.send(wire.ProtoICMP, 0, hdr.DstEphID,
			wire.Endpoint{AID: hdr.SrcAID, EphID: hdr.SrcEphID}, reply.Encode(), nil)
	case icmp.TypeEchoReply:
		if h.onEcho != nil {
			h.onEcho(m.Seq)
		}
		from := wire.Endpoint{AID: hdr.SrcAID, EphID: hdr.SrcEphID}
		for _, fn := range h.echoListeners {
			fn(from, m.Seq)
		}
	default:
		if h.onICMPError != nil {
			h.onICMPError(uint8(m.Type), m.Code, m.Body)
		}
	}
}

// PeerCert returns the certificate the peer presented on the given
// flow, which carries the accountability agent coordinates needed for a
// shutoff.
func (h *Host) PeerCert(local wire.Endpoint, peer wire.Endpoint) (*cert.Cert, error) {
	c, ok := h.peerCerts[sessKey{local: local.EphID, peer: peer}]
	if !ok {
		return nil, ErrNoPeerCert
	}
	return c, nil
}

// RequestShutoff builds and sends a shutoff request for the flow that
// delivered m: the evidence is the raw offending frame, signed with the
// private key of the local (recipient) EphID, addressed to the
// accountability agent named in the sender's certificate (Figure 5).
// It returns the agent endpoint the request was sent to, so callers
// matching acknowledgments back to requests key by the same endpoint
// the routing used.
func (h *Host) RequestShutoff(m Message) (wire.Endpoint, error) {
	key := sessKey{local: m.Flow.Dst.EphID, peer: m.Flow.Src}
	peerCert, ok := h.peerCerts[key]
	if !ok {
		return wire.Endpoint{}, ErrNoPeerCert
	}
	local, ok := h.pool[m.Flow.Dst.EphID]
	if !ok {
		return wire.Endpoint{}, ErrNoEphID
	}
	if len(m.Raw) == 0 {
		return wire.Endpoint{}, fmt.Errorf("host: message carries no evidence frame")
	}
	req := aa.BuildRequest(m.Raw, &local.Cert, local.Sig)
	payload, err := req.Encode()
	if err != nil {
		return wire.Endpoint{}, err
	}
	agent := wire.Endpoint{AID: peerCert.AID, EphID: peerCert.AAEphID}
	return agent, h.send(wire.ProtoShutoff, 0, local.Cert.EphID, agent, payload, nil)
}

// RequestComplaint files a complaint about the flow that delivered m
// with this host's *own* accountability agent — the inter-domain
// variant of RequestShutoff. The agent verifies the complaint, forwards
// a signed shutoff request to the offender's AS, and answers with a
// MsgComplaintAck carrying the source AS's signed receipt. It returns
// the local agent endpoint the complaint was sent to and the
// complaint's sequence number, which the agent echoes in the
// acknowledgment — receipts from different offenders' ASes arrive in
// arbitrary order, so acks cannot be matched FIFO.
func (h *Host) RequestComplaint(m Message) (wire.Endpoint, uint64, error) {
	key := sessKey{local: m.Flow.Dst.EphID, peer: m.Flow.Src}
	peerCert, ok := h.peerCerts[key]
	if !ok {
		return wire.Endpoint{}, 0, ErrNoPeerCert
	}
	local, ok := h.pool[m.Flow.Dst.EphID]
	if !ok {
		return wire.Endpoint{}, 0, ErrNoEphID
	}
	if len(m.Raw) == 0 {
		return wire.Endpoint{}, 0, fmt.Errorf("host: message carries no evidence frame")
	}
	c := accountability.NewComplaint(m.Raw, &local.Cert, peerCert, local.Sig)
	enc, err := c.Encode()
	if err != nil {
		return wire.Endpoint{}, 0, err
	}
	h.complaintSeq++
	seq := h.complaintSeq
	payload := make([]byte, 0, 9+len(enc))
	payload = append(payload, accountability.MsgComplaint)
	payload = binary.BigEndian.AppendUint64(payload, seq)
	payload = append(payload, enc...)
	// The local agent's EphID is named in every certificate this AS
	// issued — including the victim's own.
	agent := wire.Endpoint{AID: h.cfg.AID, EphID: local.Cert.AAEphID}
	return agent, seq, h.send(wire.ProtoAcct, wire.FlagControl, local.Cert.EphID, agent, payload, nil)
}
