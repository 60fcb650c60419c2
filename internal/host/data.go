package host

import (
	"fmt"

	"apna/internal/ephid"
	"apna/internal/wire"
)

// Encrypted data communication (Section IV-D2): after establishment,
// every data packet is sealed with the session key and carries the
// standard per-packet MAC for the source AS.

// SendData encrypts and sends application data from a local EphID to a
// peer endpoint with an established session. The data is sealed straight
// into the frame that is sent; the caller keeps data.
func (h *Host) SendData(local ephid.EphID, peer wire.Endpoint, data []byte) error {
	sess, ok := h.sessions[sessKey{local: local, peer: peer}]
	if !ok {
		return fmt.Errorf("%w: %v -> %v", ErrNoSession, local, peer)
	}
	return h.send(wire.ProtoSession, 0, local, peer, data, sess)
}

// Respond sends data back along the flow a message arrived on.
func (h *Host) Respond(m Message, data []byte) error {
	return h.SendData(m.Flow.Dst.EphID, m.Flow.Src, data)
}

// handleSession processes an encrypted data packet carried by frame,
// which the stack owns.
func (h *Host) handleSession(hdr *wire.Header, payload []byte, frame []byte) {
	key := sessKey{
		local: hdr.DstEphID,
		peer:  wire.Endpoint{AID: hdr.SrcAID, EphID: hdr.SrcEphID},
	}
	sess, ok := h.sessions[key]
	if !ok {
		h.stats.DropNoSession++
		return
	}
	pt, err := sess.Open(payload, h.sessionAAD(hdr))
	if err != nil {
		h.stats.DropDecrypt++
		return
	}
	// Replay check only after authentication succeeded.
	if err := sess.AcceptSeq(hdr.Nonce); err != nil {
		h.stats.DropReplay++
		return
	}
	// The delivered frame is ours (netsim.Handler): it is the evidence,
	// not a copy of it.
	h.deliver(Message{
		Flow:    wire.FlowFromHeader(hdr),
		Payload: pt,
		Raw:     frame,
	})
}

// deliver hands a message to the application: flow taps first, then the
// global callback, then the inbox.
func (h *Host) deliver(m Message) {
	key := sessKey{local: m.Flow.Dst.EphID, peer: m.Flow.Src}
	if tap, ok := h.flowTaps[key]; ok {
		if !tap(m) {
			delete(h.flowTaps, key)
		}
		return
	}
	if h.onMessage != nil {
		h.onMessage(m)
		return
	}
	h.inbox = append(h.inbox, m)
}
