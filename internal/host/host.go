// Package host implements the APNA end-host network stack: EphID pool
// management (paper Section VIII-A), connection establishment
// (Section IV-D1 and the client-server variant of Section VII-A),
// encrypted data communication (Section IV-D2), ICMP (Section VIII-B)
// and shutoff-request initiation (Section IV-E).
//
// The same stack also powers AS-internal service nodes (MS, DNS,
// accountability agent): a service is a host with a raw protocol
// handler registered for its message type.
//
// A Host is driven entirely by the discrete-event simulator's goroutine:
// its methods must be called either from simulator callbacks or between
// simulator runs. It therefore uses no locks.
package host

import (
	"encoding/binary"
	"errors"
	"fmt"

	"apna/internal/cert"
	"apna/internal/crypto"
	"apna/internal/ephid"
	"apna/internal/netsim"
	"apna/internal/rpki"
	"apna/internal/session"
	"apna/internal/wire"
)

// Errors returned by host operations.
var (
	ErrNoSession   = errors.New("host: no session for flow")
	ErrNotAttached = errors.New("host: not attached to the network")
	ErrNoEphID     = errors.New("host: no usable EphID in pool")
	ErrBadPeerCert = errors.New("host: peer certificate invalid")
	ErrNoPeerCert  = errors.New("host: peer certificate unknown for flow")
)

// OwnedEphID is an EphID this host holds the private keys for.
type OwnedEphID struct {
	// Cert is the AS-issued certificate binding the EphID to the keys.
	Cert cert.Cert
	// DH is the X25519 key pair whose public half is certified.
	DH *crypto.KeyPair
	// Sig is the Ed25519 key pair authorizing shutoff requests.
	Sig *crypto.Signer
	// InUse marks EphIDs consumed by the per-flow granularity policy.
	InUse bool
	// App labels the EphID under the per-application policy.
	App string
}

// Endpoint returns the AID:EphID address of this identifier.
func (o *OwnedEphID) Endpoint() wire.Endpoint {
	return wire.Endpoint{AID: o.Cert.AID, EphID: o.Cert.EphID}
}

// Message is application data delivered by the stack.
type Message struct {
	// Flow is the packet flow as seen by the receiver (Src is the
	// peer, Dst is the local endpoint).
	Flow wire.Flow
	// Payload is the decrypted application data.
	Payload []byte
	// Raw is the raw frame that carried the data — the delivered buffer
	// itself, which the stack owns and never writes again; it is the
	// evidence a shutoff request must present (Figure 5).
	Raw []byte
}

// Config assembles a host's identity, produced by bootstrapping.
type Config struct {
	AID  ephid.AID
	Keys crypto.HostASKeys
	// CtrlEphID is the control EphID issued at bootstrap, used to
	// reach AS services.
	CtrlEphID ephid.EphID
	// MSCert and DNSCert locate the AS's services.
	MSCert, DNSCert cert.Cert
	// Trust resolves AS keys for certificate verification.
	Trust *rpki.TrustStore
	// Now supplies Unix seconds (the simulation's virtual clock).
	Now func() int64
}

// Host is an APNA end host (or service node).
type Host struct {
	cfg  Config
	port *netsim.Port
	// mac is set once, by New: a frame waiting in macs is MACed under
	// the key its host held when it sent it.
	mac *wire.PacketMAC
	// macs is the packet-MAC batch of port's simulator (sendMACs).
	macs *sendMACs
	// ctl is the kHA AEAD of the host's MS requests and replies (request
	// direction, 0; opening ignores the direction). It is built once and
	// seals only through SealOnce (DESIGN §8, "Nonces").
	ctl *crypto.AEAD

	pool     map[ephid.EphID]*OwnedEphID
	poolList []*OwnedEphID

	sessions  map[sessKey]*session.Session
	peerCerts map[sessKey]*cert.Cert

	echoListeners []func(wire.Endpoint, uint16)

	pendingEphID []*pendingIssue
	dials        map[ephid.EphID][]*dialState
	// conns tracks the initiator-side connections this host opened, in
	// creation order (a slice, not a map: the lifecycle engine iterates
	// it from simulator callbacks and map order would break determinism).
	// Entries leave on Close or AbortDial.
	conns []*Conn
	// hsCompleted is the responder's handshake replay protection
	// (Section VIII-D): one entry per completed handshake flow —
	// (initiator endpoint, addressed EphID) — holding the
	// acknowledgment that answered it. A repeated handshake on that
	// flow — a captured frame played back, or a genuine re-dial (the
	// two are indistinguishable: certificates are static and handshakes
	// carry no fresh randomness) — is answered with the SAME ack and
	// never touches session state, so a replay can neither re-derive
	// the session (resetting the data plane's anti-replay window and
	// reopening it to replayed ciphertext) nor fire a duplicate accept,
	// while a genuine re-dial still gets its ack. The addressed EphID
	// must be part of the key: the same initiator endpoint dialing a
	// different EphID of this host is a new flow, not a replay. Entries
	// live as long as the addressed EphID is pooled: Retire and
	// ReapExpired drop them with it (forgetHandshakes).
	hsCompleted map[hsFlowKey]hsAck

	// nonce is the header nonce of the last packet sent; send draws
	// nonce+1 for the next, and nothing else advances it.
	nonce uint64
	// aad is sessionAAD's scratch: the stack is single-threaded and the
	// AEAD reads the additional data only during the call.
	aad [sessionAADSize]byte
	// complaintSeq numbers this host's inter-domain complaints; the
	// agent echoes it in the acknowledgment so concurrent complaints
	// resolve to their own receipts regardless of the order in which
	// remote ASes answer.
	complaintSeq uint64

	inbox        []Message
	flowTaps     map[sessKey]func(Message) bool
	onMessage    func(Message)
	onAccept     func(serving ephid.EphID, peer wire.Endpoint, addressed ephid.EphID)
	rawHandlers  map[wire.NextProto]func(hdr *wire.Header, payload []byte)
	rawListeners map[wire.NextProto][]func(hdr *wire.Header, payload []byte)

	stats Stats
}

// Stats counts the frames a host drops, by reason.
type Stats struct {
	DropNoSession    uint64
	DropDecrypt      uint64
	DropReplay       uint64
	DropBadHandshake uint64
}

// sessKey identifies a session by local EphID and peer endpoint.
type sessKey struct {
	local ephid.EphID
	peer  wire.Endpoint
}

// hsFlowKey identifies a handshake flow at the responder: the
// initiator's endpoint and the local EphID it addressed.
type hsFlowKey struct {
	peer wire.Endpoint
	dst  ephid.EphID
}

// hsAck is the stored answer to a completed handshake: the serving
// EphID the acknowledgment was sent from and its payload, re-sent
// verbatim to any repeat of that handshake. The entry is recorded only
// after full certificate verification and completion, so nothing an
// attacker can fabricate seeds it — in particular, the cache must NOT
// be keyed by the header nonce: nonces are an unauthenticated plaintext
// counter, so an attacker holding a victim's captured (genuinely
// signed) certificate could mint a frame carrying the victim's
// predicted next nonce and have the genuine handshake dropped as a
// replay.
type hsAck struct {
	src     ephid.EphID
	payload []byte
}

// New creates a host from its bootstrap identity.
func New(cfg Config) (*Host, error) {
	mac, err := wire.NewPacketMAC(cfg.Keys.MAC[:])
	if err != nil {
		return nil, err
	}
	ctl, err := crypto.NewAEAD(cfg.Keys.Enc[:], 0)
	if err != nil {
		return nil, err
	}
	return &Host{
		cfg:          cfg,
		mac:          mac,
		ctl:          ctl,
		pool:         make(map[ephid.EphID]*OwnedEphID),
		sessions:     make(map[sessKey]*session.Session),
		peerCerts:    make(map[sessKey]*cert.Cert),
		dials:        make(map[ephid.EphID][]*dialState),
		hsCompleted:  make(map[hsFlowKey]hsAck),
		flowTaps:     make(map[sessKey]func(Message) bool),
		rawHandlers:  make(map[wire.NextProto]func(*wire.Header, []byte)),
		rawListeners: make(map[wire.NextProto][]func(*wire.Header, []byte)),
	}, nil
}

// Attach binds the host to a network port (its access link).
func (h *Host) Attach(p *netsim.Port) {
	h.port = p
	h.macs = sendMACsOf(p.Sim())
	p.Attach(h)
}

// Stats returns a copy of the host's counters.
func (h *Host) Stats() Stats { return h.stats }

// Config returns the host's identity configuration.
func (h *Host) Config() Config { return h.cfg }

// OnMessage installs the application data callback. Without one,
// messages accumulate in the inbox.
func (h *Host) OnMessage(fn func(Message)) { h.onMessage = fn }

// OnAccept installs a callback fired when an inbound handshake creates
// a session: serving is the local EphID answering, peer the remote
// endpoint, and addressed the EphID the peer originally dialed (these
// differ for receive-only identifiers). The scenario referee uses it to
// tell the invariant checker which flows a responder accepted.
func (h *Host) OnAccept(fn func(serving ephid.EphID, peer wire.Endpoint, addressed ephid.EphID)) {
	h.onAccept = fn
}

// AddEchoListener registers an ICMP echo reply listener. Listeners
// are additive: infrastructure (the facade's ping dispatcher) and
// applications listen side by side, and neither displaces the other.
// from is the replying endpoint (the EphID the request addressed),
// letting listeners match replies to probes by destination, not just
// sequence number.
func (h *Host) AddEchoListener(fn func(from wire.Endpoint, seq uint16)) {
	h.echoListeners = append(h.echoListeners, fn)
}

// RegisterRawHandler overrides packet handling for a protocol number —
// how AS services (MS, DNS, AA) mount their logic on a host stack.
// Single slot: a later registration replaces the handler. Observers
// that must survive application registrations use AddRawListener.
func (h *Host) RegisterRawHandler(p wire.NextProto, fn func(hdr *wire.Header, payload []byte)) {
	h.rawHandlers[p] = fn
}

// AddRawListener registers an additional observer for a protocol
// number, invoked on every matching packet before the raw handler (or
// default processing). Listeners coexist with handlers and each other —
// infrastructure (the facade's shutoff-ack dispatcher) listens here so
// application handlers cannot displace it.
func (h *Host) AddRawListener(p wire.NextProto, fn func(hdr *wire.Header, payload []byte)) {
	h.rawListeners[p] = append(h.rawListeners[p], fn)
}

// TapFlow intercepts messages arriving on one flow (local EphID, peer
// endpoint) before they reach OnMessage or the inbox. The tap's return
// value reports whether to keep it for further messages; returning
// false removes it. Taps let concurrent request/response exchanges
// (DNS, RPC-style services) consume their replies without draining
// messages belonging to other flows.
func (h *Host) TapFlow(local ephid.EphID, peer wire.Endpoint, fn func(Message) bool) {
	h.flowTaps[sessKey{local: local, peer: peer}] = fn
}

// Untap removes a flow tap installed by TapFlow, if any — the cleanup
// path for exchanges abandoned before their response arrived.
func (h *Host) Untap(local ephid.EphID, peer wire.Endpoint) {
	delete(h.flowTaps, sessKey{local: local, peer: peer})
}

// Inbox drains and returns queued messages.
func (h *Host) Inbox() []Message {
	m := h.inbox
	h.inbox = nil
	return m
}

// send is the one way a packet leaves this stack. It builds the frame
// once, in one buffer — header, then data (sealed under sess with the
// header bound as additional data when sess is non-nil, as is
// otherwise) — and hands that buffer to the access link, after adding
// it to the simulator's sendMACs, which writes the packet MAC over both
// before anything reads the frame. A send that is refused consumes
// nothing: attachment and size are checked before the header nonce or
// an AEAD counter value is drawn.
func (h *Host) send(proto wire.NextProto, flags uint8, src ephid.EphID, dst wire.Endpoint, data []byte, sess *session.Session) error {
	if h.port == nil {
		return ErrNotAttached
	}
	n := len(data)
	if sess != nil {
		n += sess.Overhead()
	}
	if n > wire.MaxPayload {
		return fmt.Errorf("%w: %d bytes", wire.ErrTooLarge, n)
	}
	h.nonce++
	hdr := wire.Header{
		NextProto: proto, Flags: flags, HopLimit: wire.DefaultHopLimit,
		PayloadLen: uint16(n),
		Nonce:      h.nonce,
		SrcAID:     h.cfg.AID, DstAID: dst.AID,
		SrcEphID: src, DstEphID: dst.EphID,
	}
	frame := hdr.AppendTo(make([]byte, 0, wire.HeaderSize+n))
	if sess == nil {
		frame = append(frame, data...)
	} else {
		var err error
		if frame, err = sess.AppendSeal(frame, data, h.sessionAAD(&hdr)); err != nil {
			return err
		}
	}
	h.macs.add(h.mac, frame)
	h.port.Forward(frame)
	return nil
}

// sendMACs is the packet-MAC batch of all the host stacks attached to
// one simulator. send adds each frame to it instead of MACing the frame
// itself, and the first frame of an instant Defers the batch, so the
// simulator MACs every frame sent at that instant in one
// wire.MACBatch pass before any of them can be read. A lone frame is a
// batch of one.
type sendMACs struct {
	sim   *netsim.Simulator
	batch wire.MACBatch
	armed bool // deferred, and not settled since
}

// sendMACsKey is what a simulator keeps its sendMACs under.
type sendMACsKey struct{}

// sendMACsOf returns the sendMACs of sim, made on first use.
func sendMACsOf(sim *netsim.Simulator) *sendMACs {
	return sim.Shared(sendMACsKey{}, func() any { return &sendMACs{sim: sim} }).(*sendMACs)
}

// add queues frame to be MACed under mac.
func (m *sendMACs) add(mac *wire.PacketMAC, frame []byte) {
	if !m.armed {
		m.armed = true
		m.sim.Defer(m)
	}
	m.batch.Add(mac, frame)
}

// Settle implements netsim.Settler: it MACs every queued frame.
func (m *sendMACs) Settle() {
	m.batch.Apply()
	m.batch.Reset(0)
	m.armed = false
}

// SendRaw sends an arbitrary protocol payload (service replies).
func (h *Host) SendRaw(proto wire.NextProto, flags uint8, src ephid.EphID, dst wire.Endpoint, payload []byte) error {
	return h.send(proto, flags, src, dst, payload, nil)
}

// ApplyMAC stamps a pre-built frame with this host's per-packet MAC —
// the NAT-mode access point's MAC-replacement step (Section VII-B).
func (h *Host) ApplyMAC(frame []byte) { h.mac.Apply(frame) }

// SendFrame transmits a pre-built, already-MACed frame. The frame is
// copied: the caller keeps it.
func (h *Host) SendFrame(frame []byte) error {
	if h.port == nil {
		return ErrNotAttached
	}
	h.port.Send(frame)
	return nil
}

// HandleFrame implements netsim.Handler: the host's receive demux. The
// stack owns frame from here on (a data frame becomes Message.Raw).
// Registered hooks get a copy of the header: a pointer handed to a
// function value escapes, and the copy keeps the decoded packet of
// every other frame on the stack.
func (h *Host) HandleFrame(frame []byte, _ *netsim.Port) {
	pkt, err := wire.DecodePacket(frame)
	if err != nil {
		return
	}
	proto := pkt.Header.NextProto
	listeners, handler := h.rawListeners[proto], h.rawHandlers[proto]
	if len(listeners) > 0 || handler != nil {
		hdr := pkt.Header
		for _, fn := range listeners {
			fn(&hdr, pkt.Payload)
		}
		if handler != nil {
			handler(&hdr, pkt.Payload)
			return
		}
	}
	switch proto {
	case wire.ProtoControl:
		h.handleControlReply(&pkt.Header, pkt.Payload)
	case wire.ProtoHandshake:
		h.handleHandshake(&pkt.Header, pkt.Payload, frame)
	case wire.ProtoSession:
		h.handleSession(&pkt.Header, pkt.Payload, frame)
	case wire.ProtoICMP:
		h.handleICMP(&pkt.Header, pkt.Payload)
	}
}

// sessionAADSize is the length of a data packet's AEAD additional data:
// header nonce, then source and destination AID:EphID.
const sessionAADSize = 8 + 2*(4+ephid.Size)

// sessionAAD builds, in the host's scratch, the AEAD additional data
// binding ciphertext to the packet's flow and nonce, preventing
// cross-flow splicing. The result is valid until the next call.
func (h *Host) sessionAAD(hdr *wire.Header) []byte {
	aad := h.aad[:0]
	aad = binary.BigEndian.AppendUint64(aad, hdr.Nonce)
	aad = binary.BigEndian.AppendUint32(aad, uint32(hdr.SrcAID))
	aad = append(aad, hdr.SrcEphID[:]...)
	aad = binary.BigEndian.AppendUint32(aad, uint32(hdr.DstAID))
	return append(aad, hdr.DstEphID[:]...)
}

// verifyPeerCert checks a peer certificate against the packet header it
// arrived in and against the trust store.
func (h *Host) verifyPeerCert(c *cert.Cert, srcAID ephid.AID, srcEphID ephid.EphID) error {
	if err := h.checkCertSource(c, srcAID, srcEphID); err != nil {
		return err
	}
	return h.verifyCert(c)
}

// checkCertSource checks what verifyPeerCert checks of a certificate
// already verified against the trust store: that it names the packet's
// source and has not expired since.
func (h *Host) checkCertSource(c *cert.Cert, srcAID ephid.AID, srcEphID ephid.EphID) error {
	if c.AID != srcAID || c.EphID != srcEphID {
		return fmt.Errorf("%w: certificate does not match packet source", ErrBadPeerCert)
	}
	if c.Expired(h.cfg.Now()) {
		return fmt.Errorf("%w: expired", ErrBadPeerCert)
	}
	return nil
}

// verifyCert checks a certificate against the trust store: signed by
// its AS's current key, and unexpired.
func (h *Host) verifyCert(c *cert.Cert) error {
	key, err := h.cfg.Trust.SigKey(c.AID, h.cfg.Now())
	if err != nil {
		return fmt.Errorf("%w: %w", ErrBadPeerCert, err)
	}
	if err := c.Verify(key, h.cfg.Now()); err != nil {
		return fmt.Errorf("%w: %w", ErrBadPeerCert, err)
	}
	return nil
}
