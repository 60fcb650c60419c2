package host

import (
	"encoding/binary"
	"errors"
	"fmt"

	"apna/internal/cert"
	"apna/internal/ephid"
	"apna/internal/session"
	"apna/internal/wire"
)

// Connection establishment (Section IV-D1). The initiator already holds
// the responder's certificate (from DNS or a previous exchange), so it
// can derive the session key immediately; the handshake message carries
// the initiator's certificate (the responder needs it for the same
// derivation) and, optionally, 0-RTT application data (Section VII-C).
//
// When the responder was addressed by a receive-only EphID
// (Section VII-A), its acknowledgment carries the certificate of a
// *serving* EphID and the connection migrates to it.

// handshake message flags.
const (
	hsFlagAck = 1 << 0
)

// handshakeMsg is the ProtoHandshake payload.
type handshakeMsg struct {
	flags byte
	cert  cert.Cert
	data  []byte // encrypted 0-RTT payload, possibly empty
}

var errBadHandshake = errors.New("host: malformed handshake")

func (m *handshakeMsg) encode() ([]byte, error) {
	certRaw, err := m.cert.MarshalBinary()
	if err != nil {
		return nil, err
	}
	buf := make([]byte, 0, 1+len(certRaw)+2+len(m.data))
	buf = append(buf, m.flags)
	buf = append(buf, certRaw...)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(m.data)))
	return append(buf, m.data...), nil
}

func decodeHandshake(data []byte) (*handshakeMsg, error) {
	if len(data) < 1+cert.Size+2 {
		return nil, fmt.Errorf("%w: %d bytes", errBadHandshake, len(data))
	}
	var m handshakeMsg
	m.flags = data[0]
	if err := m.cert.UnmarshalBinary(data[1 : 1+cert.Size]); err != nil {
		return nil, fmt.Errorf("%w: %w", errBadHandshake, err)
	}
	n := int(binary.BigEndian.Uint16(data[1+cert.Size:]))
	rest := data[1+cert.Size+2:]
	if len(rest) != n {
		return nil, fmt.Errorf("%w: data length %d vs %d", errBadHandshake, n, len(rest))
	}
	m.data = rest
	return &m, nil
}

// Conn is the initiator's handle on a connection.
type Conn struct {
	h     *Host
	local *OwnedEphID
	// peer is the endpoint data is sent to; it starts as the dialed
	// EphID and migrates to the server's serving EphID on ack.
	peer        wire.Endpoint
	established bool
	queue       [][]byte
	onEstablish func(*Conn)
	// createdSess records whether Dial created this flow's session (as
	// opposed to a re-dial reusing an existing one) — AbortDial may
	// only tear down session state this dial actually owns.
	createdSess bool
	// migrating marks a connection whose re-handshake onto a successor
	// EphID is in flight, so the lifecycle engine does not start a
	// second migration for the same connection.
	migrating bool
	// closed marks a torn-down connection; Send fails fast instead of
	// silently queueing into a flow that no longer exists.
	closed bool
}

// Peer returns the current peer endpoint.
func (c *Conn) Peer() wire.Endpoint { return c.peer }

// Local returns the EphID currently sourcing this connection.
func (c *Conn) Local() *OwnedEphID { return c.local }

// Established reports whether the handshake acknowledgment arrived.
func (c *Conn) Established() bool { return c.established }

// Closed reports whether Close tore the connection down.
func (c *Conn) Closed() bool { return c.closed }

// Migrating reports whether a re-handshake onto a successor EphID is in
// flight for this connection.
func (c *Conn) Migrating() bool { return c.migrating }

// Close tears down the connection: the flow's session state is dropped
// and the local EphID is released back to the pool, clearing the
// per-flow InUse mark so the pool no longer drains as flows come and
// go. An unestablished connection aborts its in-flight dial first. The
// peer is not notified — teardown is a local resource operation; the
// peer's flow state ages out with its EphID. Closing twice is a no-op.
func (c *Conn) Close() {
	if c.closed {
		return
	}
	c.closed = true
	h := c.h
	if !c.established {
		h.AbortDial(c) // also removes the conn from tracking
	} else {
		h.removeConn(c)
		// Tear down the flow's session state only when no other live
		// connection shares the flow (a re-dial, or a migration's
		// in-flight handshake handle) — deleting shared state would
		// brick the survivor.
		if !h.flowShared(c.local.Cert.EphID, c.peer) {
			key := sessKey{local: c.local.Cert.EphID, peer: c.peer}
			delete(h.sessions, key)
			delete(h.peerCerts, key)
		}
	}
	c.established = false
	c.queue = nil
	h.Release(c.local)
}

// flowShared reports whether any tracked connection still uses the
// given flow.
func (h *Host) flowShared(local ephid.EphID, peer wire.Endpoint) bool {
	for _, e := range h.conns {
		if e.local.Cert.EphID == local && e.peer == peer {
			return true
		}
	}
	return false
}

// dialState tracks an in-flight dial. Dials are kept per local EphID;
// acknowledgments are matched back by the dialed EphID each ack echoes.
type dialState struct {
	conn *Conn
}

// DialOptions tunes connection establishment.
type DialOptions struct {
	// Data0RTT, if non-empty, is encrypted into the first packet under
	// the session with the dialed EphID — the 0-RTT option of
	// Section VII-C, trading first-packet forward secrecy for latency.
	Data0RTT []byte
	// OnEstablish fires when the acknowledgment arrives.
	OnEstablish func(*Conn)
}

// Dial establishes a connection from the local EphID to the peer
// certificate (obtained from DNS or out of band). The session key is
// derived immediately; queued data flows once the ack confirms (or
// immediately as 0-RTT data).
func (h *Host) Dial(local *OwnedEphID, peerCert *cert.Cert, opts DialOptions) (*Conn, error) {
	if peerCert.Expired(h.cfg.Now()) {
		return nil, fmt.Errorf("%w: expired", ErrBadPeerCert)
	}
	peer := wire.Endpoint{AID: peerCert.AID, EphID: peerCert.EphID}
	// Re-dialing a flow whose session already exists continues that
	// session rather than deriving a fresh one: the keys would be
	// identical anyway (certificates are static), and continuing the
	// sequence state keeps the peer's anti-replay window — which a
	// re-handshake deliberately does not reset — accepting our traffic.
	key := sessKey{local: local.Cert.EphID, peer: peer}
	sess, ok := h.sessions[key]
	if !ok {
		var err error
		sess, err = session.New(local.DH, peerCert.DHPub[:], local.Cert.EphID, peerCert.EphID)
		if err != nil {
			return nil, err
		}
		h.sessions[key] = sess
	}
	h.peerCerts[key] = peerCert

	conn := &Conn{h: h, local: local, peer: peer, onEstablish: opts.OnEstablish,
		createdSess: !ok}

	msg := handshakeMsg{cert: local.Cert}
	flags := uint8(0)
	zeroRTT := len(opts.Data0RTT) > 0
	if zeroRTT {
		// Encrypt 0-RTT data under the session with the dialed EphID,
		// bound to the header nonce the handshake packet will carry:
		// the one send draws next.
		hdr := wire.Header{
			Nonce:  h.nonce + 1,
			SrcAID: h.cfg.AID, DstAID: peer.AID,
			SrcEphID: local.Cert.EphID, DstEphID: peer.EphID,
		}
		ct, err := sess.Seal(opts.Data0RTT, h.sessionAAD(&hdr))
		if err != nil {
			return nil, err
		}
		msg.data = ct
		flags |= wire.FlagZeroRTT
	}
	payload, err := msg.encode()
	if err != nil {
		return nil, err
	}
	if err := h.send(wire.ProtoHandshake, flags, local.Cert.EphID, peer, payload, nil); err != nil {
		return nil, err
	}
	// Record the in-flight dial only once the handshake actually left:
	// a failed send must not leave a record that would claim a later
	// dial's acknowledgment.
	h.dials[local.Cert.EphID] = append(h.dials[local.Cert.EphID], &dialState{conn: conn})
	h.conns = append(h.conns, conn)
	return conn, nil
}

// Conns returns the host's tracked initiator-side connections in
// creation order. The returned slice is the host's own bookkeeping —
// callers must not mutate it.
func (h *Host) Conns() []*Conn { return h.conns }

// Tracks reports whether the connection is still in the host's
// tracking list — false once it closed or its dial was aborted.
func (h *Host) Tracks(c *Conn) bool {
	for _, e := range h.conns {
		if e == c {
			return true
		}
	}
	return false
}

// removeConn drops a connection from the tracking list, preserving
// order.
func (h *Host) removeConn(c *Conn) {
	for i, e := range h.conns {
		if e == c {
			h.conns = append(h.conns[:i], h.conns[i+1:]...)
			return
		}
	}
}

// Migrate re-handshakes an established connection onto a successor
// EphID — the in-flight half of the lifecycle engine: when a per-flow
// identifier nears expiry, the renewed identifier dials the same peer
// certificate and, once the acknowledgment arrives, the caller's *Conn
// adopts the new identity in place. The predecessor flow's session
// state is torn down and its EphID released only at that point, so the
// old identifier keeps carrying traffic until the successor is live
// (frames it sends after its own expiry are dropped at the border —
// the drop-expired window the scheduler's renewal lead exists to
// avoid). done, if non-nil, fires when the migration completes.
func (h *Host) Migrate(c *Conn, succ *OwnedEphID, done func(error)) error {
	if succ == nil {
		return ErrNoEphID
	}
	if !c.established || c.closed {
		return fmt.Errorf("%w: migrate needs an established connection", ErrNoSession)
	}
	oldKey := sessKey{local: c.local.Cert.EphID, peer: c.peer}
	pc, ok := h.peerCerts[oldKey]
	if !ok {
		return ErrNoPeerCert
	}
	old := c.local
	c.migrating = true
	// The connection's per-flow lease transfers to the successor NOW,
	// not at completion: an unclaimed successor sitting in the pool
	// could be handed to a new flow by Acquire mid-migration, and that
	// flow's teardown would destroy the migrated session.
	leased := old.InUse
	if leased {
		succ.InUse = true
	}
	_, err := h.Dial(succ, pc, DialOptions{OnEstablish: func(nc *Conn) {
		if c.closed {
			// The flow was torn down mid-migration: the successor's
			// freshly established flow is unwanted. Drop it and return
			// the transferred lease, so a close racing a migration
			// cannot leak a pool slot.
			c.migrating = false
			h.removeConn(nc)
			if !h.flowShared(succ.Cert.EphID, nc.peer) {
				key := sessKey{local: succ.Cert.EphID, peer: nc.peer}
				delete(h.sessions, key)
				delete(h.peerCerts, key)
			}
			h.Release(succ)
			if done != nil {
				done(nil)
			}
			return
		}
		// Graft the successor identity onto the caller's handle so the
		// caller's *Conn keeps working across the swap, then retire the
		// predecessor flow.
		c.local = nc.local
		c.peer = nc.peer
		c.migrating = false
		h.removeConn(nc) // the temporary dial handle is absorbed into c
		delete(h.sessions, oldKey)
		delete(h.peerCerts, oldKey)
		h.Release(old)
		h.stats.FlowsMigrated++
		if done != nil {
			done(nil)
		}
	}})
	if err != nil {
		c.migrating = false
		if leased {
			succ.InUse = false // lease returns with the failed dial
		}
		return err
	}
	return nil
}

// AbortMigration cancels an in-flight migration re-handshake so a
// fresh Migrate can be issued — the retry path for migrations whose
// handshake or acknowledgment a chaotic link swallowed. The stale dial
// from the successor toward the connection's peer is aborted and the
// migrating mark cleared. No-op when the connection is not migrating.
func (h *Host) AbortMigration(c *Conn, succ *OwnedEphID) {
	if !c.migrating {
		return
	}
	for _, ds := range append([]*dialState(nil), h.dials[succ.Cert.EphID]...) {
		if ds.conn.peer == c.peer && ds.conn != c {
			h.AbortDial(ds.conn)
		}
	}
	c.migrating = false
}

// AbortDial tears down conn's in-flight dial, if still pending — the
// cleanup path for dials abandoned before their acknowledgment
// arrived: the dial record (which would otherwise claim a later dial's
// ack) and the speculative session state Dial created. Established
// connections are untouched.
func (h *Host) AbortDial(conn *Conn) {
	local := conn.local.Cert.EphID
	list := h.dials[local]
	removed := false
	for i, ds := range list {
		if ds.conn == conn {
			list = append(list[:i], list[i+1:]...)
			removed = true
			break
		}
	}
	if !removed {
		return // already established (or never recorded): nothing to undo
	}
	if len(list) == 0 {
		delete(h.dials, local)
	} else {
		h.dials[local] = list
	}
	h.removeConn(conn)
	if !conn.createdSess {
		// A re-dial reused the session of an earlier connection on this
		// flow; deleting it here would brick that live connection.
		return
	}
	key := sessKey{local: local, peer: conn.peer}
	delete(h.sessions, key)
	delete(h.peerCerts, key)
}

// Send transmits application data on the connection, queueing it until
// establishment if necessary. Sending on a closed connection fails with
// ErrNoSession.
func (c *Conn) Send(data []byte) error {
	if c.closed {
		return fmt.Errorf("%w: connection closed", ErrNoSession)
	}
	if !c.established {
		c.queue = append(c.queue, append([]byte(nil), data...))
		return nil
	}
	return c.h.SendData(c.local.Cert.EphID, c.peer, data)
}

// handleHandshake processes both initial handshakes and acks.
func (h *Host) handleHandshake(hdr *wire.Header, payload []byte, frame []byte) {
	msg, err := decodeHandshake(payload)
	if err != nil {
		h.stats.DropBadHandshake++
		return
	}
	if err := h.verifyPeerCert(&msg.cert, hdr.SrcAID, hdr.SrcEphID); err != nil {
		h.stats.DropBadHandshake++
		return
	}

	if msg.flags&hsFlagAck != 0 {
		// Acks need no replay cache: each consumes its in-flight dial
		// record, so a replayed ack matches nothing and is dropped.
		h.handleHandshakeAck(hdr, msg)
		return
	}

	// Responder path. The packet must address an EphID we own.
	local, ok := h.pool[hdr.DstEphID]
	if !ok {
		h.stats.DropBadHandshake++
		return
	}
	peer := wire.Endpoint{AID: hdr.SrcAID, EphID: hdr.SrcEphID}

	// Replay protection (Section VIII-D): a handshake on a flow that
	// already completed — a captured frame played back, or a genuine
	// re-dial of the same flow — is answered with the original
	// acknowledgment and nothing else. Re-deriving the session here
	// would reset its anti-replay window, reopening the data plane to
	// replayed ciphertext; silently dropping instead would let an
	// attacker who preplays a victim's predictable handshake starve the
	// genuine initiator of its ack. Any 0-RTT payload is discarded: it
	// could be a replayed ciphertext, and the fresh-session derivation
	// it needs is exactly what this path must not do.
	fk := hsFlowKey{peer: peer, dst: hdr.DstEphID}
	if prev, done := h.hsCompleted[fk]; done {
		h.stats.DropReplay++
		_ = h.send(wire.ProtoHandshake, 0, prev.src, peer, prev.payload, nil)
		return
	}

	// Choose the serving EphID: receive-only identifiers never source
	// traffic (Section VII-A).
	serving := local
	if local.Cert.Kind == ephid.KindReceiveOnly {
		serving = h.pickServing()
		if serving == nil {
			h.stats.DropBadHandshake++
			return
		}
	}

	sess, err := session.New(serving.DH, msg.cert.DHPub[:], serving.Cert.EphID, msg.cert.EphID)
	if err != nil {
		h.stats.DropBadHandshake++
		return
	}
	key := sessKey{local: serving.Cert.EphID, peer: peer}
	h.sessions[key] = sess
	peerCert := msg.cert
	h.peerCerts[key] = &peerCert
	if h.onAccept != nil {
		h.onAccept(serving.Cert.EphID, peer, hdr.DstEphID)
	}

	// 0-RTT data rides under the session with the *addressed* EphID
	// (the only key the initiator could derive); it is delivered on
	// the serving flow so the application can respond.
	var zeroRTT *Message
	if len(msg.data) > 0 {
		sess0 := sess
		if serving != local {
			sess0, err = session.New(local.DH, msg.cert.DHPub[:], local.Cert.EphID, msg.cert.EphID)
			if err != nil {
				h.stats.DropBadHandshake++
				return
			}
		}
		pt, err := sess0.Open(msg.data, h.sessionAAD(hdr))
		if err != nil {
			h.stats.DropDecrypt++
		} else {
			zeroRTT = &Message{
				Flow:    wire.Flow{Src: peer, Dst: wire.Endpoint{AID: h.cfg.AID, EphID: serving.Cert.EphID}},
				Payload: pt,
				Raw:     frame,
			}
		}
	}

	// The ack echoes the EphID the initiator dialed, so an initiator
	// with several dials in flight can correlate exactly even when the
	// serving EphID differs from the dialed one (receive-only case).
	ack := handshakeMsg{flags: hsFlagAck, cert: serving.Cert, data: hdr.DstEphID[:]}
	ackPayload, err := ack.encode()
	if err != nil {
		return
	}
	_ = h.send(wire.ProtoHandshake, 0, serving.Cert.EphID, peer, ackPayload, nil)
	// The handshake completed: remember its ack so duplicates are
	// answered idempotently instead of re-deriving the session.
	h.hsCompleted[fk] = hsAck{src: serving.Cert.EphID, payload: ackPayload}
	if zeroRTT != nil {
		h.deliver(*zeroRTT)
	}
}

// handleHandshakeAck completes the initiator side. The ack's echoed
// dialed EphID names the dial it answers exactly — for direct dials it
// equals the serving EphID, for migrated (receive-only) dials it is the
// published EphID the initiator addressed — so there is a single
// matching rule and never a guess. Acks without the echo, or whose
// echo matches no in-flight dial (already abandoned), are dropped.
func (h *Host) handleHandshakeAck(hdr *wire.Header, msg *handshakeMsg) {
	if len(msg.data) != ephid.Size {
		h.stats.DropBadHandshake++
		return
	}
	var dialed ephid.EphID
	copy(dialed[:], msg.data)
	serving := wire.Endpoint{AID: hdr.SrcAID, EphID: hdr.SrcEphID}
	want := wire.Endpoint{AID: serving.AID, EphID: dialed}

	list := h.dials[hdr.DstEphID]
	idx := -1
	for i, ds := range list {
		if ds.conn.peer == want {
			idx = i
			break
		}
	}
	if idx < 0 {
		h.stats.DropBadHandshake++
		return
	}
	ds := list[idx]
	conn := ds.conn
	if serving != conn.peer {
		// The server migrated us to a serving EphID: derive the real
		// session — unless one already exists (a genuine re-dial of the
		// same receive-only flow), in which case it must be kept: the
		// keys would be identical anyway, and replacing it would reset
		// its anti-replay window, re-admitting ciphertext it already
		// consumed.
		key := sessKey{local: conn.local.Cert.EphID, peer: serving}
		if _, ok := h.sessions[key]; !ok {
			sess, err := session.New(conn.local.DH, msg.cert.DHPub[:], conn.local.Cert.EphID, msg.cert.EphID)
			if err != nil {
				h.stats.DropBadHandshake++
				return
			}
			h.sessions[key] = sess
		}
		peerCert := msg.cert
		h.peerCerts[key] = &peerCert
		conn.peer = serving
	}
	if list = append(list[:idx], list[idx+1:]...); len(list) == 0 {
		delete(h.dials, hdr.DstEphID)
	} else {
		h.dials[hdr.DstEphID] = list
	}
	conn.established = true
	for _, data := range conn.queue {
		_ = h.SendData(conn.local.Cert.EphID, conn.peer, data)
	}
	conn.queue = nil
	if conn.onEstablish != nil {
		conn.onEstablish(conn)
	}
}
