package apna

import (
	"errors"
	"fmt"

	"apna/internal/cert"
	"apna/internal/crypto"
	"apna/internal/dns"
	"apna/internal/ephid"
	"apna/internal/host"
	"apna/internal/netsim"
	"apna/internal/registry"
	"apna/internal/spare"
	"apna/internal/wire"
)

// Host is a bootstrapped end host attached to an AS. Every protocol
// operation exists in two forms: a non-blocking *Async method returning
// a Pending future, and a blocking convenience that initiates the
// operation and drives the simulator until it resolves. The blocking
// forms are thin Await wrappers over the async core, so mixing them
// with concurrent scenarios is safe.
type Host struct {
	// Name is the subscriber name used at authentication.
	Name string
	// Stack is the underlying protocol stack.
	Stack *host.Host

	as   *AS
	hid  HID
	link *netsim.Link

	// shutoffs are in-flight shutoff requests keyed by the agent they
	// address, resolved FIFO per agent (the request channel to each AA
	// is ordered in the simulator; acknowledgments from *different*
	// agents may arrive in any order).
	shutoffs map[Endpoint][]*Pending[bool]
	// complaints are in-flight inter-domain complaints. Unlike
	// shutoffs they cannot be matched FIFO — all of a host's complaints
	// are answered by its one local agent, in whatever order remote
	// ASes' receipts arrive — so each is keyed by the sequence number
	// the agent echoes in its acknowledgment.
	complaints map[complaintKey]*Pending[*ShutoffReceipt]
	// pings are in-flight echo requests keyed by destination and
	// sequence number, so replies resolve the probe that addressed
	// them and not another destination's probe sharing the seq.
	pings map[pingKey][]*Pending[bool]
	// dnsCache is the host-side verified resolution cache (positive and
	// negative) behind LookupAsync; dnsStats counts its activity.
	dnsCache *dns.Cache
	dnsStats dnsStats
}

// pingKey identifies an in-flight echo probe.
type pingKey struct {
	dst Endpoint
	seq uint16
}

// complaintKey identifies an in-flight inter-domain complaint by the
// answering agent and the host's complaint sequence number.
type complaintKey struct {
	agent Endpoint
	seq   uint64
}

// AddHosts registers subscribers with the AS, bootstraps them as one
// batch (Figure 2) and attaches their stacks to the border router, all
// in the order the names are given, which is also the order of the
// hosts returned and of their HIDs. Host names are the facade's
// handles: they must be unique within the internet, and a name already
// taken, or given twice, fails the call before any host registers.
func (in *Internet) AddHosts(aid AID, names ...string) ([]*Host, error) {
	as, ok := in.ases[aid]
	if !ok {
		return nil, fmt.Errorf("%w: %v", ErrUnknownAS, aid)
	}
	seen := make(map[string]bool, len(names))
	for _, name := range names {
		if _, dup := in.hosts[name]; dup || seen[name] {
			return nil, fmt.Errorf("%w: %q", ErrDuplicateHost, name)
		}
		seen[name] = true
	}
	hostKeys := make([]*crypto.KeyPair, len(names))
	batch := make([]registry.Enrollment, len(names))
	for i, name := range names {
		// Provision a credential — the facade plays the subscription
		// office.
		credential := name + "-credential"
		as.creds[credential] = name
		k, err := crypto.GenerateKeyPair()
		if err != nil {
			return nil, err
		}
		hostKeys[i] = k
		batch[i] = registry.Enrollment{Credential: []byte(credential), HostPub: k.PublicKey()}
	}
	boots, err := as.RS.Bootstrap(batch)
	if err != nil {
		return nil, err
	}

	// The host side of Figure 2, each host on the caller or a spare
	// core: verify the signed bootstrap information against the AS key
	// from the trust store, then derive kHA from the host's own DH
	// exchange.
	asKey, err := in.Trust.SigKey(aid, in.Sim.NowUnix())
	if err != nil {
		return nil, err
	}
	keys := make([]crypto.HostASKeys, len(names))
	err = spare.Each(len(boots), func(i int) error {
		if err := boots[i].IDInfo.Verify(asKey); err != nil {
			return err
		}
		dhSecret, err := hostKeys[i].SharedSecret(boots[i].ASDHPub[:])
		if err != nil {
			return err
		}
		keys[i] = crypto.DeriveHostASKeys(dhSecret)
		return nil
	})
	if err != nil {
		return nil, err
	}

	hosts := make([]*Host, len(names))
	for i, name := range names {
		if hosts[i], err = in.attachHost(as, name, &boots[i], keys[i]); err != nil {
			return nil, err
		}
	}
	return hosts, nil
}

// attachHost builds a bootstrapped host's stack from its kHA and its
// bootstrap result, and attaches it to its AS's border router.
func (in *Internet) attachHost(as *AS, name string, boot *registry.BootstrapResult, keys crypto.HostASKeys) (*Host, error) {
	stack, err := host.New(host.Config{
		AID: as.AID, HID: boot.HID,
		Keys:      keys,
		CtrlEphID: boot.IDInfo.ControlEphID,
		MSCert:    boot.MSCert, DNSCert: boot.DNSCert,
		Trust: in.Trust, Now: in.Sim.NowUnix,
	})
	if err != nil {
		return nil, err
	}

	h := &Host{Name: name, Stack: stack, as: as, hid: boot.HID,
		shutoffs:   make(map[Endpoint][]*Pending[bool]),
		complaints: make(map[complaintKey]*Pending[*ShutoffReceipt]),
		pings:      make(map[pingKey][]*Pending[bool]),
		dnsCache:   dns.NewCache()}
	h.link = in.Sim.NewLink("host-"+name, in.opts.HostLinkLatency, 0)
	as.Router.AttachHost(boot.HID, h.link.A())
	stack.Attach(h.link.B())

	// Resolve shutoff futures from agent acknowledgments, FIFO per
	// answering agent. The additive listener survives application
	// RegisterRawHandler calls for ProtoShutoff.
	stack.AddRawListener(wire.ProtoShutoff, func(hdr *wire.Header, payload []byte) {
		if len(payload) != 1 {
			return
		}
		agent := Endpoint{AID: hdr.SrcAID, EphID: hdr.SrcEphID}
		if p := queuePop(h.shutoffs, agent); p != nil {
			p.complete(payload[0] == 1, nil)
		}
	})
	// Resolve complaint futures from accountability-plane acks by
	// echoed sequence number, verifying the signed receipt end to end.
	stack.AddRawListener(wire.ProtoAcct, h.handleComplaintAck)
	// Dispatch echo replies to the ping future(s) addressed to the
	// replying endpoint, so overlapping pings — even ones sharing a
	// sequence number toward different destinations — resolve
	// independently. Echo listeners are additive, so an application
	// listener cannot displace the dispatcher.
	stack.AddEchoListener(func(from wire.Endpoint, seq uint16) {
		if p := queuePop(h.pings, pingKey{dst: from, seq: seq}); p != nil {
			p.complete(true, nil)
		}
	})

	in.hosts[name] = h
	return h, nil
}

// AS returns the host's AS.
func (h *Host) AS() *AS { return h.as }

// HID returns the host's identifier within its AS.
func (h *Host) HID() HID { return h.hid }

// NewEphIDAsync requests a fresh EphID from the AS's MS (Figure 3)
// without driving the simulator; the future resolves when the encrypted
// reply arrives.
func (h *Host) NewEphIDAsync(kind ephid.Kind, lifetime uint32) *Pending[*host.OwnedEphID] {
	p := newPending[*host.OwnedEphID]()
	err := h.Stack.RequestEphID(kind, lifetime, func(o *host.OwnedEphID, err error) {
		p.complete(o, err)
	})
	if err != nil {
		return failedPending[*host.OwnedEphID](err)
	}
	return p
}

// NewEphID synchronously requests a fresh EphID, driving the simulator
// until the reply arrives.
func (h *Host) NewEphID(kind ephid.Kind, lifetime uint32) (*host.OwnedEphID, error) {
	return AwaitResult(h.as.in, h.NewEphIDAsync(kind, lifetime))
}

// ConnectAsync initiates a connection to a peer certificate
// (Section IV-D1) without driving the simulator; the future resolves
// with the established connection when the handshake acknowledgment
// arrives. data0RTT, if non-nil, rides in the first packet
// (Section VII-C).
func (h *Host) ConnectAsync(local *host.OwnedEphID, peerCert *cert.Cert, data0RTT []byte) *Pending[*host.Conn] {
	p := newPending[*host.Conn]()
	conn, err := h.Stack.Dial(local, peerCert, host.DialOptions{
		Data0RTT:    data0RTT,
		OnEstablish: func(c *host.Conn) { p.complete(c, nil) },
	})
	if err != nil {
		return failedPending[*host.Conn](err)
	}
	// An unacknowledged dial must not linger once the timeline drains:
	// its record would claim the ack of a later dial from this EphID.
	p.onIdleAbandon = func() { h.Stack.AbortDial(conn) }
	h.as.in.registerLive(p)
	return p
}

// Connect synchronously establishes a connection, driving the simulator
// until the handshake completes.
func (h *Host) Connect(local *host.OwnedEphID, peerCert *cert.Cert, data0RTT []byte) (*host.Conn, error) {
	return AwaitResult(h.as.in, h.ConnectAsync(local, peerCert, data0RTT))
}

// SendAsync transmits application data on a connection (queueing it
// until establishment if necessary) without driving the simulator. The
// returned future is idle-resolved: it completes when an Await drains
// the timeline, i.e. when the network has fully processed the
// transmission. Unrelated traffic that keeps the timeline busy keeps a
// send pending even after its own packets were delivered.
func (h *Host) SendAsync(conn *host.Conn, data []byte) *Pending[struct{}] {
	if err := conn.Send(data); err != nil {
		return failedPending[struct{}](err)
	}
	p := idlePending(struct{}{})
	// Register so RunUntilIdle/RunFor settle the send at quiescence
	// just like an Await would.
	h.as.in.registerLive(p)
	return p
}

// Send transmits application data on an established connection and runs
// the simulator until delivery.
func (h *Host) Send(conn *host.Conn, data []byte) error {
	_, err := AwaitResult(h.as.in, h.SendAsync(conn, data))
	return err
}

// Publish registers name -> certificate in the shared zone, as a server
// operator does for a receive-only EphID (Section VII-A).
func (h *Host) Publish(name string, c *cert.Cert) error {
	_, err := h.as.in.Zone.Register(name, c, int64(c.ExpTime))
	return err
}

// ShutoffAsync sends a shutoff request for the flow that delivered m
// without driving the simulator; the future resolves with the agent's
// acknowledgment status (true = revoked).
func (h *Host) ShutoffAsync(m host.Message) *Pending[bool] {
	// The request goes to the agent named in the offender's
	// certificate; queue the future under that agent so concurrent
	// shutoffs toward different ASes resolve independently.
	agent, err := h.Stack.RequestShutoff(m)
	if err != nil {
		return failedPending[bool](err)
	}
	p := newPending[bool]()
	h.shutoffs[agent] = append(h.shutoffs[agent], p)
	// If the timeline drains without an ack (request dropped en route),
	// deregister so the stale entry cannot shift later acks off by one.
	p.onIdleAbandon = func() { queueRemove(h.shutoffs, agent, p) }
	h.as.in.registerLive(p)
	return p
}

// Shutoff synchronously requests a shutoff and returns the agent's
// acknowledgment status (true = revoked).
func (h *Host) Shutoff(m host.Message) (bool, error) {
	return AwaitResult(h.as.in, h.ShutoffAsync(m))
}

// PingAsync sends an ICMP echo without driving the simulator; the
// future resolves true when the matching reply arrives. Pings that
// never come back stay pending and surface as ErrTimeout from Await.
func (h *Host) PingAsync(dst Endpoint, seq uint16) *Pending[bool] {
	p := newPending[bool]()
	key := pingKey{dst: dst, seq: seq}
	h.pings[key] = append(h.pings[key], p)
	if err := h.Stack.Ping(dst, seq); err != nil {
		queueRemove(h.pings, key, p)
		return failedPending[bool](err)
	}
	// A lost probe must not linger: it would steal the reply of a later
	// ping reusing this key.
	p.onIdleAbandon = func() { queueRemove(h.pings, key, p) }
	h.as.in.registerLive(p)
	return p
}

// Ping sends an ICMP echo and reports whether the reply arrived.
func (h *Host) Ping(dst Endpoint, seq uint16) (bool, error) {
	replied, err := AwaitResult(h.as.in, h.PingAsync(dst, seq))
	if errors.Is(err, ErrTimeout) {
		return false, nil // the probe died in the network: not an error
	}
	return replied, err
}
