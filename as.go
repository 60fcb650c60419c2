package apna

import (
	"fmt"

	"apna/internal/aa"
	"apna/internal/accountability"
	"apna/internal/asnode"
	"apna/internal/border"
	"apna/internal/crypto"
	"apna/internal/dns"
	"apna/internal/ephid"
	"apna/internal/host"
	"apna/internal/hostdb"
	"apna/internal/icmp"
	"apna/internal/ms"
	"apna/internal/netsim"
	"apna/internal/registry"
	"apna/internal/wire"
)

// AS is one autonomous system: its key material, services and border
// router, composed exactly as Figure 1 lays them out — RS, MS, border
// router and accountability agent, with the MS, DNS and AA mounted on
// host stacks attached to the router like (privileged) hosts.
type AS struct {
	AID AID

	// RS is the registry service (bootstrap).
	RS *registry.Service
	// MS is the EphID management service.
	MS *ms.Service
	// Agent is the accountability agent.
	Agent *aa.Agent
	// Acct is the inter-domain accountability engine: cross-AS shutoff
	// requests, signed receipts, and revocation-digest dissemination.
	Acct *accountability.Engine
	// Router is the border router.
	Router *border.Router
	// DB is the AS's host_info database.
	DB *hostdb.DB
	// Zone is the AS's authoritative DNS zone (apex "as<AID>"): local
	// services publish under it, other ASes reach it through signed
	// referrals (Section VII-A).
	Zone *dns.Zone

	in   *Internet
	node *asnode.Node

	creds registry.CredentialTable

	aaID, msID, dnsID, rtrID *registry.ServiceIdentity
	msHost, dnsHost          *host.Host
	aaHost, rtrHost          *host.Host

	dnsSvc *dns.Service
}

// serviceLifetime is how long AS-internal service EphIDs live.
const serviceLifetime = 365 * 24 * 3600

// addAS creates an AS with fresh keys, registers it with the RPKI
// authority, stands up its services, and wires them to its border
// router. New calls it once per declared AS; validation has already
// rejected duplicates.
func (in *Internet) addAS(aid AID) error {
	secret, err := crypto.NewASSecret()
	if err != nil {
		return err
	}
	now := in.Sim.NowUnix
	node, err := asnode.New(aid, secret, 0, now)
	if err != nil {
		return err
	}
	signer, err := crypto.GenerateSigner()
	if err != nil {
		return err
	}
	dhKey, err := crypto.GenerateKeyPair()
	if err != nil {
		return err
	}

	zone, err := dns.NewZoneFor(fmt.Sprintf("as%d", uint32(aid)))
	if err != nil {
		return err
	}
	as := &AS{
		AID: aid, in: in, node: node,
		Router: node.Router,
		DB:     node.DB,
		Zone:   zone,
		creds:  registry.CredentialTable{},
	}

	// RPKI registration so every other party can verify this AS's
	// certificates and run the bootstrap DH.
	rec, err := in.authority.Certify(aid, signer.PublicKey(), dhKey.PublicKey(), now()+10*365*24*3600)
	if err != nil {
		return err
	}
	if err := in.Trust.Add(rec); err != nil {
		return err
	}

	as.RS = registry.New(aid, as.creds, node.Sealer, signer, dhKey, as.DB, now)

	// Service identities: the AA first (self-referencing certificate),
	// then MS and DNS pointing at it.
	as.aaID, err = as.RS.AllocServiceIdentity(ephid.KindControl, serviceLifetime, ephid.EphID{})
	if err != nil {
		return err
	}
	as.msID, err = as.RS.AllocServiceIdentity(ephid.KindControl, serviceLifetime, as.aaID.EphID)
	if err != nil {
		return err
	}
	as.dnsID, err = as.RS.AllocServiceIdentity(ephid.KindControl, serviceLifetime, as.aaID.EphID)
	if err != nil {
		return err
	}
	as.RS.InstallServiceCerts(&as.msID.Cert, &as.dnsID.Cert)

	// The control plane. Cross-AS complaints flow through the
	// inter-domain accountability engine, and every local revocation
	// (shutoff-driven or voluntary) feeds its dissemination digests.
	node.AddControl(asnode.Control{
		Signer: signer, Trust: in.Trust, Policy: in.opts.Policy,
		AAEphID: as.aaID.EphID, StrikeLimit: in.opts.StrikeLimit,
	})
	as.MS, as.Agent, as.Acct = node.MS, node.Agent, node.Acct
	as.Acct.SetObserver(func(ev accountability.Event) {
		if in.acctObserver != nil {
			in.acctObserver(ev)
		}
	})

	if err := as.mountServices(); err != nil {
		return err
	}
	in.ases[aid] = as
	in.adjacency[aid] = in.adjacency[aid] // ensure key exists for routing
	return nil
}

// serviceHost builds a host stack for a service identity and a link to
// the border router, whose far end attach binds to the stack.
func (as *AS) serviceHost(id *registry.ServiceIdentity, label string, attach func(*host.Host, *netsim.Port)) (*host.Host, error) {
	h, err := host.New(host.Config{
		AID: as.AID, HID: id.HID, Keys: id.Keys,
		CtrlEphID: id.EphID,
		MSCert:    as.msID.Cert, DNSCert: as.dnsID.Cert,
		Trust: as.in.Trust, Now: as.in.Sim.NowUnix,
	})
	if err != nil {
		return nil, err
	}
	h.AddEphID(&host.OwnedEphID{Cert: id.Cert, DH: id.DH, Sig: id.Sig})
	link := as.in.Sim.NewLink(fmt.Sprintf("%v-%s", as.AID, label), as.in.opts.ServiceLinkLatency, 0)
	as.Router.AttachHost(id.HID, link.A())
	attach(h, link.B())
	return h, nil
}

// mountServices wires the MS, DNS and AA onto host stacks.
func (as *AS) mountServices() error {
	var err error

	// MS: answers ProtoControl EphID requests, a run at a time.
	if as.msHost, err = as.serviceHost(as.msID, "ms", as.serveMS); err != nil {
		return err
	}

	// DNS: ordinary session service. Names under the AS's own apex are
	// answered from its authoritative zone, delegated apexes via signed
	// referral (installed by New once every AS exists), and the rest
	// from the shared root zone; misses get signed denials stamped on
	// the virtual clock.
	if as.dnsHost, err = as.serviceHost(as.dnsID, "dns", (*host.Host).Attach); err != nil {
		return err
	}
	as.dnsSvc = dns.NewService(as.in.Zone)
	as.dnsSvc.SetLocal(as.Zone)
	as.dnsSvc.SetNow(as.in.Sim.NowUnix)
	as.dnsSvc.Mount(as.dnsHost)

	// AA: answers ProtoShutoff requests with a one-byte status.
	if as.aaHost, err = as.serviceHost(as.aaID, "aa", (*host.Host).Attach); err != nil {
		return err
	}
	as.aaHost.RegisterRawHandler(wire.ProtoShutoff, func(hdr *wire.Header, payload []byte) {
		status := byte(0)
		req, err := aa.DecodeRequest(payload)
		if err == nil {
			if _, err = as.Agent.HandleShutoff(req); err == nil {
				status = 1
			}
		}
		_ = as.aaHost.SendRaw(wire.ProtoShutoff, 0, as.aaID.EphID,
			wire.Endpoint{AID: hdr.SrcAID, EphID: hdr.SrcEphID}, []byte{status})
	})
	// The inter-domain plane rides ProtoAcct on the same agent host:
	// host complaints, AA-to-AA shutoff requests/receipts, and digest
	// floods all demux through the engine.
	as.Acct.SetSend(func(dst wire.Endpoint, payload []byte) error {
		return as.aaHost.SendRaw(wire.ProtoAcct, 0, as.aaID.EphID, dst, payload)
	})
	as.aaHost.RegisterRawHandler(wire.ProtoAcct, func(hdr *wire.Header, payload []byte) {
		as.Acct.HandleMessage(wire.Endpoint{AID: hdr.SrcAID, EphID: hdr.SrcEphID}, payload)
	})

	// Router identity: border routers answer drops with ICMP errors
	// sent from their own EphID, so network feedback is itself
	// accountable and privacy preserving (Section VIII-B).
	if as.rtrID, err = as.RS.AllocServiceIdentity(ephid.KindControl, serviceLifetime, as.aaID.EphID); err != nil {
		return err
	}
	if as.rtrHost, err = as.serviceHost(as.rtrID, "rtr", (*host.Host).Attach); err != nil {
		return err
	}
	as.Router.SetICMPSender(as.sendICMPError)
	return nil
}

// serveMS binds the MS host stack h to p behind an msRuns.
func (as *AS) serveMS(h *host.Host, p *netsim.Port) {
	runs := &msRuns{svc: as.MS, host: h, src: as.msID.EphID}
	h.Attach(p)
	h.RegisterRawHandler(wire.ProtoControl, runs.admit)
	p.Attach(runs, "ms")
}

// msRuns owns the MS's end of its service link and answers requests the
// way the population engine does (paper Figure 3, in three steps).
// netsim hands it the frames due at one instant as one run
// (netsim.BatchHandler). Each frame goes through the MS host stack,
// whose ProtoControl handler admits the request; once the run is in,
// one Sign certifies every admitted request (one signature per ExpTime,
// cert.SignBatch) and the replies are sealed and sent in admission
// order. A lone frame is a run of one.
type msRuns struct {
	svc  *ms.Service
	host *host.Host
	src  ephid.EphID // the MS's EphID, every reply's source

	// The run's admitted requests and, index for index, whom to answer.
	admitted []*ms.Admitted
	to       []wire.Endpoint
	reply    []byte
}

// HandleFrame implements netsim.Handler on a run of one.
func (r *msRuns) HandleFrame(frame []byte, from *netsim.Port) {
	r.host.HandleFrame(frame, from)
	r.answer()
}

// HandleFrames implements netsim.BatchHandler.
func (r *msRuns) HandleFrames(frames [][]byte, from []*netsim.Port) {
	for i, frame := range frames {
		r.host.HandleFrame(frame, from[i])
	}
	r.answer()
}

// admit is the MS stack's ProtoControl handler: Figure 3 up to the
// signature. The stack owns the delivered frame and keeps no part of a
// control frame, so the request is decrypted where it arrived. An error
// drops the request unanswered, as in Figure 3; a renewal denial is
// admitted and answered.
func (r *msRuns) admit(hdr *wire.Header, payload []byte) {
	a, err := r.svc.AdmitInPlace(hdr.SrcEphID, payload)
	if err != nil {
		return
	}
	r.admitted = append(r.admitted, a)
	r.to = append(r.to, wire.Endpoint{AID: hdr.SrcAID, EphID: hdr.SrcEphID})
}

// answer signs the run's admitted requests together and sends their
// replies in admission order, which keeps each host's replies in the
// order of its requests: a host matches them FIFO.
func (r *msRuns) answer() {
	if len(r.admitted) == 0 {
		return
	}
	r.svc.Sign(r.admitted)
	// Sealing fails only on an unsigned certificate and sending only on
	// a detached stack: neither happens here, and a reply lost anyway is
	// lost like a dropped frame.
	for i, a := range r.admitted {
		var err error
		if r.reply, err = a.AppendSeal(r.reply[:0]); err == nil {
			_ = r.host.SendRaw(wire.ProtoControl, wire.FlagControl, r.src, r.to[i], r.reply)
		}
	}
	clear(r.admitted)
	r.admitted, r.to = r.admitted[:0], r.to[:0]
}

// sendICMPError converts a router drop into an ICMP error toward the
// packet's source EphID. Drops whose source cannot be trusted (bad MAC,
// malformed, forged EphID) generate no feedback, and ICMP packets never
// generate errors about themselves (no error loops).
func (as *AS) sendICMPError(reason border.Verdict, frame []byte) {
	var pkt wire.Header
	if err := pkt.DecodeFromBytes(frame); err != nil || pkt.NextProto == wire.ProtoICMP {
		return
	}
	m := icmp.Message{Body: icmp.Quote(frame)}
	switch reason {
	case border.VerdictDropHopLimit:
		m.Type = icmp.TypeTimeExceeded
	case border.VerdictDropExpired:
		m.Type, m.Code = icmp.TypeDestUnreachable, icmp.CodeEphIDExpired
	case border.VerdictDropRevoked:
		m.Type, m.Code = icmp.TypeDestUnreachable, icmp.CodeEphIDRevoked
	case border.VerdictDropUnknownHost:
		m.Type, m.Code = icmp.TypeDestUnreachable, icmp.CodeUnknownHost
	case border.VerdictDropNoRoute:
		m.Type, m.Code = icmp.TypeDestUnreachable, icmp.CodeNoRouteToAS
	default:
		return
	}
	dst := wire.Endpoint{AID: pkt.SrcAID, EphID: pkt.SrcEphID}
	if pkt.SrcAID == as.AID {
		// Feedback to one of our own hosts: deliver directly, since
		// the triggering condition (e.g. a revoked source EphID) would
		// also block the feedback at the ingress checks.
		p, err := as.node.Sealer.Open(pkt.SrcEphID)
		if err != nil {
			return
		}
		reply := wire.Packet{
			Header: wire.Header{
				NextProto: wire.ProtoICMP, HopLimit: wire.DefaultHopLimit, Nonce: 1,
				SrcAID: as.AID, DstAID: as.AID,
				SrcEphID: as.rtrID.EphID, DstEphID: pkt.SrcEphID,
			},
			Payload: m.Encode(),
		}
		frame, err := reply.Encode()
		if err != nil {
			return
		}
		as.rtrHost.ApplyMAC(frame)
		as.Router.DeliverToHost(p.HID, frame)
		return
	}
	_ = as.rtrHost.SendRaw(wire.ProtoICMP, 0, as.rtrID.EphID, dst, m.Encode())
}

// ServiceEndpoints returns the MS, DNS and AA endpoints of the AS (for
// diagnostics and experiments).
func (as *AS) ServiceEndpoints() (msEp, dnsEp, aaEp Endpoint) {
	return wire.Endpoint{AID: as.AID, EphID: as.msID.EphID},
		wire.Endpoint{AID: as.AID, EphID: as.dnsID.EphID},
		wire.Endpoint{AID: as.AID, EphID: as.aaID.EphID}
}

// runGC is one scheduled lifecycle GC pass over this AS: expired
// local and remote revocation-list entries plus revoked host_info
// entries older than the retention window. It returns how many
// revocation entries it reaped (both lists).
func (as *AS) runGC(retention int64) int {
	now := as.in.Sim.NowUnix()
	reaped := as.Router.Revoked().GC(now) + as.Router.RemoteRevoked().GC(now)
	as.DB.GC(now, retention)
	return reaped
}

// Sealer exposes the AS's EphID sealer for benchmarks and tests that
// exercise the data plane directly. Production code paths never hand
// the sealer outside the AS's own infrastructure.
func (as *AS) Sealer() *ephid.Sealer { return as.node.Sealer }
