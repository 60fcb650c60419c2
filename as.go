package apna

import (
	"fmt"

	"apna/internal/aa"
	"apna/internal/accountability"
	"apna/internal/border"
	"apna/internal/crypto"
	"apna/internal/dns"
	"apna/internal/ephid"
	"apna/internal/host"
	"apna/internal/hostdb"
	"apna/internal/icmp"
	"apna/internal/ms"
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

	in     *Internet
	secret *crypto.ASSecret
	sealer *ephid.Sealer
	signer *crypto.Signer
	dhKey  *crypto.KeyPair

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
	sealer, err := ephid.NewSealer(secret)
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
	now := in.Sim.NowUnix

	zone, err := dns.NewZoneFor(fmt.Sprintf("as%d", uint32(aid)))
	if err != nil {
		return err
	}
	as := &AS{
		AID: aid, in: in, secret: secret, sealer: sealer, signer: signer, dhKey: dhKey,
		DB:    hostdb.New(),
		Zone:  zone,
		creds: registry.CredentialTable{},
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

	as.RS = registry.New(registry.Config{AID: aid, ControlEphIDLifetime: 24 * 3600},
		as.creds, sealer, signer, dhKey, as.DB, now)

	as.Router, err = border.New(aid, sealer, as.DB, secret, now)
	if err != nil {
		return err
	}

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

	as.MS = ms.New(aid, sealer, signer, as.DB, in.opts.Policy, as.aaID.EphID, now)
	as.Agent = aa.New(aa.Config{AID: aid, StrikeLimit: in.opts.StrikeLimit},
		sealer, as.DB, secret, in.Trust, now)
	as.Agent.AddRouter(as.Router)

	// The inter-domain accountability plane: cross-AS complaints flow
	// through it, and every local revocation (shutoff-driven or
	// voluntary) feeds its dissemination digests via the agent's hook.
	as.Acct = accountability.New(accountability.Config{
		AID: aid, Signer: signer, Trust: in.Trust, Agent: as.Agent, Now: now,
	})
	as.Acct.AddRouter(as.Router)
	as.Agent.SetRevocationHook(as.Acct.NoteRevoked)
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

// serviceHost builds a host stack for a service identity and attaches
// it to the border router.
func (as *AS) serviceHost(id *registry.ServiceIdentity, label string) (*host.Host, error) {
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
	h.Attach(link.B())
	return h, nil
}

// mountServices wires the MS, DNS and AA onto host stacks.
func (as *AS) mountServices() error {
	var err error

	// MS: answers ProtoControl EphID requests.
	if as.msHost, err = as.serviceHost(as.msID, "ms"); err != nil {
		return err
	}
	as.msHost.RegisterRawHandler(wire.ProtoControl, func(hdr *wire.Header, payload []byte) {
		reply, err := as.MS.HandleRequest(hdr.SrcEphID, payload)
		if err != nil {
			return // invalid requests are dropped, as in Figure 3
		}
		_ = as.msHost.SendRaw(wire.ProtoControl, wire.FlagControl, as.msID.EphID,
			wire.Endpoint{AID: hdr.SrcAID, EphID: hdr.SrcEphID}, reply)
	})

	// DNS: ordinary session service. Names under the AS's own apex are
	// answered from its authoritative zone, delegated apexes via signed
	// referral (installed by New once every AS exists), and the rest
	// from the shared root zone; misses get signed denials stamped on
	// the virtual clock.
	if as.dnsHost, err = as.serviceHost(as.dnsID, "dns"); err != nil {
		return err
	}
	as.dnsSvc = dns.NewService(as.in.Zone)
	as.dnsSvc.SetLocal(as.Zone)
	as.dnsSvc.SetNow(as.in.Sim.NowUnix)
	as.dnsSvc.Mount(as.dnsHost)

	// AA: answers ProtoShutoff requests with a one-byte status.
	if as.aaHost, err = as.serviceHost(as.aaID, "aa"); err != nil {
		return err
	}
	as.aaHost.RegisterRawHandler(wire.ProtoShutoff, func(hdr *wire.Header, payload []byte) {
		status := byte(0)
		req, err := aaDecode(payload)
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
	if as.rtrHost, err = as.serviceHost(as.rtrID, "rtr"); err != nil {
		return err
	}
	as.Router.SetICMPSender(as.sendICMPError)
	return nil
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
		p, err := as.sealer.Open(pkt.SrcEphID)
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

// aaDecode is split out for testability of the facade wiring.
var aaDecode = aa.DecodeRequest

// ServiceEndpoints returns the MS, DNS and AA endpoints of the AS (for
// diagnostics and experiments).
func (as *AS) ServiceEndpoints() (msEp, dnsEp, aaEp Endpoint) {
	return wire.Endpoint{AID: as.AID, EphID: as.msID.EphID},
		wire.Endpoint{AID: as.AID, EphID: as.dnsID.EphID},
		wire.Endpoint{AID: as.AID, EphID: as.aaID.EphID}
}

// GCRevocations removes expired entries from the router's revocation
// list (Section VIII-G2), returning the number removed. This is the
// manual hook for tests and diagnostics; production topologies run the
// same reap on the lifecycle engine's timer (WithLifetimes), which also
// reaps the hostdb.
func (as *AS) GCRevocations() int {
	return as.Router.Revoked().GC(as.in.Sim.NowUnix())
}

// runGC is one scheduled lifecycle GC pass over this AS: expired
// local and remote revocation-list entries plus revoked host_info
// entries older than the retention window. It returns the revocation
// reap count (both lists) and the host reap count.
func (as *AS) runGC(retention int64) (revocations, hosts int) {
	now := as.in.Sim.NowUnix()
	reaped := as.Router.Revoked().GC(now) + as.Router.RemoteRevoked().GC(now)
	return reaped, as.DB.GC(now, retention)
}

// Sealer exposes the AS's EphID sealer for benchmarks and tests that
// exercise the data plane directly. Production code paths never hand
// the sealer outside the AS's own infrastructure.
func (as *AS) Sealer() *ephid.Sealer { return as.sealer }

// Secret exposes the AS master secret for benchmark composition (e.g.
// signing revocation orders in ablation tests).
func (as *AS) Secret() *crypto.ASSecret { return as.secret }

// SignerPublicKey returns the AS's certificate-verification key.
func (as *AS) SignerPublicKey() []byte { return as.signer.PublicKey() }
