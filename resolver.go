package apna

import (
	"fmt"

	"apna/internal/cert"
	"apna/internal/dns"
	"apna/internal/host"
)

// Inter-domain name resolution (Section VII-A surface). Each AS runs an
// authoritative zone under its own apex ("as<AID>"); cross-AS names are
// reached by following a signed referral from the local resolver to the
// owning AS's resolver. LookupAsync walks that chain with a fresh
// per-flow EphID for every hop — reusing one EphID toward two resolvers
// would let them link the host's queries (Section VIII-A) — verifies
// every record, denial and referral signature, and maintains a verified
// positive/negative cache so repeated lookups stay local.

// dnsStats counts a host's resolver activity: every name a host
// resolves goes through LookupAsync.
type dnsStats struct {
	// Queries counts network queries actually sent (one per hop).
	Queries uint64
	// CacheHits and NegCacheHits count lookups answered from the
	// verified cache without touching the network.
	CacheHits    uint64
	NegCacheHits uint64
	// Referrals counts verified delegations followed.
	Referrals uint64
	// Denials counts verified negative responses accepted.
	Denials uint64
}

// dnsLookupLifetime is the lifetime of the per-hop EphIDs LookupAsync
// issues (the default session lifetime).
const dnsLookupLifetime = 900

// PublishLocal registers name -> certificate in the host's own AS zone.
// The name must fall under the AS apex ("as<AID>"); other ASes resolve
// it through the referral chain.
func (h *Host) PublishLocal(name string, c *cert.Cert) error {
	_, err := h.as.Zone.Register(name, c, int64(c.ExpTime))
	return err
}

// lookup tracks one in-flight chained resolution.
type lookup struct {
	h    *Host
	name string
	p    *Pending[*cert.Cert]
	// teardown undoes the current hop's network state (dial record,
	// response tap) if the timeline drains before it resolves.
	teardown func()
}

// LookupAsync resolves name through the inter-domain chain without
// driving the simulator: cache, then the local AS resolver, then (on a
// verified referral) the owning AS's resolver. The future resolves with
// the verified certificate, or dns.ErrNXDomain on a verified denial.
// Every hop dials with a freshly issued per-flow EphID.
func (h *Host) LookupAsync(name string) *Pending[*cert.Cert] {
	now := h.as.in.Sim.NowUnix()
	if crt, ok := h.dnsCache.Record(name, now); ok {
		h.dnsStats.CacheHits++
		p := newPending[*cert.Cert]()
		p.complete(crt, nil)
		return p
	}
	if h.dnsCache.Denied(name, now) {
		h.dnsStats.NegCacheHits++
		return failedPending[*cert.Cert](dns.ErrNXDomain)
	}
	lk := &lookup{h: h, name: name, p: newPending[*cert.Cert]()}
	lk.p.onIdleAbandon = func() {
		if lk.teardown != nil {
			lk.teardown()
		}
	}
	dnsCert := h.Stack.Config().DNSCert
	// The first hop trusts the keys pinned at bootstrap: the local AS
	// zone and the root zone.
	lk.hop(&dnsCert, [][]byte{h.as.Zone.PublicKey(), h.as.in.Zone.PublicKey()}, true)
	h.as.in.registerLive(lk.p)
	return lk.p
}

// Lookup synchronously resolves name through the inter-domain chain,
// driving the simulator until the verified answer arrives.
func (h *Host) Lookup(name string) (*cert.Cert, error) {
	return AwaitResult(h.as.in, h.LookupAsync(name))
}

// hop issues a fresh EphID, dials the given resolver, sends the query
// and handles the verified response. zoneKeys are the keys answers from
// this hop may verify under; followReferral permits one delegation.
func (lk *lookup) hop(server *cert.Cert, zoneKeys [][]byte, followReferral bool) {
	h := lk.h
	err := h.Stack.RequestEphID(KindData, dnsLookupLifetime, func(id *host.OwnedEphID, err error) {
		if err != nil {
			lk.p.complete(nil, fmt.Errorf("apna: lookup EphID: %w", err))
			return
		}
		lk.dial(id, server, zoneKeys, followReferral)
	})
	if err != nil {
		lk.p.complete(nil, err)
	}
}

// dial runs one query exchange on a freshly issued EphID.
func (lk *lookup) dial(id *host.OwnedEphID, server *cert.Cert, zoneKeys [][]byte, followReferral bool) {
	h := lk.h
	q, err := dns.EncodeQuery(lk.name)
	if err != nil {
		lk.p.complete(nil, err)
		return
	}
	var conn *host.Conn
	conn, err = h.Stack.Dial(id, server, host.DialOptions{
		OnEstablish: func(c *host.Conn) {
			h.Stack.TapFlow(id.Cert.EphID, c.Peer(), func(m host.Message) bool {
				lk.teardown = nil
				lk.answer(m.Payload, zoneKeys, followReferral)
				return false
			})
		},
	})
	if err != nil {
		lk.p.complete(nil, fmt.Errorf("apna: dialing resolver: %w", err))
		return
	}
	if err := conn.Send(q); err != nil {
		lk.p.complete(nil, err)
		return
	}
	h.dnsStats.Queries++
	lk.teardown = func() {
		h.Stack.AbortDial(conn)
		h.Stack.Untap(id.Cert.EphID, conn.Peer())
	}
}

// answer handles one hop's response.
func (lk *lookup) answer(payload []byte, zoneKeys [][]byte, followReferral bool) {
	h := lk.h
	now := h.as.in.Sim.NowUnix()
	verifyAny := func(verify func(zonePub []byte, nowUnix int64) error) error {
		var err error
		for _, key := range zoneKeys {
			if err = verify(key, now); err == nil {
				return nil
			}
		}
		return err
	}

	resp, err := dns.ParseResponse(payload)
	if err != nil {
		lk.p.complete(nil, err)
		return
	}
	switch resp.Status {
	case dns.StatusOK:
		rec := resp.Record
		if rec.Name != lk.name {
			lk.p.complete(nil, fmt.Errorf("apna: resolver answered %q for query %q", rec.Name, lk.name))
			return
		}
		if err := verifyAny(rec.Verify); err != nil {
			lk.p.complete(nil, err)
			return
		}
		h.dnsCache.PutRecord(lk.name, &rec.Cert, rec.NotAfter, now)
		lk.p.complete(&rec.Cert, nil)
	case dns.StatusNXDomain:
		d := resp.Denial
		if d.Name != lk.name || verifyAny(d.Verify) != nil {
			lk.p.complete(nil, fmt.Errorf("apna: unauthenticated denial for %q: %w", lk.name, dns.ErrBadDenial))
			return
		}
		h.dnsStats.Denials++
		h.dnsCache.PutDenial(lk.name, d.NotAfter, now)
		lk.p.complete(nil, dns.ErrNXDomain)
	case dns.StatusReferral:
		ref := resp.Referral
		if !followReferral {
			lk.p.complete(nil, fmt.Errorf("apna: referral chain too deep resolving %q", lk.name))
			return
		}
		if err := verifyAny(ref.Verify); err != nil {
			lk.p.complete(nil, err)
			return
		}
		h.dnsStats.Referrals++
		// The delegated hop's answers verify only under the referred
		// zone's key, anchored by the signature just checked.
		lk.hop(&ref.DNSCert, [][]byte{ref.ZoneKey}, false)
	default:
		lk.p.complete(nil, dns.ErrBadMessage)
	}
}
