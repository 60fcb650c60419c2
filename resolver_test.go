package apna

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"apna/internal/dns"
	"apna/internal/ephid"
	"apna/internal/netsim"
	"apna/internal/wire"
)

// buildDNSPair stands up two linked ASes with one host each and a
// service published in AS 200's zone by bob.
func buildDNSPair(t *testing.T) (in *Internet, alice, bob *Host) {
	t.Helper()
	var err error
	in, err = New(1,
		WithAS(100, "alice"),
		WithAS(200, "bob"),
		WithLink(100, 200, 5*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	alice, bob = in.Host("alice"), in.Host("bob")
	svc, err := bob.NewEphID(ephid.KindReceiveOnly, 24*3600)
	if err != nil {
		t.Fatal(err)
	}
	// A serving EphID: connections to the published receive-only EphID
	// migrate to it (Section VII-A).
	if _, err := bob.NewEphID(ephid.KindData, 24*3600); err != nil {
		t.Fatal(err)
	}
	if err := bob.PublishLocal("svc.as200", &svc.Cert); err != nil {
		t.Fatal(err)
	}
	return in, alice, bob
}

// resolverHops taps h's access link and returns, per AS, the source
// EphIDs of the frames h sends toward that AS's resolver. Every lookup
// hop dials from a fresh EphID, so each is one query hop.
func resolverHops(in *Internet, h *Host) map[AID]map[EphID]bool {
	resolvers := make(map[Endpoint]bool)
	for _, as := range in.ASes() {
		_, dnsEp, _ := as.ServiceEndpoints()
		resolvers[dnsEp] = true
	}
	hops := make(map[AID]map[EphID]bool)
	h.link.AddTap(func(frame []byte, _ *netsim.Port) {
		var hdr wire.Header
		if err := hdr.DecodeFromBytes(frame); err != nil {
			return
		}
		if !resolvers[Endpoint{AID: hdr.DstAID, EphID: hdr.DstEphID}] {
			return
		}
		if hops[hdr.DstAID] == nil {
			hops[hdr.DstAID] = make(map[EphID]bool)
		}
		hops[hdr.DstAID][hdr.SrcEphID] = true
	})
	return hops
}

func TestLookupCrossASViaReferral(t *testing.T) {
	in, alice, _ := buildDNSPair(t)
	hops := resolverHops(in, alice)

	crt, err := alice.Lookup("svc.as200")
	if err != nil {
		t.Fatalf("cross-AS lookup: %v", err)
	}
	if crt.AID != 200 {
		t.Fatalf("resolved cert names AS %v, want 200", crt.AID)
	}
	// The local resolver delegates as200: one hop to each resolver.
	if len(hops) != 2 || len(hops[100]) != 1 || len(hops[200]) != 1 {
		t.Fatalf("query hops %v, want one local and one delegated", hops)
	}

	// Second lookup: answered from the verified cache, zero network.
	ev := in.Sim.Events()
	p := alice.LookupAsync("svc.as200")
	crt2, err := p.Result()
	if !p.Done() || err != nil {
		t.Fatalf("cached lookup: done=%v err=%v, want answered at once", p.Done(), err)
	}
	if *crt2 != *crt {
		t.Fatal("cache returned a different certificate")
	}
	if in.Sim.Events() != ev {
		t.Fatal("cache hit touched the network")
	}

	// The cross-AS cert is dialable: end-to-end resolve-then-connect.
	id, err := alice.NewEphID(ephid.KindData, 900)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := alice.Connect(id, crt, nil); err != nil {
		t.Fatalf("dialing resolved cert: %v", err)
	}
}

func TestLookupLocalZone(t *testing.T) {
	in, _, bob := buildDNSPair(t)
	hops := resolverHops(in, bob)
	crt, err := bob.Lookup("svc.as200")
	if err != nil {
		t.Fatalf("local-zone lookup: %v", err)
	}
	if crt.AID != 200 {
		t.Fatalf("AID = %v", crt.AID)
	}
	if len(hops) != 1 || len(hops[200]) != 1 {
		t.Fatalf("local lookup took the wrong path: query hops %v", hops)
	}
}

func TestLookupVerifiedDenialAndNegativeCache(t *testing.T) {
	in, alice, _ := buildDNSPair(t)
	hops := resolverHops(in, alice)
	if _, err := alice.Lookup("missing.as100"); !errors.Is(err, dns.ErrNXDomain) {
		t.Fatalf("err = %v, want ErrNXDomain", err)
	}
	if len(hops[100]) != 1 {
		t.Fatalf("query hops %v, want one to the local resolver (signed negative response)", hops)
	}

	// Negative cache: the repeat is answered locally, still NXDOMAIN.
	ev := in.Sim.Events()
	p := alice.LookupAsync("missing.as100")
	if _, err := p.Result(); !p.Done() || !errors.Is(err, dns.ErrNXDomain) {
		t.Fatalf("repeat: done=%v err=%v, want ErrNXDomain at once", p.Done(), err)
	}
	if in.Sim.Events() != ev {
		t.Fatal("negative cache hit touched the network")
	}

	// The denial expires (DefaultDenialTTL); after that the resolver
	// asks the network again.
	in.RunFor(time.Duration(dns.DefaultDenialTTL+1) * time.Second)
	if _, err := alice.Lookup("missing.as100"); !errors.Is(err, dns.ErrNXDomain) {
		t.Fatalf("post-expiry err = %v", err)
	}
	if len(hops[100]) != 2 {
		t.Fatalf("expired denial not re-fetched: query hops %v", hops)
	}
}

// TestLookupAnswersWithFullCache: a host's resolution cache is
// bounded. Stuffed with fresh denials far past any plausible bound, it
// stops taking new names, and a lookup of a new name still returns its
// verified answer, which the full cache refuses to keep.
func TestLookupAnswersWithFullCache(t *testing.T) {
	in, alice, _ := buildDNSPair(t)
	now := in.Sim.NowUnix()
	const stuffed = 1 << 12
	for i := 0; i < stuffed; i++ {
		alice.dnsCache.PutDenial(fmt.Sprintf("filler%d.as100", i), now+3600, now)
	}
	if !alice.dnsCache.Denied("filler0.as100", now) {
		t.Fatal("the first denial was not cached")
	}
	if alice.dnsCache.Denied(fmt.Sprintf("filler%d.as100", stuffed-1), now) {
		t.Fatalf("cache took all %d names: unbounded", stuffed)
	}
	crt, err := alice.Lookup("svc.as200")
	if err != nil {
		t.Fatalf("lookup with a full cache: %v", err)
	}
	if crt.AID != 200 {
		t.Fatalf("resolved cert names AS %v, want 200", crt.AID)
	}
	if _, ok := alice.dnsCache.Record("svc.as200", in.Sim.NowUnix()); ok {
		t.Fatal("cache grew past its bound: the full cache kept the new record")
	}
}

func TestLookupCrossASDenial(t *testing.T) {
	// The name is under as200's apex but not registered: the referral is
	// followed and the *remote* zone's signed denial is verified against
	// the referred key.
	in, alice, _ := buildDNSPair(t)
	hops := resolverHops(in, alice)
	if _, err := alice.Lookup("ghost.as200"); !errors.Is(err, dns.ErrNXDomain) {
		t.Fatalf("err = %v, want ErrNXDomain", err)
	}
	if len(hops) != 2 || len(hops[100]) != 1 || len(hops[200]) != 1 {
		t.Fatalf("cross-AS denial path: query hops %v, want the referral followed", hops)
	}
}

func TestLookupFreshEphIDPerHop(t *testing.T) {
	// Flow unlinkability (Section VIII-A): the EphIDs used toward the
	// local and remote resolvers must differ from each other and from
	// the host's control EphID. Observe alice's access link and bucket
	// query sources by the resolver endpoint they address.
	in, alice, _ := buildDNSPair(t)
	srcsToward := resolverHops(in, alice)
	if _, err := alice.Lookup("svc.as200"); err != nil {
		t.Fatal(err)
	}
	if len(srcsToward[100]) != 1 || len(srcsToward[200]) != 1 {
		t.Fatalf("expected one source EphID per resolver hop, got %v", srcsToward)
	}
	ctrl := alice.Stack.Config().CtrlEphID
	var hop1, hop2 EphID
	for e := range srcsToward[100] {
		hop1 = e
	}
	for e := range srcsToward[200] {
		hop2 = e
	}
	if hop1 == hop2 {
		t.Fatal("resolver reused one EphID across hops — queries are linkable")
	}
	if hop1 == ctrl || hop2 == ctrl {
		t.Fatal("resolver used the control EphID for queries")
	}
}

func TestPublishLocalRejectsForeignName(t *testing.T) {
	_, alice, _ := buildDNSPair(t)
	id, err := alice.NewEphID(ephid.KindReceiveOnly, 3600)
	if err != nil {
		t.Fatal(err)
	}
	if err := alice.PublishLocal("svc.as200", &id.Cert); !errors.Is(err, dns.ErrNotAuthoritative) {
		t.Fatalf("foreign publish: err = %v", err)
	}
	if err := alice.PublishLocal("svc.as100", &id.Cert); err != nil {
		t.Fatalf("local publish: %v", err)
	}
}
