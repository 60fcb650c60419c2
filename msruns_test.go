package apna_test

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"apna"
	"apna/internal/cert"
	"apna/internal/host"
	"apna/internal/ms"
)

// An AS's MS answers the requests that reach it at one instant as one
// batch (paper Figure 3, one signature per Merkle root): these tests see
// that from outside, through the certificates the hosts end up holding.

// msRunWorld builds AS 100 with twelve hosts and AS 200 with one, under
// policy.
func msRunWorld(t *testing.T, policy ms.Policy) (*apna.Internet, []*apna.Host) {
	t.Helper()
	opts := apna.DefaultOptions()
	opts.Policy = policy
	names := make([]string, 12)
	for i := range names {
		names[i] = fmt.Sprintf("h%02d", i)
	}
	in, err := apna.New(1,
		apna.WithOptions(opts),
		apna.WithAS(100, names...),
		apna.WithAS(200, "peer"),
		apna.WithLink(100, 200, 10*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	hosts := make([]*apna.Host, len(names))
	for i, name := range names {
		hosts[i] = in.Host(name)
	}
	return in, hosts
}

// issueAll has every host in hosts ask for an EphID at the current
// instant, host i for lifetimes[i%len(lifetimes)] seconds, and returns
// the certificates in order.
func issueAll(t *testing.T, in *apna.Internet, hosts []*apna.Host, lifetimes ...uint32) []*cert.Cert {
	t.Helper()
	pending := make([]*apna.Pending[*host.OwnedEphID], len(hosts))
	for i, h := range hosts {
		pending[i] = h.NewEphIDAsync(apna.KindData, lifetimes[i%len(lifetimes)])
	}
	if err := in.AwaitAll(apna.Ops(pending...)...); err != nil {
		t.Fatal(err)
	}
	certs := make([]*cert.Cert, len(pending))
	for i, p := range pending {
		id, _ := p.Result()
		certs[i] = &id.Cert
	}
	return certs
}

// signatures checks that every certificate verifies under its AS's key
// and came out of a tree of more than one leaf, and returns each
// ExpTime's distinct signatures.
func signatures(t *testing.T, in *apna.Internet, certs []*cert.Cert) map[uint32]map[string]bool {
	t.Helper()
	sigs := map[uint32]map[string]bool{}
	for i, c := range certs {
		key, err := in.Trust.SigKey(c.AID, in.Now())
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Verify(key, in.Now()); err != nil {
			t.Errorf("certificate %d: %v", i, err)
		}
		if c.Depth < 1 {
			t.Errorf("certificate %d has depth %d: signed alone", i, c.Depth)
		}
		if sigs[c.ExpTime] == nil {
			sigs[c.ExpTime] = map[string]bool{}
		}
		sigs[c.ExpTime][string(c.Signature[:])] = true
	}
	return sigs
}

// TestMSSignsOneInstantTogether: twelve hosts ask at one instant, and
// their certificates carry one signature per expiry time.
func TestMSSignsOneInstantTogether(t *testing.T) {
	for _, lifetimes := range [][]uint32{{900}, {900, 600}} {
		t.Run(fmt.Sprint(lifetimes), func(t *testing.T) {
			in, hosts := msRunWorld(t, ms.DefaultPolicy())
			sigs := signatures(t, in, issueAll(t, in, hosts, lifetimes...))
			if len(sigs) != len(lifetimes) {
				t.Fatalf("%d expiry times, want %d", len(sigs), len(lifetimes))
			}
			for exp, s := range sigs {
				if len(s) != 1 {
					t.Errorf("ExpTime %d: %d signatures, want 1", exp, len(s))
				}
			}
		})
	}
}

// TestMSRunKeepsEachHostsOrder: a host matches replies to its requests in
// order, so two requests of one host in one run, whose certificates land
// in different trees, must each resolve to its own lifetime.
func TestMSRunKeepsEachHostsOrder(t *testing.T) {
	in, hosts := msRunWorld(t, ms.DefaultPolicy())
	// hosts[0] asks for 900 s, then for 600 s; the run-mates fill both
	// trees so that every certificate has a path.
	certs := issueAll(t, in, append([]*apna.Host{hosts[0]}, hosts...), 900, 600)
	signatures(t, in, certs)
	if long, short := certs[0], certs[1]; long.ExpTime != short.ExpTime+300 {
		t.Errorf("the 900 s request resolved to ExpTime %d, the 600 s one to %d", long.ExpTime, short.ExpTime)
	}
}

// TestMSRunAnswersADenial: a renewal over budget in a run is answered
// with its denial and takes no leaf, and the run's other requests are
// certified.
func TestMSRunAnswersADenial(t *testing.T) {
	policy := ms.DefaultPolicy()
	policy.RenewBurst, policy.RenewWindow = 1, 3600
	in, hosts := msRunWorld(t, policy)
	old, err := hosts[0].NewEphID(apna.KindData, 900)
	if err != nil {
		t.Fatal(err)
	}
	if old, err = apna.AwaitResult(in, hosts[0].RenewAsync(old, 900)); err != nil {
		t.Fatal(err)
	}
	denied := hosts[0].RenewAsync(old, 900)
	pending := make([]*apna.Pending[*host.OwnedEphID], 4)
	for i := range pending {
		pending[i] = hosts[1+i].NewEphIDAsync(apna.KindData, 900)
	}
	if err := in.AwaitAll(append(apna.Ops(pending...), denied)...); err != nil {
		t.Fatal(err)
	}
	if _, err := denied.Result(); !errors.Is(err, ms.ErrRenewRateLimited) {
		t.Errorf("renewal over budget: %v, want %v", err, ms.ErrRenewRateLimited)
	}
	certs := make([]*cert.Cert, len(pending))
	for i, p := range pending {
		id, err := p.Result()
		if err != nil {
			t.Fatalf("run-mate %d: %v", i, err)
		}
		certs[i] = &id.Cert
	}
	signatures(t, in, certs)
	// Four leaves make a tree of depth 2; a fifth for the denial would
	// make it 3.
	for i, c := range certs {
		if c.Depth != 2 {
			t.Errorf("run-mate %d: depth %d, want 2 (four leaves)", i, c.Depth)
		}
	}
}

// TestConnectOnBatchCertificates: certificates with Merkle paths carry a
// cross-AS handshake and its data.
func TestConnectOnBatchCertificates(t *testing.T) {
	in, hosts := msRunWorld(t, ms.DefaultPolicy())
	peer := in.Host("peer")
	local := issueAll(t, in, hosts[:2], 900)
	remote := issueAll(t, in, []*apna.Host{peer, peer}, 900)
	signatures(t, in, append(local, remote...))
	src, ok := hosts[0].Stack.Lookup(local[0].EphID)
	if !ok {
		t.Fatal("issued EphID not in the host's pool")
	}
	conn, err := hosts[0].Connect(src, remote[0], nil)
	if err != nil {
		t.Fatalf("cross-AS connect: %v", err)
	}
	if err := hosts[0].Send(conn, []byte("over a batch")); err != nil {
		t.Fatal(err)
	}
	if inbox := peer.Stack.Inbox(); len(inbox) != 1 || string(inbox[0].Payload) != "over a batch" {
		t.Errorf("peer inbox: %+v", inbox)
	}
}
