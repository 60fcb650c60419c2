package apna_test

import (
	"testing"
	"time"

	"apna"
	"apna/internal/border"
	"apna/internal/ephid"
)

// buildComplaintWorld stands up a 3-AS mesh: a spammer in AS 100, a
// victim in AS 101, and an uninvolved AS 102 that can only learn about
// revocations through digest dissemination.
func buildComplaintWorld(t *testing.T) (*apna.Internet, *apna.Host, *apna.Host) {
	t.Helper()
	in, err := apna.New(7,
		apna.WithFullMesh(100, 3, 5*time.Millisecond),
		apna.WithHosts(100, "spammer"),
		apna.WithHosts(101, "victim"),
		apna.WithHosts(102, "bystander"),
		apna.WithDissemination(apna.Dissemination{Interval: 2 * time.Second}))
	if err != nil {
		t.Fatal(err)
	}
	return in, in.Host("spammer"), in.Host("victim")
}

func TestComplainCrossASRevokesAndDisseminates(t *testing.T) {
	in, spammer, victim := buildComplaintWorld(t)

	idS, err := spammer.NewEphID(ephid.KindData, 900)
	if err != nil {
		t.Fatal(err)
	}
	idV, err := victim.NewEphID(ephid.KindData, 900)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := spammer.Connect(idS, &idV.Cert, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := spammer.Send(conn, []byte("unwanted")); err != nil {
		t.Fatal(err)
	}
	msgs := victim.Stack.Inbox()
	if len(msgs) != 1 {
		t.Fatalf("victim inbox %d, want 1", len(msgs))
	}

	rcpt, err := victim.Complain(msgs[0])
	if err != nil {
		t.Fatal(err)
	}
	if rcpt.Status != apna.ShutoffRevoked {
		t.Fatalf("receipt status %v, want revoked", rcpt.Status)
	}
	if rcpt.Issuer != apna.AID(100) || rcpt.SrcEphID != idS.Cert.EphID {
		t.Fatalf("receipt %v/%v, want source AS 100 and the spammer's EphID", rcpt.Issuer, rcpt.SrcEphID)
	}
	if err := rcpt.Verify(in.Trust, in.Now()); err != nil {
		t.Fatalf("receipt verification: %v", err)
	}

	// The spammer's AS kills further sends at egress.
	if err := spammer.Send(conn, []byte("more spam")); err != nil {
		t.Fatal(err)
	}
	if got := victim.Stack.Inbox(); len(got) != 0 {
		t.Fatalf("victim received %d messages after revocation, want 0", len(got))
	}
	if got := in.AS(100).Router.Stats().Get(border.VerdictDropRevoked); got == 0 {
		t.Fatal("post-shutoff send was not dropped at the source egress")
	}
	// The victim's AS installed the remote revocation from the receipt.
	if !in.AS(101).Router.RemoteRevoked().Contains(idS.Cert.EphID) {
		t.Fatal("victim AS did not install the revocation from the receipt")
	}

	// The uninvolved AS learns only through digest dissemination.
	if in.AS(102).Router.RemoteRevoked().Contains(idS.Cert.EphID) {
		t.Fatal("bystander AS knew the revocation before any digest")
	}
	in.RunFor(3 * time.Second) // one digest interval plus delivery
	if !in.AS(102).Router.RemoteRevoked().Contains(idS.Cert.EphID) {
		t.Fatal("digest dissemination never reached the bystander AS")
	}

	// A repeated complaint about the same offender is idempotent: a
	// no-op receipt, not a second strike.
	rcpt2, err := victim.Complain(msgs[0])
	if err != nil {
		t.Fatal(err)
	}
	if rcpt2.Status != apna.ShutoffAlreadyRevoked {
		t.Fatalf("second receipt status %v, want already-revoked", rcpt2.Status)
	}
	if got := in.AS(100).Acct.Stats().Revocations; got != 1 {
		t.Fatalf("source engine executed %d revocations, want exactly 1", got)
	}
}

// TestConcurrentComplaintsResolveToOwnReceipts regression-tests the
// ack correlation: both complaints are answered by the victim's one
// local agent, and the link latencies are rigged so the
// second-filed complaint's receipt arrives first. Sequence-number
// matching must hand each future its own offender's receipt;
// FIFO matching would swap them.
func TestConcurrentComplaintsResolveToOwnReceipts(t *testing.T) {
	in, err := apna.New(13,
		apna.WithAS(100, "slowpoke"),
		apna.WithAS(101, "victim-host"),
		apna.WithAS(102, "speedy"),
		apna.WithLink(100, 101, 30*time.Millisecond),
		apna.WithLink(101, 102, time.Millisecond),
		apna.WithLink(100, 102, 5*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	victim := in.Host("victim-host")
	idV, err := victim.NewEphID(ephid.KindData, 900)
	if err != nil {
		t.Fatal(err)
	}
	offenders := []*apna.Host{in.Host("slowpoke"), in.Host("speedy")}
	ephIDs := make([]apna.EphID, len(offenders))
	for _, o := range offenders {
		id, err := o.NewEphID(ephid.KindData, 900)
		if err != nil {
			t.Fatal(err)
		}
		conn, err := o.Connect(id, &idV.Cert, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := o.Send(conn, []byte("spam from "+o.Name)); err != nil {
			t.Fatal(err)
		}
	}
	msgs := victim.Stack.Inbox()
	if len(msgs) != 2 {
		t.Fatalf("victim inbox %d, want 2", len(msgs))
	}
	// File both complaints before awaiting either, in offender order.
	pends := make([]*apna.Pending[*apna.ShutoffReceipt], len(offenders))
	for _, m := range msgs {
		for j, o := range offenders {
			if m.Flow.Src.AID == o.AS().AID {
				ephIDs[j] = m.Flow.Src.EphID
				pends[j] = victim.ComplainAsync(m)
			}
		}
	}
	if err := in.AwaitAll(apna.Ops(pends...)...); err != nil {
		t.Fatal(err)
	}
	for j, p := range pends {
		r, err := p.Result()
		if err != nil {
			t.Fatalf("complaint %d: %v", j, err)
		}
		if r.Issuer != offenders[j].AS().AID || r.SrcEphID != ephIDs[j] {
			t.Fatalf("complaint about %s resolved with receipt from %v for %v",
				offenders[j].Name, r.Issuer, r.SrcEphID)
		}
	}
}

func TestComplainLocalOffender(t *testing.T) {
	in, err := apna.New(11, apna.WithAS(100, "a", "b"))
	if err != nil {
		t.Fatal(err)
	}
	a, b := in.Host("a"), in.Host("b")
	idA, err := a.NewEphID(ephid.KindData, 900)
	if err != nil {
		t.Fatal(err)
	}
	idB, err := b.NewEphID(ephid.KindData, 900)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := a.Connect(idA, &idB.Cert, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Send(conn, []byte("intra-AS spam")); err != nil {
		t.Fatal(err)
	}
	msgs := b.Stack.Inbox()
	if len(msgs) != 1 {
		t.Fatalf("inbox %d, want 1", len(msgs))
	}
	rcpt, err := b.Complain(msgs[0])
	if err != nil {
		t.Fatal(err)
	}
	if rcpt.Status != apna.ShutoffRevoked || rcpt.Issuer != apna.AID(100) {
		t.Fatalf("receipt %+v, want local revocation by AS 100", rcpt)
	}
	if !in.AS(100).Router.Revoked().Contains(idA.Cert.EphID) {
		t.Fatal("local complaint did not revoke at the border")
	}
}
