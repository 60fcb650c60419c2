package apna

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"apna/internal/dns"
	"apna/internal/ephid"
	"apna/internal/host"
)

// TestConcurrentMultiFlowScenario is the redesign's acceptance test:
// nine hosts across three ASes run their EphID issuances, handshakes
// and data transfers overlapped in one shared timeline, resolved by
// AwaitAll — the shape every scale scenario builds on.
func TestConcurrentMultiFlowScenario(t *testing.T) {
	in, err := New(1,
		WithAS(100, "a0", "a1", "a2"),
		WithAS(200, "b0", "b1", "b2"),
		WithAS(300, "c0", "c1", "c2"),
		WithLink(100, 200, 5*time.Millisecond),
		WithLink(200, 300, 5*time.Millisecond),
	)
	if err != nil {
		t.Fatal(err)
	}
	hosts := in.Hosts()
	if len(hosts) != 9 {
		t.Fatalf("hosts = %d", len(hosts))
	}

	// Phase 1: every host requests an EphID; nothing resolves until the
	// timeline is driven, so all nine issuance exchanges overlap.
	issues := make([]*Pending[*host.OwnedEphID], len(hosts))
	for i, h := range hosts {
		issues[i] = h.NewEphIDAsync(ephid.KindData, 3600)
	}
	for i, p := range issues {
		if p.Done() {
			t.Fatalf("issuance %d resolved before the timeline ran", i)
		}
	}
	if err := in.AwaitAll(Ops(issues...)...); err != nil {
		t.Fatalf("AwaitAll(issuance): %v", err)
	}
	ids := make([]*host.OwnedEphID, len(hosts))
	for i, p := range issues {
		if ids[i], err = p.Result(); err != nil {
			t.Fatalf("issuance %d: %v", i, err)
		}
	}

	// Phase 2: every host dials the next host (ring across the three
	// ASes) — nine handshakes in flight at once, crossing the transit
	// AS in both directions.
	dials := make([]*Pending[*host.Conn], len(hosts))
	for i, h := range hosts {
		peer := (i + 1) % len(hosts)
		dials[i] = h.ConnectAsync(ids[i], &ids[peer].Cert, nil)
	}
	for i, p := range dials {
		if p.Done() {
			t.Fatalf("handshake %d resolved before the timeline ran", i)
		}
	}
	if err := in.AwaitAll(Ops(dials...)...); err != nil {
		t.Fatalf("AwaitAll(handshakes): %v", err)
	}
	conns := make([]*host.Conn, len(hosts))
	for i, p := range dials {
		if conns[i], err = p.Result(); err != nil {
			t.Fatalf("handshake %d: %v", i, err)
		}
		if !conns[i].Established() {
			t.Fatalf("handshake %d not established", i)
		}
	}

	// Phase 3: every connection carries two messages, all in flight
	// together.
	got := make([]int, len(hosts))
	for i, h := range hosts {
		i := i
		h.Stack.OnMessage(func(m host.Message) { got[i]++ })
	}
	var sends []*Pending[struct{}]
	for round := 0; round < 2; round++ {
		for i, h := range hosts {
			msg := fmt.Sprintf("%s round %d", h.Name, round)
			sends = append(sends, h.SendAsync(conns[i], []byte(msg)))
		}
	}
	if err := in.AwaitAll(Ops(sends...)...); err != nil {
		t.Fatalf("AwaitAll(sends): %v", err)
	}
	for i, n := range got {
		if n != 2 {
			t.Errorf("host %s received %d messages, want 2", hosts[i].Name, n)
		}
	}

	// The transit AS saw both directions of the ring's cross-AS flows.
	if in.AS(200).Router.Stats().Transited.Load() == 0 {
		t.Error("no transit traffic through AS 200")
	}
}

// TestConcurrentMixedOperations interleaves heterogeneous operations —
// handshakes, data, pings and a mid-flight shutoff — in one timeline,
// the "mid-flight revocation" scenario the blocking facade could not
// express.
func TestConcurrentMixedOperations(t *testing.T) {
	in, err := New(7,
		WithAS(1, "alice", "dave"),
		WithAS(2, "bob"),
		WithAS(3, "carol"),
		WithLink(1, 2, 3*time.Millisecond),
		WithLink(2, 3, 3*time.Millisecond),
	)
	if err != nil {
		t.Fatal(err)
	}
	alice, bob, carol, dave := in.Host("alice"), in.Host("bob"), in.Host("carol"), in.Host("dave")

	// Issue EphIDs for everyone concurrently.
	pa, pb, pc, pd := alice.NewEphIDAsync(ephid.KindData, 3600),
		bob.NewEphIDAsync(ephid.KindData, 3600),
		carol.NewEphIDAsync(ephid.KindData, 3600),
		dave.NewEphIDAsync(ephid.KindData, 3600)
	if err := in.AwaitAll(pa, pb, pc, pd); err != nil {
		t.Fatal(err)
	}
	idA, _ := pa.Result()
	idB, _ := pb.Result()
	idC, _ := pc.Result()
	idD, _ := pd.Result()

	// Alice floods carol; the flood and dave's unrelated handshake to
	// bob share the timeline.
	ca := alice.ConnectAsync(idA, &idC.Cert, nil)
	cd := dave.ConnectAsync(idD, &idB.Cert, nil)
	if err := in.AwaitAll(ca, cd); err != nil {
		t.Fatal(err)
	}
	connA, _ := ca.Result()
	connD, _ := cd.Result()

	if err := in.AwaitAll(alice.SendAsync(connA, []byte("FLOOD"))); err != nil {
		t.Fatal(err)
	}
	msgs := carol.Stack.Inbox()
	if len(msgs) != 1 {
		t.Fatalf("carol inbox: %d", len(msgs))
	}

	// Mid-flight: carol's shutoff, dave's data to bob, and a ping race
	// through the network together.
	shut := carol.ShutoffAsync(msgs[0])
	send := dave.SendAsync(connD, []byte("legit traffic"))
	ping := dave.PingAsync(Endpoint{AID: 2, EphID: idB.Cert.EphID}, 9)
	if err := in.AwaitAll(shut, send, ping); err != nil {
		t.Fatal(err)
	}
	if ok, err := shut.Result(); err != nil || !ok {
		t.Fatalf("shutoff: %v %v", ok, err)
	}
	if replied, _ := ping.Result(); !replied {
		t.Error("ping lost")
	}
	if got := bob.Stack.Inbox(); len(got) != 1 || string(got[0].Payload) != "legit traffic" {
		t.Errorf("bob inbox: %+v", got)
	}
	// The revocation took: alice's EphID is dead, dave's flows were
	// untouched.
	if !in.AS(1).Router.Revoked().Contains(idA.Cert.EphID) {
		t.Error("flood EphID not revoked")
	}

	// Idle-resolved sends settle at RunUntilIdle quiescence exactly
	// like under Await.
	tail := dave.SendAsync(connD, []byte("tail"))
	in.RunUntilIdle()
	if !tail.Done() {
		t.Error("send future not settled by RunUntilIdle")
	}
}

// TestConcurrentShutoffsToDifferentAgents: acknowledgment matching is
// per accountability agent, not a single global FIFO — an ack from a
// near agent must not resolve a future waiting on a far agent. The far
// request carries tampered evidence (rejected, ack 0) while the near
// one is valid (accepted, ack 1); with asymmetric latencies the near
// ack arrives first.
func TestConcurrentShutoffsToDifferentAgents(t *testing.T) {
	in, err := New(11,
		WithAS(1, "att1"),
		WithAS(2, "victim"),
		WithAS(3, "att2"),
		WithLink(1, 2, time.Millisecond),
		WithLink(2, 3, 30*time.Millisecond),
	)
	if err != nil {
		t.Fatal(err)
	}
	att1, att2, victim := in.Host("att1"), in.Host("att2"), in.Host("victim")

	p1, p2, pv := att1.NewEphIDAsync(ephid.KindData, 3600),
		att2.NewEphIDAsync(ephid.KindData, 3600),
		victim.NewEphIDAsync(ephid.KindData, 3600)
	if err := in.AwaitAll(p1, p2, pv); err != nil {
		t.Fatal(err)
	}
	id1, _ := p1.Result()
	id2, _ := p2.Result()
	idV, _ := pv.Result()

	c1 := att1.ConnectAsync(id1, &idV.Cert, nil)
	c2 := att2.ConnectAsync(id2, &idV.Cert, nil)
	if err := in.AwaitAll(c1, c2); err != nil {
		t.Fatal(err)
	}
	conn1, _ := c1.Result()
	conn2, _ := c2.Result()
	if err := in.AwaitAll(att1.SendAsync(conn1, []byte("near flood")),
		att2.SendAsync(conn2, []byte("far flood"))); err != nil {
		t.Fatal(err)
	}
	var nearMsg, farMsg *host.Message
	for _, m := range victim.Stack.Inbox() {
		m := m
		if m.Flow.Src.AID == 1 {
			nearMsg = &m
		} else {
			farMsg = &m
		}
	}
	if nearMsg == nil || farMsg == nil {
		t.Fatal("floods not delivered")
	}
	// Tamper the far evidence so AS 3's agent rejects it.
	farMsg.Raw[len(farMsg.Raw)-20] ^= 0xff

	// File the far (doomed) shutoff first: its ack arrives last.
	far := victim.ShutoffAsync(*farMsg)
	near := victim.ShutoffAsync(*nearMsg)
	if err := in.AwaitAll(far, near); err != nil {
		t.Fatal(err)
	}
	if ok, err := near.Result(); err != nil || !ok {
		t.Errorf("near shutoff = %v %v, want accepted", ok, err)
	}
	if ok, err := far.Result(); err != nil || ok {
		t.Errorf("far shutoff = %v %v, want rejected", ok, err)
	}
	if !in.AS(1).Router.Revoked().Contains(id1.Cert.EphID) {
		t.Error("near attacker not revoked")
	}
	if in.AS(3).Router.Revoked().Contains(id2.Cert.EphID) {
		t.Error("far attacker revoked on tampered evidence")
	}
}

// TestConcurrentDialsFromOneEphID: two handshakes in flight from the
// same local EphID toward different peers at different distances must
// each resolve from their own acknowledgment — the near peer's ack
// must not establish the far dial.
func TestConcurrentDialsFromOneEphID(t *testing.T) {
	in, err := New(5,
		WithAS(1, "alice"),
		WithAS(2, "near"),
		WithAS(3, "far"),
		WithLink(1, 2, 5*time.Millisecond),
		WithLink(1, 3, 25*time.Millisecond),
	)
	if err != nil {
		t.Fatal(err)
	}
	alice, near, far := in.Host("alice"), in.Host("near"), in.Host("far")
	pa, pn, pf := alice.NewEphIDAsync(ephid.KindData, 3600),
		near.NewEphIDAsync(ephid.KindData, 3600),
		far.NewEphIDAsync(ephid.KindData, 3600)
	if err := in.AwaitAll(pa, pn, pf); err != nil {
		t.Fatal(err)
	}
	idA, _ := pa.Result()
	idN, _ := pn.Result()
	idF, _ := pf.Result()

	dialFar := alice.ConnectAsync(idA, &idF.Cert, nil)
	dialNear := alice.ConnectAsync(idA, &idN.Cert, nil)
	if err := in.AwaitAll(dialFar, dialNear); err != nil {
		t.Fatalf("AwaitAll: %v", err)
	}
	connFar, err := dialFar.Result()
	if err != nil || connFar.Peer().AID != 3 {
		t.Fatalf("far dial: %v (peer %v)", err, connFar.Peer())
	}
	connNear, err := dialNear.Result()
	if err != nil || connNear.Peer().AID != 2 {
		t.Fatalf("near dial: %v (peer %v)", err, connNear.Peer())
	}
	// Both connections carry data to their own peer.
	if err := in.AwaitAll(alice.SendAsync(connNear, []byte("to near")),
		alice.SendAsync(connFar, []byte("to far"))); err != nil {
		t.Fatal(err)
	}
	if got := near.Stack.Inbox(); len(got) != 1 || string(got[0].Payload) != "to near" {
		t.Errorf("near inbox: %+v", got)
	}
	if got := far.Stack.Inbox(); len(got) != 1 || string(got[0].Payload) != "to far" {
		t.Errorf("far inbox: %+v", got)
	}
}

// TestConcurrentDialsToReceiveOnlyServices: two dials from one local
// EphID to two *different* receive-only EphIDs in the same AS. Both
// acks arrive from serving EphIDs (exact peer match impossible), so
// correlation rides the dialed-EphID echo in the ack — each connection
// must land on its own service.
func TestConcurrentDialsToReceiveOnlyServices(t *testing.T) {
	in, err := New(17,
		WithAS(1, "client"),
		WithAS(2, "svcA", "svcB"),
		WithLink(1, 2, 4*time.Millisecond),
	)
	if err != nil {
		t.Fatal(err)
	}
	client, svcA, svcB := in.Host("client"), in.Host("svcA"), in.Host("svcB")

	ra := svcA.NewEphIDAsync(ephid.KindReceiveOnly, 3600)
	sa := svcA.NewEphIDAsync(ephid.KindData, 3600)
	rb := svcB.NewEphIDAsync(ephid.KindReceiveOnly, 3600)
	sb := svcB.NewEphIDAsync(ephid.KindData, 3600)
	pc := client.NewEphIDAsync(ephid.KindData, 3600)
	pc2 := client.NewEphIDAsync(ephid.KindData, 3600)
	if err := in.AwaitAll(ra, sa, rb, sb, pc, pc2); err != nil {
		t.Fatal(err)
	}
	recvA, _ := ra.Result()
	recvB, _ := rb.Result()
	servA, _ := sa.Result()
	idC, _ := pc.Result()
	idC2, _ := pc2.Result()

	// Three dials share the timeline: two migratable (to the published
	// receive-only EphIDs) and one direct to svcA's serving EphID —
	// whose ack must not be confused with the migrated ack arriving
	// from that same serving EphID.
	dialA := client.ConnectAsync(idC, &recvA.Cert, nil)
	dialB := client.ConnectAsync(idC, &recvB.Cert, nil)
	dialDirect := client.ConnectAsync(idC2, &servA.Cert, nil)
	if err := in.AwaitAll(dialA, dialB, dialDirect); err != nil {
		t.Fatal(err)
	}
	connA, errA := dialA.Result()
	connB, errB := dialB.Result()
	connD, errD := dialDirect.Result()
	if errA != nil || errB != nil || errD != nil {
		t.Fatalf("dials: %v %v %v", errA, errB, errD)
	}
	if err := in.AwaitAll(client.SendAsync(connA, []byte("for A")),
		client.SendAsync(connB, []byte("for B")),
		client.SendAsync(connD, []byte("direct"))); err != nil {
		t.Fatal(err)
	}
	gotA := map[string]bool{}
	for _, m := range svcA.Stack.Inbox() {
		gotA[string(m.Payload)] = true
	}
	if len(gotA) != 2 || !gotA["for A"] || !gotA["direct"] {
		t.Errorf("svcA messages: %v", gotA)
	}
	if got := svcB.Stack.Inbox(); len(got) != 1 || string(got[0].Payload) != "for B" {
		t.Errorf("svcB inbox: %+v", got)
	}
}

// TestDialRetryAfterAbandonedDial: a dial that dies unanswered (the
// server has no serving EphID yet) is abandoned at quiescence, so a
// retry from the same local EphID receives its own acknowledgment
// instead of losing it to the stale dial record.
func TestDialRetryAfterAbandonedDial(t *testing.T) {
	in, err := New(13,
		WithAS(1, "alice"),
		WithAS(2, "bob"),
		WithLink(1, 2, 2*time.Millisecond),
	)
	if err != nil {
		t.Fatal(err)
	}
	alice, bob := in.Host("alice"), in.Host("bob")
	pa := alice.NewEphIDAsync(ephid.KindData, 3600)
	pr := bob.NewEphIDAsync(ephid.KindReceiveOnly, 3600)
	if err := in.AwaitAll(pa, pr); err != nil {
		t.Fatal(err)
	}
	idA, _ := pa.Result()
	recvOnly, _ := pr.Result()

	// Bob cannot serve yet: the handshake is dropped, no ack comes.
	dead := alice.ConnectAsync(idA, &recvOnly.Cert, nil)
	if err := in.AwaitAll(dead); err != ErrTimeout {
		t.Fatalf("dial without server = %v, want ErrTimeout", err)
	}

	// Bob acquires a serving EphID; the retry must establish.
	if _, err := bob.NewEphID(ephid.KindData, 3600); err != nil {
		t.Fatal(err)
	}
	conn, err := alice.Connect(idA, &recvOnly.Cert, nil)
	if err != nil {
		t.Fatalf("retry after abandoned dial: %v", err)
	}
	if err := alice.Send(conn, []byte("second try")); err != nil {
		t.Fatal(err)
	}
	if got := bob.Stack.Inbox(); len(got) != 1 || string(got[0].Payload) != "second try" {
		t.Errorf("bob inbox: %+v", got)
	}
	if dead.Done() {
		t.Error("abandoned dial resolved from the retry's ack")
	}
}

// TestConcurrentResolves: two hosts resolve different names over
// encrypted DNS sessions at the same time; the flow taps keep the
// responses from cross-contaminating inboxes.
func TestConcurrentResolves(t *testing.T) {
	in, err := New(3,
		WithAS(10, "client1", "client2"),
		WithAS(20, "srv1", "srv2"),
		WithLink(10, 20, 4*time.Millisecond),
	)
	if err != nil {
		t.Fatal(err)
	}
	c1, c2 := in.Host("client1"), in.Host("client2")
	s1, s2 := in.Host("srv1"), in.Host("srv2")

	p1, p2 := s1.NewEphIDAsync(ephid.KindReceiveOnly, 24*3600), s2.NewEphIDAsync(ephid.KindReceiveOnly, 24*3600)
	if err := in.AwaitAll(p1, p2); err != nil {
		t.Fatal(err)
	}
	r1, _ := p1.Result()
	r2, _ := p2.Result()
	if err := s1.Publish("one.example", &r1.Cert); err != nil {
		t.Fatal(err)
	}
	if err := s2.Publish("two.example", &r2.Cert); err != nil {
		t.Fatal(err)
	}

	// Every lookup queries from an EphID of its own, so the three run
	// as separate flows even when one host has two in flight.
	res1 := c1.LookupAsync("one.example")
	res2 := c2.LookupAsync("two.example")
	resMissing := c2.LookupAsync("three.example")
	if err := in.AwaitAll(res1, res2, resMissing); err != nil {
		t.Fatal(err)
	}
	if cert1, err := res1.Result(); err != nil || cert1.EphID != r1.Cert.EphID {
		t.Errorf("resolve one.example: %v", err)
	}
	if cert2, err := res2.Result(); err != nil || cert2.EphID != r2.Cert.EphID {
		t.Errorf("resolve two.example: %v", err)
	}
	if _, err := resMissing.Result(); !errors.Is(err, dns.ErrNXDomain) {
		t.Errorf("unknown name: %v, want %v", err, dns.ErrNXDomain)
	}
}

// TestPingSeqReuseAfterLostReply: a probe whose reply is lost must not
// leave a stale future that would steal the reply of a later ping
// reusing the same sequence number.
func TestPingSeqReuseAfterLostReply(t *testing.T) {
	in, err := New(1,
		WithAS(100, "alice"),
		WithAS(300, "carol"),
		WithLink(100, 300, 5*time.Millisecond),
	)
	if err != nil {
		t.Fatal(err)
	}
	alice, carol := in.Host("alice"), in.Host("carol")
	pa, pc := alice.NewEphIDAsync(ephid.KindData, 900), carol.NewEphIDAsync(ephid.KindData, 900)
	if err := in.AwaitAll(pa, pc); err != nil {
		t.Fatal(err)
	}
	idC, _ := pc.Result()

	// A forged destination EphID dies at AS 300's ingress with no echo
	// and no ICMP (unauthenticated EphIDs get no feedback).
	dead := Endpoint{AID: 300, EphID: EphID{1, 2, 3, 4}}
	if ok, err := alice.Ping(dead, 5); err != nil || ok {
		t.Fatalf("dead ping = %v %v, want lost without error", ok, err)
	}
	// Reusing the sequence number must see its own reply.
	if ok, err := alice.Ping(Endpoint{AID: 300, EphID: idC.Cert.EphID}, 5); err != nil || !ok {
		t.Errorf("reused-seq ping = %v %v, want replied", ok, err)
	}

	// Concurrent probes sharing a sequence number toward different
	// destinations: the live destination's reply must resolve *its*
	// probe, not the doomed one's.
	doomed := alice.PingAsync(dead, 9)
	live := alice.PingAsync(Endpoint{AID: 300, EphID: idC.Cert.EphID}, 9)
	if err := in.AwaitAll(doomed, live); err != ErrTimeout {
		t.Fatalf("AwaitAll = %v, want ErrTimeout (doomed probe unresolved)", err)
	}
	if doomed.Done() {
		t.Error("dead-destination probe resolved from another probe's reply")
	}
	if ok, err := live.Result(); err != nil || !ok {
		t.Errorf("live probe = %v %v, want replied", ok, err)
	}

	// Quiescence via RunUntilIdle (no Await holding the future) must
	// also abandon routing state: no stale queue entries survive.
	stale := alice.PingAsync(dead, 11)
	in.RunUntilIdle()
	if stale.Done() {
		t.Error("lost probe resolved")
	}
	if len(alice.pings) != 0 {
		t.Errorf("stale ping entries not abandoned at idle: %d", len(alice.pings))
	}
	if len(alice.shutoffs) != 0 {
		t.Errorf("stale shutoff entries: %d", len(alice.shutoffs))
	}
}
