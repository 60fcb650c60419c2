package apna

import (
	"testing"
	"time"

	"apna/internal/ephid"
	"apna/internal/host"
	"apna/internal/netsim"
)

// End-to-end adversarial facade tests: a real two-AS internet, honest
// traffic, and an attacker built through the topology options.

func adversarialPair(t *testing.T, topo ...TopologyOption) (*Internet, *Host, *Host) {
	t.Helper()
	base := []TopologyOption{
		WithAS(100, "alice"),
		WithAS(200, "bob"),
		WithLink(100, 200, 5*time.Millisecond),
		WithAttacker(200, "mallory"),
	}
	in, err := New(1, append(base, topo...)...)
	if err != nil {
		t.Fatal(err)
	}
	return in, in.Host("alice"), in.Host("bob")
}

func TestAttackerEndToEndReplayRejected(t *testing.T) {
	in, alice, bob := adversarialPair(t)
	mallory := in.Attacker("mallory")
	if mallory == nil {
		t.Fatal("attacker not built from topology option")
	}
	if got := mallory.AS().AID; got != AID(200) {
		t.Errorf("attacker AS = %v, want AS200", got)
	}
	if in.Attacker("nobody") != nil {
		t.Error("unknown attacker lookup returned non-nil")
	}
	if err := mallory.TapInterAS(100, 200); err != nil {
		t.Fatal(err)
	}
	captured := 0 // what crossed the tapped link, as mallory saw it
	in.InterASLink(100, 200).AddTap(func([]byte, *netsim.Port) { captured++ })

	delivered := 0
	bob.Stack.OnMessage(func(host.Message) { delivered++ })

	idA, err := alice.NewEphID(ephid.KindData, 900)
	if err != nil {
		t.Fatal(err)
	}
	idB, err := bob.NewEphID(ephid.KindData, 900)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := alice.Connect(idA, &idB.Cert, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []string{"one", "two"} {
		if err := alice.Send(conn, []byte(m)); err != nil {
			t.Fatal(err)
		}
	}
	if delivered != 2 {
		t.Fatalf("honest deliveries = %d, want 2", delivered)
	}
	if captured == 0 {
		t.Fatal("wiretap captured nothing")
	}

	// Replay the entire capture at AS 200's external interface — the
	// on-path adversary playing back everything it saw.
	n, err := mallory.ReplayCaptured(AttackReplay, true)
	if err != nil || n != captured {
		t.Fatalf("replayed %d/%d, err %v", n, captured, err)
	}
	in.RunUntilIdle()

	if delivered != 2 {
		t.Errorf("deliveries after replay = %d, want still 2", delivered)
	}
	// Both stacks saw replays: bob the handshake+data copies, alice the
	// replayed acknowledgment (which matches no in-flight dial — the
	// original consumed the dial record — and is dropped as a bad
	// handshake).
	if got := bob.Stack.Stats().DropReplay; got < 3 {
		t.Errorf("bob DropReplay = %d, want >=3 (handshake + 2 data)", got)
	}
	if got := alice.Stack.Stats().DropBadHandshake; got < 1 {
		t.Errorf("alice DropBadHandshake = %d, want >=1 (replayed ack)", got)
	}
	if got := len(mallory.Injections()); got != n {
		t.Errorf("injections recorded = %d, want %d", got, n)
	}
}

func TestChaosTopologyStillConverges(t *testing.T) {
	// Full duplication plus jitter on the inter-AS link: every frame
	// arrives twice and out of order, yet the protocols converge and
	// deliver exactly once — the replay defences double as
	// dedup-under-chaos.
	in, alice, bob := adversarialPair(t, WithChaos(ChaosConfig{
		Jitter:  3 * time.Millisecond,
		DupProb: 1,
	}))
	faults := in.Sim.CaptureFaults()
	delivered := 0
	bob.Stack.OnMessage(func(host.Message) { delivered++ })

	idA, err := alice.NewEphID(ephid.KindData, 900)
	if err != nil {
		t.Fatal(err)
	}
	idB, err := bob.NewEphID(ephid.KindData, 900)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := alice.Connect(idA, &idB.Cert, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := alice.Send(conn, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	in.RunUntilIdle()
	if delivered != 5 {
		t.Errorf("delivered = %d, want exactly 5 despite duplication", delivered)
	}
	if bob.Stack.Stats().DropReplay == 0 {
		t.Error("duplicated frames never hit the replay defences")
	}
	dups := 0
	for _, ev := range faults.Events {
		if ev.Kind == netsim.FaultDup && ev.Hit {
			dups++
		}
	}
	if dups == 0 {
		t.Error("chaos link recorded no duplication")
	}
}
