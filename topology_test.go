package apna

import (
	"errors"
	"testing"
	"time"

	"apna/internal/ephid"
)

func TestTopologyValidation(t *testing.T) {
	cases := []struct {
		name string
		topo []TopologyOption
	}{
		{"duplicate AS", []TopologyOption{WithAS(1), WithAS(1)}},
		{"duplicate host", []TopologyOption{WithAS(1, "x"), WithAS(2, "x"), WithLink(1, 2, 0)}},
		{"empty host name", []TopologyOption{WithAS(1, "")}},
		{"link to undeclared AS", []TopologyOption{WithAS(1), WithLink(1, 2, 0)}},
		{"self link", []TopologyOption{WithAS(1), WithLink(1, 1, 0)}},
		{"duplicate link", []TopologyOption{WithAS(1), WithAS(2), WithLink(1, 2, 0), WithLink(2, 1, time.Millisecond)}},
		{"negative latency", []TopologyOption{WithAS(1), WithAS(2), WithLink(1, 2, -time.Second)}},
		{"hosts on undeclared AS", []TopologyOption{WithAS(1), WithHosts(2, "x")}},
		{"empty line", []TopologyOption{WithLine(1, 0, 0)}},
		{"empty star", []TopologyOption{WithStar(1, 0, 0)}},
		{"empty mesh", []TopologyOption{WithFullMesh(1, -1, 0)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := New(1, tc.topo...); !errors.Is(err, ErrBadTopology) {
				t.Errorf("New() err = %v, want ErrBadTopology", err)
			}
		})
	}
}

// TestTopologyGenerators checks that line, star and full-mesh layouts
// route end to end: the two most distant hosts of each shape complete a
// handshake and exchange data.
func TestTopologyGenerators(t *testing.T) {
	shapes := []struct {
		name        string
		topo        []TopologyOption
		src, dst    AID
		wantTransit AID // an AS that must carry transit traffic (0 = none)
	}{
		{"line", []TopologyOption{WithLine(10, 4, time.Millisecond),
			WithHosts(10, "src"), WithHosts(13, "dst")}, 10, 13, 11},
		{"star", []TopologyOption{WithStar(50, 3, time.Millisecond),
			WithHosts(51, "src"), WithHosts(53, "dst")}, 51, 53, 50},
		{"mesh", []TopologyOption{WithFullMesh(90, 4, time.Millisecond),
			WithHosts(90, "src"), WithHosts(93, "dst")}, 90, 93, 0},
	}
	for _, tc := range shapes {
		t.Run(tc.name, func(t *testing.T) {
			in, err := New(1, tc.topo...)
			if err != nil {
				t.Fatal(err)
			}
			src, dst := in.Host("src"), in.Host("dst")
			if src == nil || dst == nil {
				t.Fatal("hosts not registered")
			}
			if src.AS().AID != tc.src || dst.AS().AID != tc.dst {
				t.Fatalf("hosts on %v/%v, want %v/%v", src.AS().AID, dst.AS().AID, tc.src, tc.dst)
			}
			ps, pd := src.NewEphIDAsync(ephid.KindData, 900), dst.NewEphIDAsync(ephid.KindData, 900)
			if err := in.AwaitAll(ps, pd); err != nil {
				t.Fatal(err)
			}
			idS, _ := ps.Result()
			idD, _ := pd.Result()
			conn, err := src.Connect(idS, &idD.Cert, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := src.Send(conn, []byte("across the "+tc.name)); err != nil {
				t.Fatal(err)
			}
			if msgs := dst.Stack.Inbox(); len(msgs) != 1 {
				t.Fatalf("delivered %d messages", len(msgs))
			}
			if tc.wantTransit != 0 && in.AS(tc.wantTransit).Router.Stats().Transited.Load() == 0 {
				t.Errorf("no transit through AS %v", tc.wantTransit)
			}
			// In a full mesh every path is direct: no transit anywhere.
			if tc.name == "mesh" {
				for _, aid := range []AID{90, 91, 92, 93} {
					if n := in.AS(aid).Router.Stats().Transited.Load(); n != 0 {
						t.Errorf("mesh AS %v transited %d packets", aid, n)
					}
				}
			}
		})
	}
}

func TestWithOptionsReachesSimulation(t *testing.T) {
	opts := DefaultOptions()
	opts.StrikeLimit = 1
	in, err := New(1, WithOptions(opts), WithAS(1, "a"), WithAS(2, "b"),
		WithLink(1, 2, time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if in.opts.StrikeLimit != 1 {
		t.Errorf("StrikeLimit = %d", in.opts.StrikeLimit)
	}
}

// TestASGraphGenerator checks the provider/customer hierarchy through
// Layout, without building an internet — the graph E12 and as-graph
// scenario specs run on: AS numbering, link count, connectivity, the
// degree bound the relay fan-out gate relies on, and determinism.
func TestASGraphGenerator(t *testing.T) {
	g := ASGraphConfig{Core: 4, Mid: 8, Stubs: 24, ProvidersPerAS: 2,
		CoreLatency: time.Millisecond, Latency: 5 * time.Millisecond}
	aids, links, err := Layout(WithASGraph(1000, g))
	if err != nil {
		t.Fatal(err)
	}
	total := g.Core + g.Mid + g.Stubs
	if len(aids) != total {
		t.Fatalf("%d ASes, want %d", len(aids), total)
	}
	for i, aid := range aids {
		if aid != AID(1000+i) {
			t.Fatalf("AS %d is %v, want %v (core, mid, stub tiers numbered in order)", i, aid, 1000+i)
		}
	}
	// Every non-core AS has exactly ProvidersPerAS provider links;
	// total links = core mesh + provider edges.
	wantLinks := g.Core*(g.Core-1)/2 + (g.Mid+g.Stubs)*g.ProvidersPerAS
	if len(links) != wantLinks {
		t.Fatalf("%d links, want %d", len(links), wantLinks)
	}
	// Degree bound: a core AS carries the clique plus its round-robin
	// share of mid customers; a mid AS its providers plus stub share.
	deg := make(map[AID]int)
	adj := make(map[AID][]AID)
	for _, l := range links {
		if l.Latency != g.Latency && l.Latency != g.CoreLatency {
			t.Fatalf("link %v-%v latency %v", l.A, l.B, l.Latency)
		}
		deg[l.A]++
		deg[l.B]++
		adj[l.A] = append(adj[l.A], l.B)
		adj[l.B] = append(adj[l.B], l.A)
	}
	maxDeg := 0
	for _, d := range deg {
		if d > maxDeg {
			maxDeg = d
		}
	}
	coreBound := g.Core - 1 + (g.Mid*g.ProvidersPerAS+g.Core-1)/g.Core
	midBound := g.ProvidersPerAS + (g.Stubs*g.ProvidersPerAS+g.Mid-1)/g.Mid
	bound := coreBound
	if midBound > bound {
		bound = midBound
	}
	if maxDeg > bound {
		t.Fatalf("max degree %d exceeds round-robin bound %d", maxDeg, bound)
	}
	// Connectivity: BFS from the first core AS reaches every AS.
	seen := map[AID]bool{1000: true}
	queue := []AID{1000}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, nb := range adj[cur] {
			if !seen[nb] {
				seen[nb] = true
				queue = append(queue, nb)
			}
		}
	}
	if len(seen) != total {
		t.Fatalf("BFS reached %d of %d ASes", len(seen), total)
	}
	// Determinism: a second layout yields the identical link list.
	_, again, err := Layout(WithASGraph(1000, g))
	if err != nil {
		t.Fatal(err)
	}
	for i, l := range links {
		if again[i] != l {
			t.Fatalf("link %d differs between layouts: %v vs %v", i, l, again[i])
		}
	}
	// Generator argument validation.
	for _, bad := range []ASGraphConfig{{Core: 0}, {Core: 1, Stubs: 3}} {
		if _, _, err := Layout(WithASGraph(1, bad)); !errors.Is(err, ErrBadTopology) {
			t.Errorf("WithASGraph(%+v) err = %v, want ErrBadTopology", bad, err)
		}
	}
}

// TestASGraphRelayDissemination builds a small provider hierarchy with
// relay-mode dissemination and checks a revocation noted at one stub
// reaches the remote revocation list of a stub homed to different
// providers — four overlay hops, batches riding real simulated links.
func TestASGraphRelayDissemination(t *testing.T) {
	const interval = time.Second
	in, err := New(7,
		WithASGraph(100, ASGraphConfig{Core: 2, Mid: 2, Stubs: 4, ProvidersPerAS: 1,
			CoreLatency: time.Millisecond, Latency: 2 * time.Millisecond}),
		WithDissemination(Dissemination{Interval: interval, Mode: DisseminateRelay}),
	)
	if err != nil {
		t.Fatal(err)
	}
	// With ProvidersPerAS=1 the shape is a tree: stubs 104..107 hang off
	// mids 102/103, which hang off cores 100/101.
	origin, far := AID(104), AID(107)
	id := EphID{0xaa, 0xbb, 1}
	exp := uint32(in.Now() + 3600)
	in.AS(origin).Acct.NoteRevoked(id, exp)
	in.RunFor(7 * interval)
	if !in.AS(far).Router.RemoteRevoked().Matches(id, origin) {
		t.Fatal("revocation did not traverse the relay overlay")
	}
	// Bounded fan-out: each engine sent at most degree messages per
	// interval (plus nothing before the origin had state).
	for _, as := range in.ASes() {
		st := as.Acct.Stats()
		degree := len(in.adjacency[as.AID])
		if st.MessagesSent > uint64(degree)*8 {
			t.Fatalf("AS %v sent %d digest messages over 7 intervals (degree %d)",
				as.AID, st.MessagesSent, degree)
		}
	}
}
