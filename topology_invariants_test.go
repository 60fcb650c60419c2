package apna

import (
	"errors"
	"testing"
	"time"

	"apna/internal/netsim"
)

// Table-driven invariants for the topology generators: every generated
// shape must have the expected AS and link counts, be fully connected
// with the expected diameters, and every malformed description must be
// rejected with ErrBadTopology before anything is built.

func TestTopologyGeneratorInvariants(t *testing.T) {
	const lat = 5 * time.Millisecond
	cases := []struct {
		name     string
		opts     []TopologyOption
		ases     int
		links    int
		diameter int // max AS-hop distance between any pair
	}{
		{"line-1", []TopologyOption{WithLine(10, 1, lat)}, 1, 0, 0},
		{"line-2", []TopologyOption{WithLine(10, 2, lat)}, 2, 1, 1},
		{"line-5", []TopologyOption{WithLine(10, 5, lat)}, 5, 4, 4},
		{"star-1", []TopologyOption{WithStar(100, 1, lat)}, 2, 1, 1},
		{"star-5", []TopologyOption{WithStar(100, 5, lat)}, 6, 5, 2},
		{"mesh-1", []TopologyOption{WithFullMesh(200, 1, lat)}, 1, 0, 0},
		{"mesh-2", []TopologyOption{WithFullMesh(200, 2, lat)}, 2, 1, 1},
		{"mesh-4", []TopologyOption{WithFullMesh(200, 4, lat)}, 4, 6, 1},
		{"mesh-6", []TopologyOption{WithFullMesh(200, 6, lat)}, 6, 15, 1},
		{"composed", []TopologyOption{
			WithLine(10, 3, lat), WithStar(100, 2, lat), WithLink(12, 100, lat),
		}, 6, 5, 4}, // 10-11-12-100-{101,102}: 10 -> 101 is 4 hops
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			in, err := New(1, tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			if got := len(in.ases); got != tc.ases {
				t.Errorf("ASes = %d, want %d", got, tc.ases)
			}
			if got := len(in.links); got != tc.links {
				t.Errorf("links = %d, want %d", got, tc.links)
			}
			// Connectivity and diameter: every AS reaches every other
			// over the installed routes, never exceeding the expected
			// worst-case hop count.
			tables := netsim.ComputeAllRoutes(in.adjacency)
			diameter := 0
			for src := range in.ases {
				for dst := range in.ases {
					hops, err := netsim.PathLength(tables, src, dst)
					if err != nil {
						t.Fatalf("%v unreachable from %v: %v", dst, src, err)
					}
					if hops > diameter {
						diameter = hops
					}
				}
			}
			if diameter != tc.diameter {
				t.Errorf("diameter = %d, want %d", diameter, tc.diameter)
			}
		})
	}
}

func TestTopologyValidationRejects(t *testing.T) {
	const lat = time.Millisecond
	cases := []struct {
		name string
		opts []TopologyOption
	}{
		{"empty-line", []TopologyOption{WithLine(10, 0, lat)}},
		{"empty-star", []TopologyOption{WithStar(10, 0, lat)}},
		{"empty-mesh", []TopologyOption{WithFullMesh(10, 0, lat)}},
		{"duplicate-as", []TopologyOption{WithAS(1), WithAS(1)}},
		{"generator-overlap", []TopologyOption{WithLine(10, 3, lat), WithStar(11, 2, lat)}},
		{"self-link", []TopologyOption{WithAS(1), WithLink(1, 1, lat)}},
		{"undeclared-link", []TopologyOption{WithAS(1), WithLink(1, 2, lat)}},
		{"duplicate-link", []TopologyOption{WithFullMesh(10, 3, lat), WithLink(10, 11, lat)}},
		{"duplicate-link-reversed", []TopologyOption{WithAS(1), WithAS(2), WithLink(1, 2, lat), WithLink(2, 1, lat)}},
		{"negative-latency", []TopologyOption{WithAS(1), WithAS(2), WithLink(1, 2, -lat)}},
		{"empty-host-name", []TopologyOption{WithAS(1, "")}},
		{"duplicate-host", []TopologyOption{WithAS(1, "x"), WithAS(2, "x")}},
		{"hosts-on-undeclared", []TopologyOption{WithAS(1), WithHosts(2, "y")}},
		{"empty-attacker-name", []TopologyOption{WithAS(1), WithAttacker(1, "")}},
		{"attacker-on-undeclared", []TopologyOption{WithAS(1), WithAttacker(2, "m")}},
		{"duplicate-attacker", []TopologyOption{WithAS(1), WithAttacker(1, "m"), WithAttacker(1, "m")}},
		{"chaos-bad-probability", []TopologyOption{WithAS(1), WithChaos(ChaosConfig{Loss: 1.5})}},
		{"chaos-negative-jitter", []TopologyOption{WithAS(1), WithChaos(ChaosConfig{Jitter: -time.Second})}},
		{"chaos-inverted-partition", []TopologyOption{WithAS(1), WithChaos(ChaosConfig{
			Partitions: []ChaosInterval{{From: 50 * time.Millisecond, Until: 20 * time.Millisecond}}})}},
		{"chaos-negative-partition", []TopologyOption{WithAS(1), WithChaos(ChaosConfig{
			Partitions: []ChaosInterval{{From: -time.Millisecond, Until: time.Millisecond}}})}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			in, err := New(1, tc.opts...)
			if !errors.Is(err, ErrBadTopology) {
				t.Errorf("err = %v, want ErrBadTopology", err)
			}
			if in != nil {
				t.Error("invalid topology returned a built internet")
			}
			if _, _, err := Layout(tc.opts...); !errors.Is(err, ErrBadTopology) {
				t.Errorf("Layout err = %v, want ErrBadTopology", err)
			}
		})
	}
}
