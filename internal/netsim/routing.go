package netsim

import (
	"fmt"
	"sort"

	"apna/internal/ephid"
)

// Inter-domain routing substrate. APNA inherits the Internet's AS-level
// routing: border routers forward on the destination AID
// (Section IV-D3, "Transit ASes do not perform additional operations and
// simply forward packets to the next AS on the path"). The simulation
// computes static shortest-path next-hop tables over the AS adjacency
// graph — a stand-in for BGP.

// Routes maps a destination AID to the next-hop AID.
type Routes map[ephid.AID]ephid.AID

// ComputeRoutes runs a breadth-first shortest-path computation from src
// over the undirected AS adjacency graph and returns src's next-hop
// table. Neighbors are visited in sorted order so the result is
// deterministic when multiple equal-cost paths exist.
func ComputeRoutes(adj map[ephid.AID][]ephid.AID, src ephid.AID) Routes {
	next := make(Routes)
	visited := map[ephid.AID]bool{src: true}
	type hop struct {
		node  ephid.AID
		first ephid.AID // the src-adjacent first hop on the path
	}
	var frontier []hop
	for _, n := range sortedAIDs(adj[src]) {
		if !visited[n] {
			visited[n] = true
			next[n] = n
			frontier = append(frontier, hop{node: n, first: n})
		}
	}
	for len(frontier) > 0 {
		var nextFrontier []hop
		for _, h := range frontier {
			for _, n := range sortedAIDs(adj[h.node]) {
				if !visited[n] {
					visited[n] = true
					next[n] = h.first
					nextFrontier = append(nextFrontier, hop{node: n, first: h.first})
				}
			}
		}
		frontier = nextFrontier
	}
	return next
}

// ComputeAllRoutes builds next-hop tables for every AS in the graph.
func ComputeAllRoutes(adj map[ephid.AID][]ephid.AID) map[ephid.AID]Routes {
	all := make(map[ephid.AID]Routes, len(adj))
	for aid := range adj {
		all[aid] = ComputeRoutes(adj, aid)
	}
	return all
}

// PathLength returns the number of AS hops from src to dst under the
// routing tables, or an error if dst is unreachable (or a routing loop
// is detected).
//
//apna:testonly the root package's topology tests check every graph's diameter through it
func PathLength(tables map[ephid.AID]Routes, src, dst ephid.AID) (int, error) {
	if src == dst {
		return 0, nil
	}
	cur := src
	for hops := 1; hops <= len(tables)+1; hops++ {
		nh, ok := tables[cur][dst]
		if !ok {
			return 0, fmt.Errorf("netsim: %v unreachable from %v", dst, cur)
		}
		if nh == dst {
			return hops, nil
		}
		cur = nh
	}
	return 0, fmt.Errorf("netsim: routing loop from %v to %v", src, dst)
}

func sortedAIDs(in []ephid.AID) []ephid.AID {
	out := append([]ephid.AID(nil), in...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
