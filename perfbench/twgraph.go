package main

import (
	"slices"

	"repro/internal/graph"
	"repro/internal/rng"
)

// twEdges generates the TW analogue's arcs with the recipe of
// gen.Load(gen.TwitterLike, n, seed): a Barabási–Albert graph with 12
// attachments per vertex plus max(3, n/10000) planted celebrity hubs,
// each followed by n/5 random vertices. gen.BarabasiAlbert ranges over a
// map when it attaches a vertex, so its output differs from run to run
// for one seed; here the attachments keep their draw order, which makes
// the graph a function of the seed alone.
func twEdges(n int, seed uint64) [][2]graph.VertexID {
	const m = 12
	src := rng.New(seed ^ 0x7477697474)
	edges := make([][2]graph.VertexID, 0, n*m+n*n/50000)
	targets := make([]graph.VertexID, 0, 2*n*m)
	for u := 0; u <= m; u++ {
		v := (u + 1) % (m + 1)
		edges = append(edges, [2]graph.VertexID{graph.VertexID(u), graph.VertexID(v)})
		targets = append(targets, graph.VertexID(u), graph.VertexID(v))
	}
	chosen := make([]graph.VertexID, 0, m)
	for u := m + 1; u < n; u++ {
		chosen = chosen[:0]
		for len(chosen) < m {
			v := targets[src.Intn(len(targets))]
			if int(v) == u || slices.Contains(chosen, v) {
				continue
			}
			chosen = append(chosen, v)
		}
		for _, v := range chosen {
			edges = append(edges, [2]graph.VertexID{graph.VertexID(u), v})
			targets = append(targets, graph.VertexID(u), v)
		}
	}
	hubs := rng.New(seed ^ 0xce1eb)
	for range max(3, n/10000) {
		hub := graph.VertexID(hubs.Intn(n))
		for range n / 5 {
			follower := graph.VertexID(hubs.Intn(n))
			if follower != hub {
				edges = append(edges, [2]graph.VertexID{follower, hub})
			}
		}
	}
	return edges
}

// buildGraph is the graph layer's construction step: arcs into the CSR
// Graph.
func buildGraph(n int, edges [][2]graph.VertexID) *graph.Graph {
	b := graph.NewBuilder(n, true)
	for _, e := range edges {
		b.Add(e[0], e[1])
	}
	return b.Build()
}
