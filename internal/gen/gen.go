// Package gen generates the synthetic graphs used throughout the
// reproduction in place of the paper's proprietary datasets (Table II:
// LiveJournal, Tuenti, Google+, Twitter, Friendster, Yahoo!).
//
// The substitution rationale (documented per generator and in DESIGN.md):
// Spinner's behaviour depends on the topology *class* — small-world
// clustering, heavy-tailed hub skew, community structure, directedness —
// not on dataset identity. The paper itself uses Watts–Strogatz graphs for
// every scalability experiment (§V-B). We therefore provide:
//
//   - WattsStrogatz: the paper's own synthetic workload (ring lattice with
//     rewiring), for scalability and dynamic-graph experiments.
//   - BarabasiAlbert: preferential attachment, producing the heavy-tailed
//     hub structure of the Twitter graph that drives the unbalanced random
//     partitionings in Fig. 4(a).
//   - PowerLawConfig: a configuration-model graph with a prescribed
//     power-law degree sequence, directed, for web-graph (Yahoo!) analogues.
//   - ErdosRenyi: G(n,m) noise baseline.
//   - RMAT: Kronecker-style recursive matrix graphs (another standard
//     social/web surrogate).
//   - PlantedPartition: a stochastic block model with k ground-truth
//     communities, used by tests to verify that Spinner actually recovers
//     locality that exists.
//
// All generators are deterministic functions of their parameters and seed.
package gen

import (
	"fmt"
	"slices"

	"repro/internal/graph"
	"repro/internal/rng"
)

// WattsStrogatz generates the small-world graph of Watts & Strogatz (1998)
// exactly as used in §V-B of the paper: n vertices on a ring lattice, each
// connected to its k nearest clockwise neighbors (so out-degree k), with
// each edge rewired to a uniformly random target with probability beta.
// The result is a directed graph (matching the Pregel data model the paper
// loads it into); Convert produces the undirected weighted form.
//
// The paper's scalability runs use out-degree 40 and beta = 0.3.
func WattsStrogatz(n, k int, beta float64, seed uint64) *graph.Graph {
	if n <= 0 || k <= 0 || k >= n {
		panic(fmt.Sprintf("gen: WattsStrogatz invalid n=%d k=%d", n, k))
	}
	src := rng.New(seed)
	g := graph.New(n, true)
	for u := 0; u < n; u++ {
		for j := 1; j <= k; j++ {
			v := (u + j) % n
			if src.Float64() < beta {
				// Rewire to a uniform random non-self target. Collisions with
				// existing targets are tolerated at generation and removed by
				// conversion-time semantics; they are rare for k << n.
				for {
					v = src.Intn(n)
					if v != u {
						break
					}
				}
			}
			g.AddEdge(graph.VertexID(u), graph.VertexID(v))
		}
	}
	return g
}

// BarabasiAlbert generates a scale-free graph by preferential attachment:
// each new vertex attaches m edges to existing vertices chosen with
// probability proportional to their current degree. The result is directed
// (new→old), with heavy-tailed in-degree like follower graphs (Twitter).
func BarabasiAlbert(n, m int, seed uint64) *graph.Graph {
	if n <= 0 || m <= 0 || m >= n {
		panic(fmt.Sprintf("gen: BarabasiAlbert invalid n=%d m=%d", n, m))
	}
	src := rng.New(seed)
	g := graph.New(n, true)
	// targets holds one entry per edge endpoint, so sampling uniformly from
	// it realizes degree-proportional selection.
	targets := make([]graph.VertexID, 0, 2*n*m)
	// Seed clique over the first m+1 vertices.
	for u := 0; u <= m; u++ {
		v := (u + 1) % (m + 1)
		g.AddEdge(graph.VertexID(u), graph.VertexID(v))
		targets = append(targets, graph.VertexID(u), graph.VertexID(v))
	}
	// chosen keeps the distinct draws in draw order, so the edge order and
	// the targets pool depend on the seed alone.
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
			g.AddEdge(graph.VertexID(u), v)
			targets = append(targets, graph.VertexID(u), v)
		}
	}
	return g
}

// ErdosRenyi generates G(n, m): m distinct directed edges chosen uniformly
// among all ordered non-self pairs.
func ErdosRenyi(n int, m int64, directed bool, seed uint64) *graph.Graph {
	maxEdges := int64(n) * int64(n-1)
	if !directed {
		maxEdges /= 2
	}
	if n <= 1 || m < 0 || m > maxEdges {
		panic(fmt.Sprintf("gen: ErdosRenyi invalid n=%d m=%d", n, m))
	}
	src := rng.New(seed)
	b := graph.NewBuilder(n, directed)
	// Oversample then dedup via Builder; iterate until enough edges remain.
	g := b.Build()
	need := m
	for need > 0 {
		bb := graph.NewBuilder(n, directed)
		g.Edges(func(u, v graph.VertexID) {
			if directed || u < v {
				bb.Add(u, v)
			}
		})
		for i := int64(0); i < need*2; i++ {
			u := graph.VertexID(src.Intn(n))
			v := graph.VertexID(src.Intn(n))
			if u != v {
				bb.Add(u, v)
			}
		}
		g = bb.Build()
		if g.NumEdges() >= m {
			break
		}
		need = m - g.NumEdges()
	}
	// Trim any surplus deterministically (drop highest-ordered edges).
	if g.NumEdges() > m {
		bb := graph.NewBuilder(n, directed)
		var kept int64
		g.Edges(func(u, v graph.VertexID) {
			if !directed && u > v {
				return
			}
			if kept < m {
				bb.Add(u, v)
				kept++
			}
		})
		g = bb.Build()
	}
	return g
}

// PowerLawConfig generates a directed graph from a configuration model with
// out-degrees drawn from a Zipf distribution with exponent alpha over
// [1, maxDeg]. Targets are chosen degree-proportionally, producing
// correlated in-degree skew like a web graph.
func PowerLawConfig(n, maxDeg int, alpha float64, seed uint64) *graph.Graph {
	if n <= 1 || maxDeg < 1 {
		panic(fmt.Sprintf("gen: PowerLawConfig invalid n=%d maxDeg=%d", n, maxDeg))
	}
	src := rng.New(seed)
	z := rng.NewZipf(src, maxDeg, alpha)
	b := graph.NewBuilder(n, true)
	for u := 0; u < n; u++ {
		d := z.Next() + 1
		for j := 0; j < d; j++ {
			// Zipf-rank targets concentrate in-links on low-ID "hub" vertices.
			v := z.Next() * (n / maxDeg)
			if n >= maxDeg {
				v += src.Intn(n / maxDeg)
			} else {
				v = src.Intn(n)
			}
			if v >= n {
				v = src.Intn(n)
			}
			if v != u {
				b.Add(graph.VertexID(u), graph.VertexID(v))
			}
		}
	}
	return b.Build()
}

// RMAT generates a directed R-MAT graph with 2^scale vertices and
// approximately m edges, using the standard (a,b,c,d) = (0.57,0.19,0.19,0.05)
// Graph500 parameters.
func RMAT(scale int, m int64, seed uint64) *graph.Graph {
	if scale < 1 || scale > 30 || m <= 0 {
		panic(fmt.Sprintf("gen: RMAT invalid scale=%d m=%d", scale, m))
	}
	const a, b, c = 0.57, 0.19, 0.19
	src := rng.New(seed)
	n := 1 << scale
	bld := graph.NewBuilder(n, true)
	for i := int64(0); i < m; i++ {
		u, v := 0, 0
		for bit := 0; bit < scale; bit++ {
			r := src.Float64()
			switch {
			case r < a:
				// upper-left: no bits set
			case r < a+b:
				v |= 1 << bit
			case r < a+b+c:
				u |= 1 << bit
			default:
				u |= 1 << bit
				v |= 1 << bit
			}
		}
		if u != v {
			bld.Add(graph.VertexID(u), graph.VertexID(v))
		}
	}
	return bld.Build()
}

// PlantedPartition generates an undirected stochastic block model with k
// equal-size communities: each vertex gets degIn expected intra-community
// edges and degOut expected inter-community edges. Tests use it to verify
// that partitioners recover locality that is actually present: a perfect
// k-way partitioning has φ = degIn/(degIn+degOut).
func PlantedPartition(n, k, degIn, degOut int, seed uint64) (*graph.Graph, []int32) {
	if n < k || k < 1 {
		panic(fmt.Sprintf("gen: PlantedPartition invalid n=%d k=%d", n, k))
	}
	src := rng.New(seed)
	truth := make([]int32, n)
	for v := 0; v < n; v++ {
		truth[v] = int32(v % k)
	}
	// Community member lists.
	members := make([][]graph.VertexID, k)
	for v := 0; v < n; v++ {
		c := truth[v]
		members[c] = append(members[c], graph.VertexID(v))
	}
	b := graph.NewBuilder(n, false)
	for v := 0; v < n; v++ {
		c := truth[v]
		own := members[c]
		for i := 0; i < degIn/2; i++ {
			u := own[src.Intn(len(own))]
			if u != graph.VertexID(v) {
				b.Add(graph.VertexID(v), u)
			}
		}
		for i := 0; i < degOut/2; i++ {
			u := graph.VertexID(src.Intn(n))
			if u != graph.VertexID(v) && truth[u] != c {
				b.Add(graph.VertexID(v), u)
			}
		}
	}
	return b.Build(), truth
}
