package overlay

import (
	"altroute/internal/graph"
)

// Violating is the overlay-accelerated exclusivity oracle: it decides
// whether some live s->t path other than pstar has length within
// pstar.Length + tieEps, replicating core's baseline
// (BestAlternativeWithPotential + the tie comparison) on corridor
// searches instead of unbounded A* spur searches.
//
// Semantics relative to the baseline:
//
//   - The verdict always agrees: it is a property of the graph state
//     (does a distinct path within the bound exist?), and both oracles
//     decide it from exact minimum path lengths.
//   - The witness path's Length is bit-identical: per spur index, both
//     kernels compute the same minimum float path sum under the same
//     bans, and both pick the minimum candidate by the same
//     (length, hops, edges) order.
//   - The witness path's EDGES can differ only when distinct paths tie
//     at identical float length (Dijkstra-order vs A*-potential
//     tie-breaking); on jittered weights ties do not occur and the
//     witness is bit-identical too. A tie with pstar itself can change
//     the Length as well: when the first search returns another path of
//     pstar's float length here and pstar under A*, the two oracles go
//     on to different witnesses, both within the bound (found by
//     FuzzViolatingMatchesCSR on a lattice weighted in tenths).
//
// tl must have been built (BuildTargetLabels) on this graph in a state
// whose enabled-edge set contained every currently enabled edge — the
// exact contract cached reverse potentials already carry — so its labels
// are lower bounds and pruning is lossless. Cliques may be stale for
// edges cut since tl was built: Violating reads only tl and the raw CSR
// arcs, never the cliques.
func (q *Querier) Violating(s, t graph.NodeID, pstar graph.Path, tieEps float64, tl *TargetLabels) (graph.Path, bool) {
	if q.interrupted() {
		return graph.Path{}, false
	}
	q.m.mu.RLock()
	defer q.m.mu.RUnlock()
	if !q.valid(s) || !q.valid(t) || tl == nil || tl.tcell < 0 {
		return graph.Path{}, false
	}
	bound := pstar.Length + tieEps
	q.clearBans()

	// Round zero: the overall shortest path. pstar is live and within the
	// bound, so the corridor always finds something; when it differs from
	// pstar it is the baseline's first-search witness.
	first, ok := q.corridor(s, t, tl, 0, bound)
	if !ok {
		return graph.Path{}, false
	}
	if !first.SameEdges(pstar) {
		if first.Length <= bound {
			return first, true
		}
		return graph.Path{}, false
	}

	// One Yen deviation round over pstar, mirroring bestAlternative with
	// accepted = [pstar]: ban the root nodes and pstar's next edge, search
	// from the spur node. rootLen accumulates serially left-to-right over
	// the materialized weights — the same float sums as the baseline's.
	// Unlike the baseline (which runs unbounded spur searches and filters
	// afterwards), every spur search carries the bound: the pre-skip and
	// corridor pruning drop work that provably cannot change the verdict.
	lim := bound + 1e-9*bound
	var best graph.Path
	haveBest := false
	rootLen := 0.0
	for i, n := 0, len(pstar.Edges); i < n; i++ {
		if q.interrupted() {
			break // cancelled mid-round: candidates so far are still valid
		}
		spurNode := pstar.Nodes[i]
		if rootLen+tl.pot[spurNode] <= lim {
			q.clearBans()
			q.banEdge(pstar.Edges[i])
			for j := 0; j < i; j++ {
				q.banNode(pstar.Nodes[j])
			}
			if spur, ok := q.corridor(spurNode, t, tl, rootLen, bound); ok {
				total := concatSpur(pstar, i, rootLen, spur)
				if !haveBest || pathLess(total, best) {
					best = total
					haveBest = true
				}
			}
		}
		rootLen += q.csr.W[pstar.Edges[i]]
	}
	q.clearBans()
	if haveBest && best.Length <= bound {
		return best, true
	}
	return graph.Path{}, false
}

// concatSpur joins pstar's first i edges (weight rootLen, accumulated
// exactly as the baseline does) to spur, which starts at pstar.Nodes[i].
// Identical to graph's concatSpur so candidate Lengths carry the same
// bits.
func concatSpur(base graph.Path, i int, rootLen float64, spur graph.Path) graph.Path {
	nodes := make([]graph.NodeID, 0, i+len(spur.Nodes))
	nodes = append(nodes, base.Nodes[:i]...)
	nodes = append(nodes, spur.Nodes...)
	edges := make([]graph.EdgeID, 0, i+len(spur.Edges))
	edges = append(edges, base.Edges[:i]...)
	edges = append(edges, spur.Edges...)
	return graph.Path{Nodes: nodes, Edges: edges, Length: rootLen + spur.Length}
}

// pathLess replicates graph's deterministic candidate order: length,
// then hop count, then lexicographic edge sequence.
func pathLess(a, b graph.Path) bool {
	if a.Length != b.Length {
		return a.Length < b.Length
	}
	if len(a.Edges) != len(b.Edges) {
		return len(a.Edges) < len(b.Edges)
	}
	for k := range a.Edges {
		if a.Edges[k] != b.Edges[k] {
			return a.Edges[k] < b.Edges[k]
		}
	}
	return false
}
