package graph

import (
	"context"
	"math"
)

// Router runs shortest-path queries against a graph. It owns reusable
// per-node scratch arrays (epoch-stamped, so clearing between queries is
// O(1)), which matters because the attack algorithms issue thousands of
// Dijkstra queries per run. Every query runs on a frozen CSR snapshot
// (see csr.go): the attached one, or a freeze of the graph made for that
// one call. A Router is not safe for concurrent use; create one per
// goroutine.
type Router struct {
	g *Graph

	// Forward search scratch.
	dist     []float64
	prevEdge []EdgeID
	stamp    []uint64
	cur      uint64
	heap     heap4

	// Backward scratch for the reverse-potential sweep, and the stack of
	// the spur search's reverse reachability check (stamped in stampB).
	distB  []float64
	stampB []uint64
	curB   uint64
	heapB  heap4
	reach  []NodeID

	nodeBan  []uint64
	edgeBan  []uint64
	banEpoch uint64

	// snap is the attached snapshot (UseSnapshot); nil means every query
	// freezes the graph for itself.
	snap *Snapshot

	// ctx, when set via SetContext, is polled between spur searches for
	// cooperative cancellation of k-shortest queries. nil disables checks.
	ctx context.Context
}

// NewRouter returns a Router for g. The router tracks g: edges added,
// disabled, or enabled after creation are observed by later queries
// (scratch grows lazily, snapshots are re-frozen when topology moved on).
func NewRouter(g *Graph) *Router {
	return &Router{g: g}
}

// Graph returns the graph this router queries.
func (r *Router) Graph() *Graph { return r.g }

func (r *Router) grow() {
	// Size in one allocation per array: the first query on a 100k-node
	// city would otherwise pay ~400k incremental appends.
	n := r.g.NumNodes()
	if len(r.dist) < n {
		dist := make([]float64, n)
		copy(dist, r.dist)
		r.dist = dist
		prev := make([]EdgeID, n)
		copy(prev, r.prevEdge)
		for i := len(r.prevEdge); i < n; i++ {
			prev[i] = InvalidEdge
		}
		r.prevEdge = prev
		stamp := make([]uint64, n)
		copy(stamp, r.stamp)
		r.stamp = stamp
		ban := make([]uint64, n)
		copy(ban, r.nodeBan)
		r.nodeBan = ban
	}
	m := r.g.NumEdges()
	if len(r.edgeBan) < m {
		eban := make([]uint64, m)
		copy(eban, r.edgeBan)
		r.edgeBan = eban
	}
}

// clearBans invalidates all temporary node and edge bans.
func (r *Router) clearBans() { r.banEpoch++ }

func (r *Router) banNode(n NodeID) { r.nodeBan[n] = r.banEpoch }

func (r *Router) banEdge(e EdgeID) { r.edgeBan[e] = r.banEpoch }

func (r *Router) nodeBanned(n NodeID) bool { return r.nodeBan[n] == r.banEpoch }

func (r *Router) edgeBanned(e EdgeID) bool { return r.edgeBan[e] == r.banEpoch }

// ShortestPath returns a minimum-weight path from s to t under w, or
// ok == false if t is unreachable. If s == t the result is the trivial
// zero-length path. Ties between equal-length paths are broken arbitrarily
// but deterministically (by edge insertion order). Under a cancelled
// SetContext context it reports no path without searching; callers must
// re-check the context before trusting a negative.
func (r *Router) ShortestPath(s, t NodeID, w WeightFunc) (Path, bool) {
	return r.ShortestPathAvoiding(s, t, w, nil)
}

// ShortestPathAvoiding returns a minimum-weight s->t path that visits none
// of the avoid nodes. Appearances of s or t themselves in avoid are
// ignored. Cancellation is as for ShortestPath: the context is checked
// once per query, not inside the search.
func (r *Router) ShortestPathAvoiding(s, t NodeID, w WeightFunc, avoid []NodeID) (Path, bool) {
	if r.interrupted() {
		return Path{}, false // cancelled (see SetContext)
	}
	r.grow()
	r.clearBans()
	for _, n := range avoid {
		if n != s && n != t && r.g.validNode(n) {
			r.banNode(n)
		}
	}
	return r.shortest(r.csr(w), s, t, 0, math.Inf(1), nil)
}

// ShortestDist returns the minimum path weight from s to t under w, or
// +Inf if t is unreachable.
func (r *Router) ShortestDist(s, t NodeID, w WeightFunc) float64 {
	p, ok := r.ShortestPath(s, t, w)
	if !ok {
		return math.Inf(1)
	}
	return p.Length
}

func (r *Router) setDist(n NodeID, d float64, via EdgeID) {
	r.dist[n] = d
	r.prevEdge[n] = via
	r.stamp[n] = r.cur
}

func (r *Router) buildPath(s, t NodeID) Path {
	var edges []EdgeID
	for n := t; n != s; {
		e := r.prevEdge[n]
		edges = append(edges, e)
		n = r.g.arcs[e].From
	}
	// Reverse in place.
	for i, j := 0, len(edges)-1; i < j; i, j = i+1, j-1 {
		edges[i], edges[j] = edges[j], edges[i]
	}
	nodes := make([]NodeID, 0, len(edges)+1)
	nodes = append(nodes, s)
	for _, e := range edges {
		nodes = append(nodes, r.g.arcs[e].To)
	}
	return Path{Nodes: nodes, Edges: edges, Length: r.dist[t]}
}

// DistancesFrom runs a full single-source Dijkstra and returns the distance
// from s to every node (+Inf where unreachable). The returned slice is newly
// allocated. Under a cancelled SetContext context the sweep stops early and
// unsettled nodes keep +Inf; callers must re-check the context before
// treating the table as complete.
func (r *Router) DistancesFrom(s NodeID, w WeightFunc) []float64 {
	r.grow()
	r.clearBans()
	return r.distancesFrom(r.csr(w), s)
}
