package graph

import (
	"container/heap"
	"context"
	"math"
)

// This file holds the test-only reference search kernels: textbook
// Dijkstra, reverse Dijkstra, the banned-spur A* and serial Brandes, run
// over the adjacency lists (g.out / g.in) with the WeightFunc called per
// relaxation, fresh per-query arrays, and container/heap's binary heap.
// They share no search code with csr.go — no snapshot, no 4-ary heap, no
// frontier-minimal early exit — so the differential suites
// (csr_differential_test.go, yen_differential_test.go,
// betweenness_test.go, csr_race_test.go) check the production kernels
// against an independent oracle. The one convention both sides share is
// the heap order, (dist, node): with a total order any correct heap pops
// the same value sequence, which is what makes the outputs bit-identical
// even on tie-heavy lattices.

// refItem is a (priority, node) pair in the reference priority queue.
type refItem struct {
	dist float64
	node NodeID
}

// refQueue is a container/heap min-queue in (dist, node) order.
type refQueue []refItem

func (q refQueue) Len() int { return len(q) }

func (q refQueue) Less(i, j int) bool {
	if q[i].dist != q[j].dist {
		return q[i].dist < q[j].dist
	}
	return q[i].node < q[j].node
}

func (q refQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }

func (q *refQueue) Push(x any) { *q = append(*q, x.(refItem)) }

func (q *refQueue) Pop() any {
	old := *q
	it := old[len(old)-1]
	*q = old[:len(old)-1]
	return it
}

// refRouter runs the reference kernels on g under w with its own node and
// edge bans (the Yen ban context), cleared by clearBans.
type refRouter struct {
	g       *Graph
	w       WeightFunc
	nodeBan []bool
	edgeBan []bool
}

func newRefRouter(g *Graph, w WeightFunc) *refRouter {
	return &refRouter{g: g, w: w, nodeBan: make([]bool, g.NumNodes()), edgeBan: make([]bool, g.NumEdges())}
}

func (rr *refRouter) clearBans() {
	clear(rr.nodeBan)
	clear(rr.edgeBan)
}

// banYen installs the Yen ban context for spur index i of base: the root
// nodes before the spur node, and the next edge of every accepted path
// sharing base's first i edges.
func (rr *refRouter) banYen(base Path, i int, accepted []Path) {
	rr.clearBans()
	for _, p := range accepted {
		if i < len(p.Edges) && samePrefix(p, base, i) {
			rr.edgeBan[p.Edges[i]] = true
		}
	}
	for j := 0; j < i; j++ {
		rr.nodeBan[base.Nodes[j]] = true
	}
}

// refSearch is the per-query state: tentative distances, the edge each
// node was reached by, and whether it has been reached at all.
type refSearch struct {
	dist    []float64
	prev    []EdgeID
	reached []bool
	q       refQueue
}

func newRefSearch(n int) *refSearch {
	return &refSearch{dist: make([]float64, n), prev: make([]EdgeID, n), reached: make([]bool, n)}
}

func (sr *refSearch) relax(v NodeID, d float64, via EdgeID, prio float64) {
	sr.dist[v] = d
	sr.prev[v] = via
	sr.reached[v] = true
	heap.Push(&sr.q, refItem{dist: prio, node: v})
}

// path walks the prev edges back from t.
func (sr *refSearch) path(g *Graph, s, t NodeID) Path {
	var edges []EdgeID
	for n := t; n != s; n = g.arcs[sr.prev[n]].From {
		edges = append(edges, sr.prev[n])
	}
	for i, j := 0, len(edges)-1; i < j; i, j = i+1, j-1 {
		edges[i], edges[j] = edges[j], edges[i]
	}
	nodes := []NodeID{s}
	for _, e := range edges {
		nodes = append(nodes, g.arcs[e].To)
	}
	return Path{Nodes: nodes, Edges: edges, Length: sr.dist[t]}
}

// shortest is the reference point-to-point Dijkstra under the current
// bans: it returns when t itself pops.
func (rr *refRouter) shortest(s, t NodeID) (Path, bool) {
	g := rr.g
	if !g.validNode(s) || !g.validNode(t) || rr.nodeBan[s] || rr.nodeBan[t] {
		return Path{}, false
	}
	sr := newRefSearch(g.NumNodes())
	sr.relax(s, 0, InvalidEdge, 0)
	for sr.q.Len() > 0 {
		it := heap.Pop(&sr.q).(refItem)
		u := it.node
		if it.dist > sr.dist[u] {
			continue // stale entry
		}
		if u == t {
			return sr.path(g, s, t), true
		}
		for _, e := range g.out[u] {
			if g.disabled[e] || rr.edgeBan[e] {
				continue
			}
			v := g.arcs[e].To
			if rr.nodeBan[v] {
				continue
			}
			if nd := it.dist + rr.w(e); !sr.reached[v] || nd < sr.dist[v] {
				sr.relax(v, nd, e, nd)
			}
		}
	}
	return Path{}, false
}

// spurAStar is the reference banned-spur A*: goal-directed search from s
// to t guided by pot under the current bans, pruning nodes pot says cannot
// reach t, and returning when t pops.
func (rr *refRouter) spurAStar(s, t NodeID, pot *Potential) (Path, bool) {
	g := rr.g
	if !g.validNode(s) || !g.validNode(t) || rr.nodeBan[s] || rr.nodeBan[t] {
		return Path{}, false
	}
	hs := pot.At(s)
	if math.IsInf(hs, 1) {
		return Path{}, false
	}
	sr := newRefSearch(g.NumNodes())
	sr.relax(s, 0, InvalidEdge, hs)
	for sr.q.Len() > 0 {
		it := heap.Pop(&sr.q).(refItem)
		u := it.node
		gu := sr.dist[u]
		if it.dist > gu+pot.At(u) {
			continue // stale entry
		}
		if u == t {
			return sr.path(g, s, t), true
		}
		for _, e := range g.out[u] {
			if g.disabled[e] || rr.edgeBan[e] {
				continue
			}
			v := g.arcs[e].To
			if rr.nodeBan[v] {
				continue
			}
			hv := pot.At(v)
			if math.IsInf(hv, 1) {
				continue
			}
			if nd := gu + rr.w(e); !sr.reached[v] || nd < sr.dist[v] {
				sr.relax(v, nd, e, nd+hv)
			}
		}
	}
	return Path{}, false
}

// sweep is the reference full Dijkstra over enabled edges, bans ignored:
// forward along out-edges from src, or backward along in-edges to src.
// Unreached nodes keep +Inf.
func (rr *refRouter) sweep(src NodeID, backward bool) []float64 {
	g := rr.g
	out := make([]float64, g.NumNodes())
	for i := range out {
		out[i] = math.Inf(1)
	}
	if !g.validNode(src) {
		return out
	}
	sr := newRefSearch(g.NumNodes())
	sr.relax(src, 0, InvalidEdge, 0)
	for sr.q.Len() > 0 {
		it := heap.Pop(&sr.q).(refItem)
		u := it.node
		if it.dist > sr.dist[u] {
			continue
		}
		out[u] = it.dist
		adj, far := g.out[u], func(a Arc) NodeID { return a.To }
		if backward {
			adj, far = g.in[u], func(a Arc) NodeID { return a.From }
		}
		for _, e := range adj {
			if g.disabled[e] {
				continue
			}
			v := far(g.arcs[e])
			if nd := it.dist + rr.w(e); !sr.reached[v] || nd < sr.dist[v] {
				sr.relax(v, nd, e, nd)
			}
		}
	}
	return out
}

func (rr *refRouter) distancesFrom(s NodeID) []float64 { return rr.sweep(s, false) }

func (rr *refRouter) reversePotential(t NodeID) *Potential {
	return &Potential{target: t, h: rr.sweep(t, true)}
}

// refKShortest is eager Yen with Lawler's deviation-index skip over the
// reference kernels: every accepted path's full deviation round runs the
// moment it is accepted, spur results enter a string-keyed seen set in
// spur-index order (the first generator of a path wins), and the best
// candidate by pathLess is accepted next. On tied graphs the choice of
// representatives depends on that control flow, so this (not the seed
// yenReference, which has no Lawler skip) is what KShortest must match
// bit for bit on lattices. A nil or wrong-target pot is computed here.
func refKShortest(g *Graph, w WeightFunc, s, t NodeID, k int, pot *Potential) []Path {
	if k <= 0 {
		return nil
	}
	rr := newRefRouter(g, w)
	if pot == nil || pot.Target() != t {
		pot = rr.reversePotential(t)
	}
	first, ok := rr.spurAStar(s, t, pot)
	if !ok {
		return nil
	}
	accepted := []Path{first}
	devs := []int{0}
	seen := map[string]bool{first.Key(): true}
	var cands refDevHeap
	for len(accepted) < k {
		last := len(accepted) - 1
		rr.spurRound(accepted[last], devs[last], accepted, t, pot, seen, &cands)
		if cands.Len() == 0 {
			break
		}
		best := heap.Pop(&cands).(refDevCand)
		accepted = append(accepted, best.path)
		devs = append(devs, best.dev)
	}
	return accepted
}

// refBestAlternativeWithPotential is the exclusivity oracle over the
// reference kernels: the A* shortest path if it differs from avoid, else
// the best candidate of one full deviation round over avoid.
func refBestAlternativeWithPotential(g *Graph, w WeightFunc, s, t NodeID, avoid Path, pot *Potential) (Path, bool) {
	rr := newRefRouter(g, w)
	if pot == nil || pot.Target() != t {
		pot = rr.reversePotential(t)
	}
	first, ok := rr.spurAStar(s, t, pot)
	if !ok {
		return Path{}, false
	}
	if !first.SameEdges(avoid) {
		return first, true
	}
	seen := map[string]bool{avoid.Key(): true}
	var cands refDevHeap
	rr.spurRound(avoid, 0, []Path{avoid}, t, pot, seen, &cands)
	if cands.Len() == 0 {
		return Path{}, false
	}
	return heap.Pop(&cands).(refDevCand).path, true
}

// refViolating is the exclusivity oracle's reference: the reference best
// alternative, when its length is within bound.
func refViolating(g *Graph, w WeightFunc, s, t NodeID, pstar Path, bound float64, pot *Potential) (Path, bool) {
	alt, ok := refBestAlternativeWithPotential(g, w, s, t, pstar, pot)
	if !ok || alt.Length > bound {
		return Path{}, false
	}
	return alt, true
}

// spurRound is one serial Yen deviation round over base from spur index
// start: every spur search runs, in spur-index order.
func (rr *refRouter) spurRound(base Path, start int, accepted []Path, t NodeID, pot *Potential, seen map[string]bool, cands *refDevHeap) {
	rootLen := 0.0
	for j := 0; j < start; j++ {
		rootLen += rr.w(base.Edges[j])
	}
	for i := start; i < len(base.Edges); i++ {
		rr.banYen(base, i, accepted)
		if spur, ok := rr.spurAStar(base.Nodes[i], t, pot); ok {
			total := concatSpur(base, i, rootLen, spur)
			if key := total.Key(); !seen[key] {
				seen[key] = true
				heap.Push(cands, refDevCand{path: total, dev: i})
			}
		}
		rootLen += rr.w(base.Edges[i])
	}
	rr.clearBans()
}

// refDevCand is a reference Yen candidate with its deviation index.
type refDevCand struct {
	path Path
	dev  int
}

// refDevHeap is a container/heap of candidates in pathLess order.
type refDevHeap []refDevCand

func (h refDevHeap) Len() int           { return len(h) }
func (h refDevHeap) Less(i, j int) bool { return pathLess(h[i].path, h[j].path) }
func (h refDevHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refDevHeap) Push(x any)        { *h = append(*h, x.(refDevCand)) }
func (h *refDevHeap) Pop() any {
	old := *h
	c := old[len(old)-1]
	*h = old[:len(old)-1]
	return c
}

// samePrefix reports whether p and q share their first i edges.
func samePrefix(p, q Path, i int) bool {
	if len(p.Edges) < i || len(q.Edges) < i {
		return false
	}
	for j := 0; j < i; j++ {
		if p.Edges[j] != q.Edges[j] {
			return false
		}
	}
	return true
}

// EdgeBetweenness is the serial Brandes reference for BetweennessParallel
// (same scores, bit for bit, for any worker count).
func EdgeBetweenness(g *Graph, w WeightFunc, opts BetweennessOptions) []float64 {
	score, _ := EdgeBetweennessCtx(context.Background(), g, w, opts)
	return score
}

// EdgeBetweennessCtx is EdgeBetweenness with cooperative cancellation:
// the context is polled once per source tree, and on cancellation the
// partial, unnormalized scores computed so far are returned alongside the
// context's error.
func EdgeBetweennessCtx(ctx context.Context, g *Graph, w WeightFunc, opts BetweennessOptions) ([]float64, error) {
	n := g.NumNodes()
	m := g.NumEdges()
	score := make([]float64, m)
	if n == 0 || m == 0 {
		return score, nil
	}

	sources := opts.Sources
	if sources == nil {
		sources = make([]NodeID, n)
		for i := range sources {
			sources[i] = NodeID(i)
		}
	}

	// Per-source scratch, reused across sources.
	dist := make([]float64, n)
	sigma := make([]float64, n)
	delta := make([]float64, n)
	preds := make([][]EdgeID, n)
	order := make([]NodeID, 0, n)
	var q refQueue
	settled := make([]bool, n)

	for _, s := range sources {
		if err := ctx.Err(); err != nil {
			return score, err
		}
		for i := 0; i < n; i++ {
			dist[i] = math.Inf(1)
			sigma[i] = 0
			delta[i] = 0
			preds[i] = preds[i][:0]
			settled[i] = false
		}
		order = order[:0]
		q = q[:0]

		dist[s] = 0
		sigma[s] = 1
		heap.Push(&q, refItem{dist: 0, node: s})

		for q.Len() > 0 {
			u := heap.Pop(&q).(refItem).node
			if settled[u] {
				continue
			}
			settled[u] = true
			order = append(order, u)
			for _, e := range g.out[u] {
				if g.disabled[e] {
					continue
				}
				v := g.arcs[e].To
				nd := dist[u] + w(e)
				switch {
				case nd < dist[v]:
					dist[v] = nd
					sigma[v] = sigma[u]
					preds[v] = append(preds[v][:0], e)
					heap.Push(&q, refItem{dist: nd, node: v})
				case nd == dist[v] && !settled[v]:
					sigma[v] += sigma[u]
					preds[v] = append(preds[v], e)
				}
			}
		}

		// Dependency accumulation in reverse settle order.
		for i := len(order) - 1; i >= 0; i-- {
			v := order[i]
			for _, e := range preds[v] {
				u := g.arcs[e].From
				c := sigma[u] / sigma[v] * (1 + delta[v])
				score[e] += c
				delta[u] += c
			}
		}
	}

	if opts.Normalize && n > 1 {
		// When sampling, scale the sample up to the full source population
		// before normalizing so sampled and exact runs are comparable.
		scale := float64(n) / float64(len(sources))
		norm := scale / (float64(n) * float64(n-1))
		for i := range score {
			score[i] *= norm
		}
	}
	return score, nil
}
