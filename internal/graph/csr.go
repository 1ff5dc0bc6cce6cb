package graph

import (
	"math"
	"time"
)

// This file is the package's search layer: an immutable CSR (compressed
// sparse row) image of the graph with materialized edge weights, and the
// only shortest-path kernels the package has. Every Router query runs on
// a snapshot — the attached one, or a one-call freeze of the graph under
// the query's WeightFunc — so a relaxation costs four sequential array
// reads instead of two dependent loads and a closure call on the
// adjacency lists. Outputs are bit-identical to the textbook Dijkstra and
// A* kept as a test-only reference (reference_test.go): same relaxation
// order (per-node edge insertion order), same float operations in the
// same order, and a totally-ordered heap so pop order cannot depend on
// heap shape (see heapLess).
//
// Lifecycle: Freeze captures topology and weights at one instant, stamped
// with the graph's generation counter. Adding nodes or edges bumps the
// generation and invalidates the snapshot; the Router transparently
// rebuilds an attached one (same weight function) on the next query.
// Disabling and enabling edges does NOT invalidate anything: the snapshot
// aliases the graph's disabled flags, so attack rounds toggling edges —
// and Yen spur bans, which live in per-router epoch-stamped overlay
// arrays — work against a frozen snapshot with zero rebuilds.

// Snapshot is an immutable flat CSR image of a Graph under one weight
// function. It is safe for any number of concurrent readers (the parallel
// Brandes workers and the sampler's and server's routers share one), as
// long as no edges are concurrently disabled or enabled — the same
// contract concurrent readers of the live Graph already have.
type Snapshot struct {
	g   *Graph
	gen uint64
	wf  WeightFunc

	n int // nodes at freeze time
	m int // edges at freeze time

	// Forward adjacency: slots fwdOff[u]..fwdOff[u+1] hold u's out-edges
	// in edge insertion order (the relaxation order), with the head node,
	// edge ID, and weight materialized per slot.
	fwdOff  []int32
	fwdTo   []int32
	fwdEdge []int32
	fwdW    []float64

	// Reverse adjacency, same layout over in-edges.
	revOff  []int32
	revFrom []int32
	revEdge []int32
	revW    []float64

	// w is the materialized weight per EdgeID (the same values as the
	// per-slot arrays, indexed by edge for path assembly and prefix sums).
	w []float64

	// disabled aliases the graph's disabled flags at freeze time, so
	// DisableEdge/EnableEdge are visible to frozen kernels immediately.
	// AddEdge may reallocate the underlying array, but it also bumps the
	// generation, which invalidates this snapshot first.
	disabled []bool

	// freezeNS is the wall-clock duration of the Freeze pass, surfaced in
	// registry shard stats.
	freezeNS int64
}

// fillCSRSide flattens one direction's adjacency lists into CSR arrays.
// Freeze calls it twice (forward over out-lists with arc heads, reverse
// over in-lists with arc tails). Slot order within a node is list order —
// edge insertion order — which is what keeps kernel outputs bit-identical
// to the reference Dijkstra over the adjacency lists.
func fillCSRSide(lists [][]EdgeID, w []float64, off, node, edge []int32, slotW []float64, endpoint func(Arc) NodeID, arcs []Arc) {
	pos := 0
	for u := range lists {
		off[u] = int32(pos)
		for _, e := range lists[u] {
			edge[pos] = int32(e)
			node[pos] = int32(endpoint(arcs[e]))
			slotW[pos] = w[e]
			pos++
		}
	}
	off[len(lists)] = int32(pos)
}

// Freeze builds a frozen CSR snapshot of g with the weights of w
// materialized. It is an O(V+E) pass; the attack workloads amortize it
// over thousands of shortest-path queries. The weight function must be
// total over all edge IDs (disabled edges included) and must keep
// returning the same values for as long as the snapshot is used — every
// weight model in this repository is a pure table lookup, which
// satisfies both.
func Freeze(g *Graph, w WeightFunc) *Snapshot {
	start := time.Now() //lint:allow wallclock freeze duration feeds shard stats observability, never results
	n, m := g.NumNodes(), g.NumEdges()
	c := &Snapshot{
		g: g, gen: g.gen, wf: w, n: n, m: m,
		fwdOff:  make([]int32, n+1),
		fwdTo:   make([]int32, m),
		fwdEdge: make([]int32, m),
		fwdW:    make([]float64, m),
		revOff:  make([]int32, n+1),
		revFrom: make([]int32, m),
		revEdge: make([]int32, m),
		revW:    make([]float64, m),
		w:       make([]float64, m),
	}
	for e := 0; e < m; e++ {
		c.w[e] = w(EdgeID(e))
	}
	fillCSRSide(g.out[:n], c.w, c.fwdOff, c.fwdTo, c.fwdEdge, c.fwdW, func(a Arc) NodeID { return a.To }, g.arcs)
	fillCSRSide(g.in[:n], c.w, c.revOff, c.revFrom, c.revEdge, c.revW, func(a Arc) NodeID { return a.From }, g.arcs)
	c.disabled = g.disabled
	c.freezeNS = time.Since(start).Nanoseconds() //lint:allow wallclock freeze duration feeds shard stats observability, never results
	return c
}

// FreezeNanos returns the wall-clock nanoseconds the Freeze pass took —
// observability only (healthz shard stats), never part of any result.
func (c *Snapshot) FreezeNanos() int64 { return c.freezeNS }

// Graph returns the graph the snapshot was frozen from.
func (c *Snapshot) Graph() *Graph { return c.g }

// Valid reports whether the snapshot still matches its graph's topology
// (no nodes or edges were added since Freeze). Disabled-edge churn never
// invalidates a snapshot.
func (c *Snapshot) Valid() bool { return c.gen == c.g.gen }

// NumNodes returns the node count at freeze time.
func (c *Snapshot) NumNodes() int { return c.n }

// NumEdges returns the edge count at freeze time.
func (c *Snapshot) NumEdges() int { return c.m }

// Weight returns the materialized weight of edge e.
func (c *Snapshot) Weight(e EdgeID) float64 { return c.w[e] }

// Disabled returns the disabled flags the frozen kernels read: the
// graph's live flags, aliased. Callers must not write them.
func (c *Snapshot) Disabled() []bool { return c.disabled }

// Refresh returns c when it is still valid, or a fresh snapshot of the
// same graph under the same weight function when topology moved on.
func (c *Snapshot) Refresh() *Snapshot {
	if c.Valid() {
		return c
	}
	return Freeze(c.g, c.wf)
}

// Rebind returns a snapshot of g that shares c's CSR arrays and weights
// instead of freezing g again: g must be a clone of c's graph taken while
// c was valid, and w must give g's edges the weights c materialized (it
// is kept only for Refresh). The result observes g's own disabled flags,
// so attacks on the clone never touch c's. Neither snapshot may be
// Reweighted afterwards, since both read the same arrays. Rebind returns
// nil when g's generation or size differs from c's.
func (c *Snapshot) Rebind(g *Graph, w WeightFunc) *Snapshot {
	if g.gen != c.gen || g.NumNodes() != c.n || g.NumEdges() != c.m {
		return nil
	}
	r := *c
	r.g, r.wf, r.disabled, r.freezeNS = g, w, g.disabled, 0
	return &r
}

// Reweight re-reads the weights of the given edges from the snapshot's
// weight function and patches every array that materializes them: the
// per-edge table and the edge's forward and reverse slots. It serves
// callers whose weight function changes on a few known edges between
// queries — incremental traffic assignment re-reads the edges of each
// path it loads — at O(degree) per edge instead of an O(V+E) re-freeze.
//
// Reweight breaks the snapshot's immutability, so it is only for a
// snapshot the caller owns alone: one it froze itself and never shared
// with another router, goroutine, or cache (never a Network.Snapshot, a
// registry snapshot, or a snapshot with a Rebind of it).
func (c *Snapshot) Reweight(edges []EdgeID) { //lint:allow ctxflow O(len(edges) x degree) patch with no search; too short to need a cancellation point
	for _, e := range edges {
		x := c.wf(e)
		c.w[e] = x
		a := c.g.arcs[e]
		for i, end := c.fwdOff[a.From], c.fwdOff[a.From+1]; i < end; i++ {
			if EdgeID(c.fwdEdge[i]) == e {
				c.fwdW[i] = x
				break
			}
		}
		for i, end := c.revOff[a.To], c.revOff[a.To+1]; i < end; i++ {
			if EdgeID(c.revEdge[i]) == e {
				c.revW[i] = x
				break
			}
		}
	}
}

// UseSnapshot attaches a frozen snapshot to the router, so queries reuse
// it instead of freezing the graph per call. The snapshot must have been
// frozen from this router's graph under the SAME weight function the
// caller passes to the query methods — with a snapshot attached the
// materialized weights win, so passing a different WeightFunc is a
// programming error the router cannot detect. A stale snapshot (topology
// changed) is rebuilt transparently on the next query. UseSnapshot(nil)
// detaches; so does attaching a snapshot of another graph, which the
// router ignores.
func (r *Router) UseSnapshot(c *Snapshot) { r.snap = c }

// Snapshot returns the attached snapshot, nil when none.
func (r *Router) Snapshot() *Snapshot { return r.snap }

// csr returns the snapshot a public query runs on: the attached one,
// re-frozen first if topology moved on, or — when none is attached or it
// belongs to another graph — a fresh freeze of the graph under w that
// lives only for this call. Every spur search of a k-shortest query runs
// on that one snapshot; nothing freezes per spur search.
func (r *Router) csr(w WeightFunc) *Snapshot {
	c := r.snap
	if c == nil || c.g != r.g {
		return Freeze(r.g, w)
	}
	if !c.Valid() {
		c = Freeze(r.g, c.wf)
		r.snap = c
	}
	return c
}

// heapItem is a (distance, node) pair in a search priority queue.
type heapItem struct {
	dist float64
	node NodeID
}

// heapLess is the priority order of every search heap: distance, then
// node ID. The node tie-break makes the order total, so ANY correct heap
// pops the same value sequence from the same push sequence. That is what
// keeps the 4-ary kernels bit-identical on tied graphs (lattices tie
// constantly) to the test reference, which runs on container/heap's
// binary heap with the same order.
func heapLess(a, b heapItem) bool {
	if a.dist != b.dist { //lint:allow floateq heap order must be exact: near-ties are distinct priorities, equal bits fall through to the node tie-break
		return a.dist < b.dist
	}
	return a.node < b.node
}

// heap4 is a 4-ary implicit min-heap over heapItem in heapLess order.
// The wider fanout (against a binary heap) halves tree depth,
// which cuts sift-down comparisons on the pop-heavy Dijkstra workloads;
// children of i sit at 4i+1..4i+4, cache-adjacent.
type heap4 []heapItem

// push and pop move a hole through the tree instead of swapping at every
// level (one write per level, not three). The element order produced is
// identical to textbook sift-up/down — the hole follows exactly the path
// the swaps would have taken.
func (h *heap4) push(it heapItem) {
	*h = append(*h, it)
	hh := *h
	i := len(hh) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !heapLess(it, hh[p]) {
			break
		}
		hh[i] = hh[p]
		i = p
	}
	hh[i] = it
}

func (h *heap4) pop() heapItem {
	old := *h
	top := old[0]
	last := len(old) - 1
	*h = old[:last]
	if last == 0 {
		return top
	}
	it := old[last]
	i := 0
	for {
		first := 4*i + 1
		if first >= last {
			break
		}
		small := first
		end := first + 4
		if end > last {
			end = last
		}
		for child := first + 1; child < end; child++ {
			if heapLess(old[child], old[small]) {
				small = child
			}
		}
		if !heapLess(old[small], it) {
			break
		}
		old[i] = old[small]
		i = small
	}
	old[i] = it
	return top
}

// shortest is the point-to-point Dijkstra from s to t on c, honouring
// disabled edges and the router's current node/edge bans. No closure is
// called anywhere in the loop. Callers must have called grow().
//
// With a potential and a finite bound it is also the exclusivity oracle's
// bounded search (Violating): an improving offer to v is always recorded,
// but pushed only when rootLen + d(v) + pot(v) fits the bound with a 1e-9
// relative slack. pot is a lower bound on the distance to t, so a node
// left unpushed lies on no s->t path within the bound, and the search
// returns the plain kernel's path whenever that path fits (DESIGN §14).
// A nil potential or an infinite bound pushes every offer.
func (r *Router) shortest(c *Snapshot, s, t NodeID, rootLen, bound float64, pot *Potential) (Path, bool) {
	if !r.g.validNode(s) || !r.g.validNode(t) {
		return Path{}, false
	}
	if r.nodeBanned(s) || r.nodeBanned(t) {
		return Path{}, false
	}
	var h []float64
	if pot != nil && !math.IsInf(bound, 1) {
		h = pot.h
	}
	lim := bound + 1e-9*bound
	r.cur++
	r.heap = r.heap[:0]
	r.setDist(s, 0, InvalidEdge)
	r.heap.push(heapItem{dist: 0, node: s})
	disabled := c.disabled

	for len(r.heap) > 0 {
		it := r.heap.pop()
		// Early exit the moment t's distance is frontier-minimal: every
		// remaining entry has dist >= it.dist >= dist[t], and non-negative
		// weights mean no relaxation from such a node can strictly improve
		// any node on t's prev chain — so buildPath(s, t) here is the exact
		// path the reference kernel returns when t itself pops (the tied
		// smaller-ID nodes it still expands cannot change the chain).
		if r.stamp[t] == r.cur && r.dist[t] <= it.dist {
			return r.buildPath(s, t), true
		}
		u := it.node
		if it.dist > r.dist[u] || r.stamp[u] != r.cur {
			continue // stale heap entry
		}
		du := it.dist
		for i, end := c.fwdOff[u], c.fwdOff[u+1]; i < end; i++ {
			e := EdgeID(c.fwdEdge[i])
			if disabled[e] || r.edgeBanned(e) {
				continue
			}
			v := NodeID(c.fwdTo[i])
			if r.nodeBanned(v) {
				continue
			}
			nd := du + c.fwdW[i]
			if r.stamp[v] != r.cur || nd < r.dist[v] {
				r.setDist(v, nd, e)
				if h == nil || rootLen+nd+h[v] <= lim {
					r.heap.push(heapItem{dist: nd, node: v})
				}
			}
		}
	}
	return Path{}, false
}

// sealStride is how many forward pops of a spur search pay for one node of
// its sealed-target check. Sealed regions on the paper's cities are a few
// nodes, so a stride of 8 still stops a sealed search within a few dozen
// pops, while the check's reverse steps cost an eighth of the forward
// work on the 98-99% of spur searches that are not sealed.
const sealStride = 8

// shortestAStar is the Yen spur search: a goal-directed A* from s to t on
// c guided by a reverse potential, honouring the current node/edge bans
// and disabled edges. With an exact (hence consistent) potential every
// settled node lies on a near-optimal corridor towards t, so the search
// touches a small fraction of what the goal-blind Dijkstra would. This is
// the hottest loop in the repository: every Yen spur search and every
// exclusivity-oracle query of every attack round lands here.
//
// Nodes the target was unreachable from at potential-computation time
// (h = +Inf) are pruned outright: bans only remove edges, so they cannot
// reach t now either. seal turns on the sealed-target check below; the
// spur searches set it. Callers must have called grow().
func (r *Router) shortestAStar(c *Snapshot, s, t NodeID, pot *Potential, seal bool) (Path, bool) {
	if !r.g.validNode(s) || !r.g.validNode(t) {
		return Path{}, false
	}
	if r.nodeBanned(s) || r.nodeBanned(t) {
		return Path{}, false
	}
	hs := pot.At(s)
	if math.IsInf(hs, 1) {
		return Path{}, false
	}
	r.cur++
	r.heap = r.heap[:0]
	r.setDist(s, 0, InvalidEdge)
	r.heap.push(heapItem{dist: hs, node: s})
	disabled := c.disabled

	// A spur search whose bans seal t off — t's only way in runs through a
	// banned root node or next edge — would settle everything reachable
	// before failing: a whole city when the spur node is the hospital's
	// access intersection. So when seal is set (the Yen spur searches; an
	// unbanned search cannot be sealed off by its own bans), a reverse
	// reachability search from t under the same bans grows one node per
	// sealStride forward pops. If it runs out without meeting s, no path
	// exists and the search stops there; once it meets s it stops. It
	// never touches the forward state, so a path the search returns is
	// unchanged.
	r.growBackward()
	r.curB++
	r.stampB[t] = r.curB
	reach := append(r.reach[:0], t)
	sealed := seal && s != t // t's reverse-reachable set may still exclude s

	for pops := 0; len(r.heap) > 0; pops++ {
		if sealed && pops%sealStride == 0 {
			if len(reach) == 0 {
				r.reach = reach
				return Path{}, false
			}
			x := reach[len(reach)-1]
			reach = reach[:len(reach)-1]
			for i, end := c.revOff[x], c.revOff[x+1]; i < end; i++ {
				e := EdgeID(c.revEdge[i])
				v := NodeID(c.revFrom[i])
				if disabled[e] || r.edgeBanned(e) || r.nodeBanned(v) || r.stampB[v] == r.curB {
					continue
				}
				if v == s {
					sealed = false
					break
				}
				r.stampB[v] = r.curB
				reach = append(reach, v)
			}
		}
		it := r.heap.pop()
		u := it.node
		if r.stamp[u] != r.cur {
			continue
		}
		gu := r.dist[u]
		if it.dist > gu+pot.At(u) {
			continue // stale heap entry
		}
		// Return when t itself pops, not on the Dijkstra kernel's earlier
		// frontier test. In exact arithmetic the potential is consistent,
		// so a node popped at t's f-value could not improve t; in floats
		// h(u) and w + h(v) are sums in different orders, a tied node can
		// reach t an ulp shorter, and only popping t returns the path the
		// reference A* returns.
		if u == t {
			r.reach = reach
			return r.buildPath(s, t), true
		}
		for i, end := c.fwdOff[u], c.fwdOff[u+1]; i < end; i++ {
			e := EdgeID(c.fwdEdge[i])
			if disabled[e] || r.edgeBanned(e) {
				continue
			}
			v := NodeID(c.fwdTo[i])
			if r.nodeBanned(v) {
				continue
			}
			hv := pot.At(v)
			if math.IsInf(hv, 1) {
				continue // v cannot reach t even without bans
			}
			nd := gu + c.fwdW[i]
			if r.stamp[v] != r.cur || nd < r.dist[v] {
				r.setDist(v, nd, e)
				r.heap.push(heapItem{dist: nd + hv, node: v})
			}
		}
	}
	r.reach = reach
	return Path{}, false
}

// distancesFrom is the full single-source sweep behind DistancesFrom.
func (r *Router) distancesFrom(c *Snapshot, s NodeID) []float64 {
	n := r.g.NumNodes()
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Inf(1)
	}
	if !r.g.validNode(s) {
		return out
	}
	r.cur++
	r.heap = r.heap[:0]
	r.setDist(s, 0, InvalidEdge)
	r.heap.push(heapItem{dist: 0, node: s})
	disabled := c.disabled
	for len(r.heap) > 0 {
		if r.interrupted() {
			break // cancelled: unsettled nodes stay +Inf (see SetContext)
		}
		it := r.heap.pop()
		u := it.node
		if it.dist > r.dist[u] || r.stamp[u] != r.cur {
			continue
		}
		out[u] = it.dist
		for i, end := c.fwdOff[u], c.fwdOff[u+1]; i < end; i++ {
			e := EdgeID(c.fwdEdge[i])
			if disabled[e] {
				continue
			}
			v := NodeID(c.fwdTo[i])
			nd := it.dist + c.fwdW[i]
			if r.stamp[v] != r.cur || nd < r.dist[v] {
				r.setDist(v, nd, e)
				r.heap.push(heapItem{dist: nd, node: v})
			}
		}
	}
	return out
}

// reversePotential is the full reverse Dijkstra behind ReversePotential:
// one sweep from t over the rev CSR arrays, on the router's backward
// scratch.
func (r *Router) reversePotential(c *Snapshot, t NodeID) *Potential {
	r.growBackward()
	h := make([]float64, r.g.NumNodes())
	for i := range h {
		h[i] = math.Inf(1)
	}
	pot := &Potential{target: t, h: h}
	if !r.g.validNode(t) {
		return pot
	}
	r.curB++
	r.heapB = r.heapB[:0]
	r.setDistB(t, 0)
	r.heapB.push(heapItem{dist: 0, node: t})
	disabled := c.disabled
	for len(r.heapB) > 0 {
		if r.interrupted() {
			break // cancelled: unsettled nodes stay +Inf (see SetContext)
		}
		it := r.heapB.pop()
		u := it.node
		if it.dist > r.distB[u] || r.stampB[u] != r.curB {
			continue
		}
		h[u] = it.dist
		for i, end := c.revOff[u], c.revOff[u+1]; i < end; i++ {
			e := EdgeID(c.revEdge[i])
			if disabled[e] {
				continue
			}
			v := NodeID(c.revFrom[i])
			nd := it.dist + c.revW[i]
			if r.stampB[v] != r.curB || nd < r.distB[v] {
				r.setDistB(v, nd)
				r.heapB.push(heapItem{dist: nd, node: v})
			}
		}
	}
	return pot
}
