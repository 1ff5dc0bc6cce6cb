package graph

import (
	"container/heap"
	"math"
)

// The Yen engine layers three optimisations over the textbook algorithm,
// all output-preserving (see yen_differential_test.go and
// FuzzKShortestMatchesReference):
//
//  1. Reverse-potential A*: one reverse Dijkstra from t yields exact
//     distances-to-target h(v); every spur search is then a goal-directed
//     A* with early exit at t. Bans only remove edges, so h stays an
//     admissible — in fact consistent — heuristic across all rounds.
//  2. Lawler's deviation-index skip: spur enumeration for an accepted path
//     starts at the index where it deviated from its parent; deviations
//     before that index were already generated during the parent's round.
//  3. Lazy deviations (Kurz & Mutzel, ISAAC 2016): accepting a path runs
//     none of its spur searches. Each spur index becomes a deferred entry
//     carrying a one-hop lower bound on the candidate it would produce,
//     and a spur search runs only when its bound reaches the best finished
//     candidate (see yenRun.next). At rank 100 on the paper's cities most
//     deferred entries are never searched.
//
// The lazy engine returns the eager engine's paths bit for bit, ties
// included, because a deferred spur is searched under exactly the bans
// the eager round gave it (yenRun.materialize) and a path two spurs
// produce keeps the generator the eager engine ran first (yenRun.offer).

// boundSlack is the relative slack on the pop rule. A deferred bound and a
// finished length sum the same edge weights in different orders, so a
// bound can exceed the length of the very candidate it bounds by a few
// ulps; the slack keeps such a spur searched before any path of that
// length is accepted.
const boundSlack = 1e-9

// KShortest returns up to k loopless (simple) paths from s to t in
// non-decreasing order of weight under w, using Yen's algorithm with
// Lawler's improvement, goal-directed spur searches and lazy deviations.
// The first path is the shortest path. Fewer than k paths are returned
// when the graph does not contain k distinct simple paths.
//
// The paper uses path rank 100 (and 200 for Table X): the alternative route
// p* the attacker forces is the 100th-shortest path, so this routine is the
// workload generator for every experiment.
func (r *Router) KShortest(s, t NodeID, k int, w WeightFunc) []Path {
	return r.KShortestWithPotential(s, t, k, w, nil)
}

// KShortestWithPotential is KShortest with a caller-supplied reverse
// potential, for callers that issue many k-shortest queries against the
// same target (the city-shard registry precomputes one potential per
// hospital destination and reuses it across every request). pot must come
// from ReversePotential(t, w) on this graph in a state whose enabled-edge
// set contained every currently enabled edge — the same contract as
// Violating. A nil or mismatched-target pot is recomputed, making the call
// equivalent to KShortest.
func (r *Router) KShortestWithPotential(s, t NodeID, k int, w WeightFunc, pot *Potential) []Path {
	if k <= 0 {
		return nil
	}
	r.grow()
	r.clearBans()
	c := r.csr(w)
	if pot == nil || pot.Target() != t {
		pot = r.reversePotential(c, t)
	}
	first, ok := r.shortestAStar(c, s, t, pot, false)
	if !ok {
		return nil
	}
	y := newYenRun(r, c, t, pot, first)
	for len(y.accepted) < k {
		if r.interrupted() {
			break // cancelled: return what we have (see SetContext)
		}
		best := y.next()
		if best == nil {
			break
		}
		y.accept(best)
	}
	r.clearBans()
	return y.accepted
}

// yenRun is the state of one lazy Yen enumeration: the accepted paths,
// the prefix tree over them, the finished candidates, and the deferred
// spur searches.
type yenRun struct {
	r   *Router
	c   *Snapshot
	t   NodeID
	pot *Potential

	accepted []Path
	// depth[a][i] is the prefix-tree node of accepted[a]'s first i edges.
	depth [][]int32
	tree  prefixTree

	// seen holds every finished candidate and accepted path by edge
	// sequence (a 64-bit hash keys buckets of exact sequences).
	seen     map[uint64][]*yenCand
	finished candHeap
	deferred spurHeap
}

// yenCand is a finished candidate: a materialized path and its generator,
// the accept index of the base path and the spur index it deviates at.
// The spur index is also Lawler's deviation index for the path's own
// spurs once it is accepted.
type yenCand struct {
	path     Path
	base     int
	dev      int
	dead     bool // superseded by the same path from an earlier generator
	accepted bool
}

// newYenRun starts an enumeration whose first accepted path is first
// (deviation index 0), the shortest path.
func newYenRun(r *Router, c *Snapshot, t NodeID, pot *Potential, first Path) *yenRun {
	cand := &yenCand{path: first}
	y := &yenRun{r: r, c: c, t: t, pot: pot, seen: map[uint64][]*yenCand{hashEdges(first.Edges): {cand}}}
	y.accept(cand)
	return y
}

// next returns the next path to accept, or nil when the enumeration is
// exhausted or cancelled. The pop rule: while the least deferred bound is
// within boundSlack of the best finished length, materialize that spur;
// then the best finished candidate is the eager engine's next accept,
// because every spur still deferred would produce a strictly longer path.
func (y *yenRun) next() *yenCand {
	for {
		best := y.finished.best()
		if len(y.deferred) > 0 && (best == nil || y.deferred[0].bound <= best.path.Length+boundSlack*best.path.Length) {
			if y.r.interrupted() {
				return nil // cancelled (see SetContext)
			}
			y.materialize(y.deferred.pop())
			continue
		}
		if best != nil {
			heap.Pop(&y.finished)
		}
		return best
	}
}

// accept appends cand's path to the accepted list and defers its spur
// searches from Lawler's deviation index on. Each deferred entry carries
// the root length and the bound rootLen + min(w(v,u) + h(u)) over the spur
// node v's out-arcs that the spur search may take: enabled, not a banned
// next edge (a prefix-tree child of the root), and not into a root node.
// The root nodes are banned on the router as the loop walks the path,
// which makes each node test O(1).
func (y *yenRun) accept(cand *yenCand) {
	cand.accepted = true
	a := len(y.accepted)
	base := cand.path
	y.accepted = append(y.accepted, base)
	y.depth = append(y.depth, y.tree.insert(base.Edges))

	r, c, pot := y.r, y.c, y.pot
	r.clearBans()
	rootLen := 0.0
	for j := 0; j < cand.dev; j++ {
		r.banNode(base.Nodes[j])
		rootLen += c.w[base.Edges[j]]
	}
	for i := cand.dev; i < len(base.Edges); i++ {
		v := base.Nodes[i]
		if !math.IsInf(pot.At(v), 1) {
			kids := y.tree.kids[y.depth[a][i]]
			lb := math.Inf(1)
			for slot, end := c.fwdOff[v], c.fwdOff[v+1]; slot < end; slot++ {
				e := EdgeID(c.fwdEdge[slot])
				if c.disabled[e] || kids.has(e) || r.nodeBanned(NodeID(c.fwdTo[slot])) {
					continue
				}
				if x := c.fwdW[slot] + pot.At(NodeID(c.fwdTo[slot])); x < lb {
					lb = x
				}
			}
			if !math.IsInf(lb, 1) {
				y.deferred.push(deferredSpur{bound: rootLen + lb, rootLen: rootLen, base: int32(a), spur: int32(i)})
			}
		}
		r.banNode(v)
		rootLen += c.w[base.Edges[i]]
	}
}

// materialize runs one deferred spur search under the ban context the
// eager engine gave it: the root nodes before the spur node, and the next
// edges of the paths accepted up to and including its base that share
// the base's root. Those are all of the root's prefix-tree children: a
// path accepted after the base with the same root and a new next edge is
// a path this spur search may return, so its length is at least this
// spur's bound, and the pop rule accepts no path while a bound within
// boundSlack of its length is still deferred.
func (y *yenRun) materialize(d deferredSpur) {
	r := y.r
	a, i := int(d.base), int(d.spur)
	base := y.accepted[a]
	r.clearBans()
	for j := 0; j < i; j++ {
		r.banNode(base.Nodes[j])
	}
	for _, k := range y.tree.kids[y.depth[a][i]] {
		r.banEdge(k.edge)
	}
	if spur, ok := r.shortestAStar(y.c, base.Nodes[i], y.t, y.pot, true); ok {
		y.offer(&yenCand{path: concatSpur(base, i, d.rootLen, spur), base: a, dev: i})
	}
}

// offer adds a materialized candidate unless its path is already known.
// Two spurs can produce the same path, in either order. The eager engine
// keeps the one it ran first — the smaller (base, spur index) — and both
// its Length bits (the root and spur sums split at the spur index) and its
// deviation index depend on which, so an earlier generator replaces a
// later one here. An accepted path is never replaced: every spur that
// could produce it had a bound within slack of its length and was
// materialized before it was accepted.
func (y *yenRun) offer(cand *yenCand) {
	h := hashEdges(cand.path.Edges)
	bucket := y.seen[h]
	for idx, have := range bucket {
		if !edgesEqual(have.path.Edges, cand.path.Edges) {
			continue
		}
		if have.accepted || have.base < cand.base || have.base == cand.base && have.dev < cand.dev {
			return
		}
		have.dead = true
		bucket[idx] = cand
		heap.Push(&y.finished, cand)
		return
	}
	y.seen[h] = append(bucket, cand)
	heap.Push(&y.finished, cand)
}

// prefixTree is a trie over the accepted paths' edge sequences. The
// children of the node for a root prefix are the next edges of every
// accepted path sharing that root — Yen's banned edges for a spur there.
type prefixTree struct {
	kids []trieKids // per node; node 0 is the empty prefix
}

type trieKid struct {
	edge EdgeID
	node int32
}

type trieKids []trieKid

// has reports whether e is one of the children.
func (ks trieKids) has(e EdgeID) bool {
	for _, k := range ks {
		if k.edge == e {
			return true
		}
	}
	return false
}

// insert adds an accepted path and returns its node at every depth
// (len(edges)+1 entries, the root first).
func (pt *prefixTree) insert(edges []EdgeID) []int32 {
	if len(pt.kids) == 0 {
		pt.kids = append(pt.kids, nil)
	}
	nodes := make([]int32, len(edges)+1)
	cur := int32(0)
	for j, e := range edges {
		next := int32(-1)
		for _, k := range pt.kids[cur] {
			if k.edge == e {
				next = k.node
				break
			}
		}
		if next < 0 {
			next = int32(len(pt.kids))
			pt.kids = append(pt.kids, nil)
			pt.kids[cur] = append(pt.kids[cur], trieKid{edge: e, node: next})
		}
		cur = next
		nodes[j+1] = cur
	}
	return nodes
}

// deferredSpur is a spur search not yet run: spur index spur of accepted
// path base, with the root length and the lower bound on its candidate.
type deferredSpur struct {
	bound   float64
	rootLen float64
	base    int32
	spur    int32
}

func (a deferredSpur) less(b deferredSpur) bool {
	if a.bound != b.bound { //lint:allow floateq heap order must be exact; equal bounds fall through to the generator tie-break
		return a.bound < b.bound
	}
	if a.base != b.base {
		return a.base < b.base
	}
	return a.spur < b.spur
}

// spurHeap is a binary min-heap of deferred spurs in bound order.
type spurHeap []deferredSpur

func (h *spurHeap) push(d deferredSpur) {
	*h = append(*h, d)
	s := *h
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !d.less(s[p]) {
			break
		}
		s[i] = s[p]
		i = p
	}
	s[i] = d
}

func (h *spurHeap) pop() deferredSpur {
	s := *h
	top := s[0]
	last := len(s) - 1
	d := s[last]
	s = s[:last]
	*h = s
	if last == 0 {
		return top
	}
	i := 0
	for {
		c := 2*i + 1
		if c >= last {
			break
		}
		if c+1 < last && s[c+1].less(s[c]) {
			c++
		}
		if !s[c].less(d) {
			break
		}
		s[i] = s[c]
		i = c
	}
	s[i] = d
	return top
}

// concatSpur joins base's first i edges (with precomputed weight rootLen)
// to spur, which starts at base.Nodes[i].
func concatSpur(base Path, i int, rootLen float64, spur Path) Path {
	nodes := make([]NodeID, 0, i+len(spur.Nodes))
	nodes = append(nodes, base.Nodes[:i]...)
	nodes = append(nodes, spur.Nodes...)
	edges := make([]EdgeID, 0, i+len(spur.Edges))
	edges = append(edges, base.Edges[:i]...)
	edges = append(edges, spur.Edges...)
	return Path{Nodes: nodes, Edges: edges, Length: rootLen + spur.Length}
}

func edgesEqual(a, b []EdgeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i, e := range a {
		if b[i] != e {
			return false
		}
	}
	return true
}

// candHeap orders finished candidates by pathLess, so results are
// deterministic across runs. Superseded entries stay in the heap, marked
// dead, and are dropped when they surface.
type candHeap []*yenCand

// best returns the least live candidate without removing it, nil when
// none is left.
func (h *candHeap) best() *yenCand {
	for len(*h) > 0 && (*h)[0].dead {
		heap.Pop(h)
	}
	if len(*h) == 0 {
		return nil
	}
	return (*h)[0]
}

func (h candHeap) Len() int { return len(h) }

func (h candHeap) Less(i, j int) bool { return pathLess(h[i].path, h[j].path) }

// pathLess is the deterministic candidate order: length, then hop count,
// then lexicographic edge sequence.
func pathLess(a, b Path) bool {
	if a.Length != b.Length { //lint:allow floateq the deterministic path order relies on exact length bits; near-ties are resolved structurally below
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

func (h candHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }

func (h *candHeap) Push(x any) { *h = append(*h, x.(*yenCand)) }

func (h *candHeap) Pop() any {
	old := *h
	n := len(old)
	p := old[n-1]
	*h = old[:n-1]
	return p
}
