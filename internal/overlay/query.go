package overlay

import (
	"context"
	"math"

	"altroute/internal/graph"
)

// bitem and bheap replicate the frozen kernels' heap exactly: the same
// (distance, node) total order and the same 4-ary hole-moving layout.
// The total order is what makes pop sequences — and therefore outputs —
// independent of heap implementation, so the corridor kernel inherits
// the frozen kernels' bit-identity guarantee.
type bitem struct {
	dist float64
	node int32
}

func bless(a, b bitem) bool {
	if a.dist != b.dist { //lint:allow floateq heap order must be exact: near-ties are distinct priorities, equal bits fall through to the node tie-break
		return a.dist < b.dist
	}
	return a.node < b.node
}

type bheap []bitem

func (h *bheap) push(it bitem) {
	*h = append(*h, it)
	hh := *h
	i := len(hh) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !bless(it, hh[p]) {
			break
		}
		hh[i] = hh[p]
		i = p
	}
	hh[i] = it
}

func (h *bheap) pop() bitem {
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
			if bless(old[child], old[small]) {
				small = child
			}
		}
		if !bless(old[small], it) {
			break
		}
		old[i] = old[small]
		i = small
	}
	old[i] = it
	return top
}

// TargetLabels caches one target's backward overlay labels: for every
// global boundary index, the exact distance to the target under the
// disabled state the labels were built in; per cell, the minimum label
// (the corridor lower bound). Labels stay valid LOWER bounds under any
// further edge disables or Yen bans (removals only lengthen distances),
// which is why one build per attack serves every round of cuts. Edge
// RE-enables break that monotonicity: rebuild labels (or restore the
// disabled state and customize) before trusting them again.
type TargetLabels struct {
	target graph.NodeID
	tcell  int32     // -1 when the target is invalid
	label  []float64 // per global boundary index: dist(b -> target)
	// pot is the boundary labels completed to every node through its
	// cell's interior: the exact dist(v -> target) at build time, and a
	// valid lower bound under any further disables — a reverse potential,
	// obtained from the overlay instead of a full reverse Dijkstra. It is
	// both the corridor pruning bound and the exact upper bound queries
	// seed their cutoff with.
	pot []float64
}

// Querier runs overlay-accelerated point-to-point queries and oracle
// checks over one Metric. It owns epoch-stamped scratch arrays exactly
// like graph.Router, so creating one is cheap relative to queries but
// not free; reuse it across queries. Not safe for concurrent use —
// create one Querier per goroutine (they may share the Metric).
type Querier struct {
	m   *Metric
	ov  *Overlay
	csr graph.CSRView
	ctx context.Context

	// Corridor scratch (node-indexed, epoch-stamped).
	dist  []float64
	prevE []int32
	stamp []uint64
	cur   uint64
	h     bheap

	// Restricted within-cell scratch (node-indexed, epoch-stamped).
	rdist  []float64
	rstamp []uint64
	rcur   uint64
	rh     bheap

	// Yen spur bans (epoch-stamped, mirroring graph.Router).
	nodeBan  []uint64
	edgeBan  []uint64
	banEpoch uint64
}

// NewQuerier returns a Querier over m.
func NewQuerier(m *Metric) *Querier {
	n := m.ov.csr.N
	return &Querier{
		m:   m,
		ov:  m.ov,
		csr: m.ov.csr,
		// Epoch 1 so the zero-filled ban arrays start with nothing
		// banned; epoch 0 would read every node and edge as banned.
		banEpoch: 1,
		dist:     make([]float64, n),
		prevE:    make([]int32, n),
		stamp:    make([]uint64, n),
		rdist:    make([]float64, n),
		rstamp:   make([]uint64, n),
		nodeBan:  make([]uint64, n),
		edgeBan:  make([]uint64, m.ov.csr.M),
	}
}

// SetContext attaches a cancellation context checked at query
// boundaries and inside label sweeps. A cancelled query reports "no
// path" — the same contract as graph.Router.SetContext.
func (q *Querier) SetContext(ctx context.Context) { q.ctx = ctx }

// Metric returns the metric q queries.
func (q *Querier) Metric() *Metric { return q.m }

func (q *Querier) interrupted() bool {
	return q.ctx != nil && q.ctx.Err() != nil
}

func (q *Querier) clearBans() { q.banEpoch++ }

func (q *Querier) banNode(v graph.NodeID) { q.nodeBan[v] = q.banEpoch }

func (q *Querier) banEdge(e graph.EdgeID) { q.edgeBan[e] = q.banEpoch }

func (q *Querier) nodeBanned(v graph.NodeID) bool { return q.nodeBan[v] == q.banEpoch }

func (q *Querier) edgeBanned(e graph.EdgeID) bool { return q.edgeBan[e] == q.banEpoch }

func (q *Querier) valid(v graph.NodeID) bool { return v >= 0 && int(v) < q.csr.N }

// BuildTargetLabels computes backward overlay labels for t under the
// current disabled state: a reverse restricted Dijkstra inside t's cell
// seeds the boundary labels, then a reverse Dijkstra over clique arcs
// and cross-cell arcs (honouring live disabled flags) runs to
// exhaustion. Cost is O(B log B + Σk²) over boundary nodes — paid once
// per target and amortized over every query and oracle round against
// it. Cancelling mid-sweep leaves some labels +Inf, which makes
// dependent queries report "no path" (the cancelled-query contract).
//
// Builds at the metric's base state (the disabled flags NewMetric saw)
// are served from and stored into the metric's label cache: base labels
// are exact for that state forever, so every attack run against a
// destination after the first reuses them for free.
func (q *Querier) BuildTargetLabels(t graph.NodeID) *TargetLabels {
	m := q.m
	m.ensureSettled()
	m.mu.RLock()
	base := m.atBaseLocked()
	if base {
		if tl := m.tlCache[t]; tl != nil {
			m.mu.RUnlock()
			return tl
		}
	}
	tl := q.buildTargetLabelsLocked(t)
	m.mu.RUnlock()
	// Cache only complete base-state builds: a cancelled sweep leaves
	// +Inf holes that must not outlive this query.
	if base && !q.interrupted() {
		m.mu.Lock()
		if len(m.tlCache) >= tlCacheMax {
			// Evict one arbitrary entry: the cache exists for the few
			// hot destinations attack loops hammer, not to index every
			// target a query server is ever asked about.
			for old := range m.tlCache {
				delete(m.tlCache, old)
				break
			}
		}
		m.tlCache[t] = tl
		m.mu.Unlock()
	}
	return tl
}

// tlCacheMax bounds the per-metric base-state label cache. Labels cost
// O(N) memory each; a few dozen covers every destination an experiment
// sweep or attack campaign touches while keeping a long-lived server's
// footprint bounded.
const tlCacheMax = 64

func (q *Querier) buildTargetLabelsLocked(t graph.NodeID) *TargetLabels {
	ov := q.ov
	tl := &TargetLabels{target: t, tcell: -1}
	tl.label = make([]float64, ov.nb)
	for i := range tl.label {
		tl.label[i] = math.Inf(1)
	}
	tl.pot = make([]float64, q.csr.N)
	for i := range tl.pot {
		tl.pot[i] = math.Inf(1)
	}
	if !q.valid(t) {
		return tl
	}
	tc := ov.cell[t]
	tl.tcell = tc

	// Seed: exact distances from each of t's cell's boundary nodes to t
	// through the cell interior (reverse restricted Dijkstra from t).
	q.restrictedReverse(t, tc)
	for gb := ov.cellBOff[tc]; gb < ov.cellBOff[tc+1]; gb++ {
		if v := ov.bNode[gb]; q.rstamp[v] == q.rcur {
			tl.label[gb] = q.rdist[v]
		}
	}

	// Sweep the boundary graph backwards to exhaustion. tl.label doubles
	// as the distance array (fresh, all +Inf): lazy-deletion Dijkstra.
	bh := q.rh[:0]
	for gb := ov.cellBOff[tc]; gb < ov.cellBOff[tc+1]; gb++ {
		if d := tl.label[gb]; !math.IsInf(d, 1) {
			bh.push(bitem{dist: d, node: gb})
		}
	}
	disabled := q.csr.Disabled
	cancelled := false
	for len(bh) > 0 {
		if q.interrupted() {
			cancelled = true // unsettled labels stay +Inf: dependent queries report no path
			break
		}
		it := bh.pop()
		gb := it.node
		if it.dist > tl.label[gb] {
			continue // stale
		}
		// Reverse cross arcs: predecessors in other cells.
		for i, end := ov.rxOff[gb], ov.rxOff[gb+1]; i < end; i++ {
			if disabled[ov.rxEdge[i]] {
				continue
			}
			p := ov.rxFrom[i]
			if nd := it.dist + ov.rxW[i]; nd < tl.label[p] {
				tl.label[p] = nd
				bh.push(bitem{dist: nd, node: p})
			}
		}
		// Reverse clique arcs: other boundaries of gb's own cell.
		c := ov.cell[ov.bNode[gb]]
		b0 := ov.cellBOff[c]
		k := int32(ov.boundaryCount(c))
		j := int64(gb - b0)
		base := q.m.cliqueOff[c]
		for i := int32(0); i < k; i++ {
			w := q.m.clique[base+int64(i)*int64(k)+j]
			if math.IsInf(w, 1) {
				continue
			}
			p := b0 + i
			if nd := it.dist + w; nd < tl.label[p] {
				tl.label[p] = nd
				bh.push(bitem{dist: nd, node: p})
			}
		}
	}
	q.rh = bh[:0]

	if !cancelled {
		q.completePotential(tl)
	}
	return tl
}

// completePotential extends the boundary labels to a per-node reverse
// potential: for every node v, dist(v -> target) at build time. Any
// shortest v->target path decomposes at the first boundary node where it
// leaves v's cell, so a per-cell multi-source reverse Dijkstra seeded
// with (boundary, label) pairs — plus (target, 0) in the target's cell —
// completes the labels exactly. Cells are disjoint, so one pass with
// tiny heaps costs about one graph sweep. Cancelling mid-pass leaves
// remaining nodes at +Inf: dependent queries report "no path" (the
// cancelled-query contract), never a wrong one.
func (q *Querier) completePotential(tl *TargetLabels) {
	ov := q.ov
	csr := q.csr
	pot := tl.pot
	h := q.rh[:0]
	for c := int32(0); int(c) < ov.numCells; c++ {
		if q.interrupted() {
			break
		}
		h = h[:0]
		for gb := ov.cellBOff[c]; gb < ov.cellBOff[c+1]; gb++ {
			if d := tl.label[gb]; !math.IsInf(d, 1) {
				b := ov.bNode[gb]
				if d < pot[b] {
					pot[b] = d
					h.push(bitem{dist: d, node: b})
				}
			}
		}
		if c == tl.tcell && pot[tl.target] > 0 {
			pot[tl.target] = 0
			h.push(bitem{dist: 0, node: int32(tl.target)})
		}
		for len(h) > 0 {
			it := h.pop()
			if it.dist > pot[it.node] {
				continue // stale
			}
			for i, end := csr.RevOff[it.node], csr.RevOff[it.node+1]; i < end; i++ {
				if csr.Disabled[csr.RevEdge[i]] {
					continue
				}
				v := csr.RevFrom[i]
				if ov.cell[v] != c {
					continue
				}
				if nd := it.dist + csr.RevW[i]; nd < pot[v] {
					pot[v] = nd
					h.push(bitem{dist: nd, node: v})
				}
			}
		}
	}
	q.rh = h[:0]
}

// restrictedReverse runs a reverse Dijkstra from t relaxing only arcs
// whose tail stays inside cell c, honouring disabled flags. Results land
// in the r* scratch under epoch q.rcur.
func (q *Querier) restrictedReverse(t graph.NodeID, c int32) {
	csr := q.csr
	ov := q.ov
	q.rcur++
	h := q.rh[:0]
	q.rdist[t] = 0
	q.rstamp[t] = q.rcur
	h.push(bitem{dist: 0, node: int32(t)})
	for len(h) > 0 {
		it := h.pop()
		u := it.node
		if it.dist > q.rdist[u] || q.rstamp[u] != q.rcur {
			continue
		}
		du := it.dist
		for i, end := csr.RevOff[u], csr.RevOff[u+1]; i < end; i++ {
			if csr.Disabled[csr.RevEdge[i]] {
				continue
			}
			v := csr.RevFrom[i]
			if ov.cell[v] != c {
				continue
			}
			nd := du + csr.RevW[i]
			if q.rstamp[v] != q.rcur || nd < q.rdist[v] {
				q.rdist[v] = nd
				q.rstamp[v] = q.rcur
				h.push(bitem{dist: nd, node: v})
			}
		}
	}
	q.rh = h
}

// Query computes the exact shortest path s -> t, building target labels
// on the fly. When issuing many queries against one target (the oracle
// does), build the labels once and call QueryTo.
func (q *Querier) Query(s, t graph.NodeID) (graph.Path, bool) {
	return q.QueryTo(s, q.BuildTargetLabels(t))
}

// QueryTo computes the exact shortest path from s to tl's target. The
// result is bit-identical to the frozen Dijkstra kernel
// (Router.ShortestPath with a snapshot attached): the corridor search IS
// that kernel, with offers that provably cannot beat the known upper
// bound recorded but not pushed. REQUIRES the metric to be customized to
// the current disabled state and tl built under a state whose enabled
// set is a superset of the current one (labels must be lower bounds).
func (q *Querier) QueryTo(s graph.NodeID, tl *TargetLabels) (graph.Path, bool) {
	if q.interrupted() {
		return graph.Path{}, false
	}
	q.m.ensureSettled()
	q.m.mu.RLock()
	defer q.m.mu.RUnlock()
	if !q.valid(s) || tl == nil || tl.tcell < 0 || !q.valid(tl.target) {
		return graph.Path{}, false
	}
	u := tl.pot[s]
	if math.IsInf(u, 1) {
		// Unreachable, definitively: +Inf means s could not reach the
		// target even at build time, and disables only remove paths.
		return graph.Path{}, false
	}
	if p, ok := q.corridor(s, tl.target, tl, 0, u); ok {
		return p, true
	}
	// Labels built before cuts under-estimate u (they are lower bounds,
	// not upper bounds, once edges disappear), so the bounded pass can
	// come up empty on a reachable target. The unbounded pass degrades
	// to the plain frozen kernel — every offer passes the +Inf cutoff —
	// and stays bit-exact.
	return q.corridor(s, tl.target, tl, 0, math.Inf(1))
}

// corridor is the frozen Dijkstra kernel with lower-bound pruning: the
// exact relaxation loop of Router.shortestCSR — same CSR slot order,
// same float operations, same heap order, same early exit, same ban and
// disabled checks — except that an improving offer to v is pushed only
// when rootLen + dist(v) + pot(v) can still beat the slacked cutoff.
// The offer's distance and prev-edge are ALWAYS recorded, so a stale
// heap entry for v can never re-relax an outdated distance (the
// recorded-but-unpushed rule; see DESIGN.md §14 for why pruned runs
// settle every corridor node at identical bits). Returns the shortest
// path from s whose total rootLen + length fits the slacked cutoff,
// false when none exists (or the search was pre-empted by bans on s/t).
func (q *Querier) corridor(s, t graph.NodeID, tl *TargetLabels, rootLen, cutoff float64) (graph.Path, bool) {
	if q.nodeBanned(s) || q.nodeBanned(t) {
		return graph.Path{}, false
	}
	// The slack mirrors graph.spurBound: candidates a hair over the bound
	// survive float noise here and are re-judged exactly by the caller.
	lim := cutoff + 1e-9*cutoff
	csr := q.csr
	pot := tl.pot
	q.cur++
	h := q.h[:0]
	q.dist[s] = 0
	q.prevE[s] = int32(graph.InvalidEdge)
	q.stamp[s] = q.cur
	h.push(bitem{dist: 0, node: int32(s)})
	disabled := csr.Disabled

	for len(h) > 0 {
		it := h.pop()
		if q.stamp[t] == q.cur && q.dist[t] <= it.dist {
			q.h = h
			return q.buildPath(s, t), true
		}
		u := it.node
		if it.dist > q.dist[u] || q.stamp[u] != q.cur {
			continue // stale heap entry
		}
		du := it.dist
		for i, end := csr.FwdOff[u], csr.FwdOff[u+1]; i < end; i++ {
			e := graph.EdgeID(csr.FwdEdge[i])
			if disabled[e] || q.edgeBanned(e) {
				continue
			}
			v := graph.NodeID(csr.FwdTo[i])
			if q.nodeBanned(v) {
				continue
			}
			nd := du + csr.FwdW[i]
			if q.stamp[v] != q.cur || nd < q.dist[v] {
				q.dist[v] = nd
				q.prevE[v] = csr.FwdEdge[i]
				q.stamp[v] = q.cur
				if rootLen+nd+pot[v] <= lim {
					h.push(bitem{dist: nd, node: int32(v)})
				}
			}
		}
	}
	q.h = h
	return graph.Path{}, false
}

// buildPath reconstructs the corridor search's path from the prev-edge
// chain, exactly as Router.buildPath does: Length carries dist[t]'s
// exact bits.
func (q *Querier) buildPath(s, t graph.NodeID) graph.Path {
	var edges []graph.EdgeID
	for n := t; n != s; {
		e := graph.EdgeID(q.prevE[n])
		edges = append(edges, e)
		n = q.edgeFrom(e)
	}
	for i, j := 0, len(edges)-1; i < j; i, j = i+1, j-1 {
		edges[i], edges[j] = edges[j], edges[i]
	}
	nodes := make([]graph.NodeID, 0, len(edges)+1)
	nodes = append(nodes, s)
	n := s
	for _, e := range edges {
		n = q.edgeTo(e)
		nodes = append(nodes, n)
	}
	return graph.Path{Nodes: nodes, Edges: edges, Length: q.dist[t]}
}

// edgeFrom/edgeTo resolve an edge's endpoints from the snapshot's graph
// (same source of truth as Router.buildPath).
func (q *Querier) edgeFrom(e graph.EdgeID) graph.NodeID {
	return q.ov.snap.Graph().Arc(e).From
}

func (q *Querier) edgeTo(e graph.EdgeID) graph.NodeID {
	return q.ov.snap.Graph().Arc(e).To
}
