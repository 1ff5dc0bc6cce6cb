package graph

import (
	"container/heap"
	"math"
	"runtime"
	"sync"
)

// The Yen engine layers four optimisations over the textbook algorithm,
// all output-preserving (see yen_differential_test.go):
//
//  1. Reverse-potential A*: one reverse Dijkstra from t yields exact
//     distances-to-target h(v); every spur search is then a goal-directed
//     A* with early exit at t. Bans only remove edges, so h stays an
//     admissible — in fact consistent — heuristic across all rounds.
//  2. Lawler's deviation-index skip: spur enumeration for an accepted path
//     starts at the index where it deviated from its parent; deviations
//     before that index were already generated during the parent's round.
//  3. Parallel spur fan-out: within a round, spur searches are distributed
//     over a pool of per-goroutine Routers sharing the query's read-only
//     snapshot (bans and scratch arrays are router-local). Results are merged
//     serially in spur-index order, so output is identical to a serial run.
//  4. Candidate-count bound: once k-1 candidates at or below length X have
//     ever been generated, no candidate strictly longer than X can still be
//     accepted, so spur searches provably above X are skipped outright or
//     abandoned the moment their frontier passes it (see spurBound).

// Spur fan-out tuning: the default worker count is GOMAXPROCS capped at
// maxSpurWorkers, and rounds with fewer than minParallelSpurs spur nodes
// run serially (goroutine dispatch would cost more than it saves).
const (
	maxSpurWorkers   = 8
	minParallelSpurs = 4
)

// SetSpurWorkers sets the number of goroutines KShortest and
// BestAlternative spread spur searches across. n == 1 forces serial
// operation; n <= 0 restores the default (GOMAXPROCS capped at 8). Spur
// workers read weights only from the query's snapshot, never from the
// WeightFunc, so the WeightFunc need not be safe for concurrent calls.
func (r *Router) SetSpurWorkers(n int) { r.spurWorkers = n }

// spurParallelism returns the worker count for a round with the given
// number of spur searches.
func (r *Router) spurParallelism(tasks int) int {
	if tasks < minParallelSpurs {
		return 1
	}
	workers := r.spurWorkers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
		if workers > maxSpurWorkers {
			workers = maxSpurWorkers
		}
	}
	if workers > tasks {
		workers = tasks
	}
	return workers
}

// spurBound tracks the k-1 smallest candidate lengths ever pushed onto the
// candidate heap (a bounded max-heap), where k-1 is the number of accepts
// that can still come from candidates. Once full, its max X is a proof
// obligation killer: a candidate strictly longer than X can never be
// accepted — at the moment it would be popped, at least k-1 strictly
// shorter candidates must each have consumed one of the at most k-1
// accept-pops first. Spur searches whose best possible completion already
// exceeds cutoff() are therefore skipped or abandoned without changing the
// returned top-k. The cutoff carries a relative slack of 1e-9 so that
// ulp-level differences between a frontier f-value and the eventually
// materialized candidate length can never prune a candidate at exactly X.
type spurBound struct {
	limit int
	h     []float64 // max-heap of the limit smallest lengths seen
}

// add records one pushed candidate length.
func (b *spurBound) add(l float64) {
	if b.limit <= 0 {
		return
	}
	if len(b.h) < b.limit {
		b.h = append(b.h, l)
		for i := len(b.h) - 1; i > 0; {
			p := (i - 1) / 2
			if b.h[p] >= b.h[i] {
				break
			}
			b.h[p], b.h[i] = b.h[i], b.h[p]
			i = p
		}
		return
	}
	if l >= b.h[0] {
		return
	}
	b.h[0] = l
	for i := 0; ; {
		c := 2*i + 1
		if c >= len(b.h) {
			break
		}
		if c+1 < len(b.h) && b.h[c+1] > b.h[c] {
			c++
		}
		if b.h[i] >= b.h[c] {
			break
		}
		b.h[i], b.h[c] = b.h[c], b.h[i]
		i = c
	}
}

// cutoff returns the pruning threshold for the next round: +Inf while
// fewer than limit candidates exist (nothing may be pruned yet), else the
// limit-th smallest length with relative slack.
func (b *spurBound) cutoff() float64 {
	if b.limit <= 0 || len(b.h) < b.limit {
		return math.Inf(1)
	}
	x := b.h[0]
	return x + 1e-9*x
}

// spurRouter returns the i-th pool router, creating and growing it lazily.
// Pool routers share r's graph; the coordinator hands them the query's
// snapshot with each spur search (it is immutable while the round runs).
// Everything mutable — bans, scratch, heaps — is per-router.
func (r *Router) spurRouter(i int) *Router {
	for len(r.spurPool) <= i {
		r.spurPool = append(r.spurPool, NewRouter(r.g))
	}
	wr := r.spurPool[i]
	wr.grow()
	return wr
}

// KShortest returns up to k loopless (simple) paths from s to t in
// non-decreasing order of weight under w, using Yen's algorithm with
// Lawler's improvement, goal-directed spur searches, and an optional
// parallel spur fan-out (see SetSpurWorkers). The first path is the
// shortest path. Fewer than k paths are returned when the graph does not
// contain k distinct simple paths.
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
// BestAlternativeWithPotential. A nil or mismatched-target pot is
// recomputed, making the call equivalent to KShortest.
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
	return r.kShortest(c, s, t, k, pot)
}

// kShortest is the Yen engine behind KShortest and KShortestWithPotential.
// Bans are already cleared and scratch arrays grown; pot is a valid
// reverse potential for t under c's weights.
func (r *Router) kShortest(c *Snapshot, s, t NodeID, k int, pot *Potential) []Path {
	first, ok := r.shortestAStar(c, s, t, pot, 0, math.Inf(1))
	if !ok {
		return nil
	}
	accepted := []Path{first}
	devs := []int{0}
	seen := pathSet{}
	seen.add(first.Edges)
	var cands candidateHeap
	// k-1 accepts beyond the first path can come from candidates; the
	// bound's cutoff is re-read once per round so serial and parallel
	// rounds prune identically.
	bnd := &spurBound{limit: k - 1}

	for len(accepted) < k {
		if r.interrupted() {
			break // cancelled: return what we have (see SetContext)
		}
		last := len(accepted) - 1
		r.spurCandidates(c, accepted[last], devs[last], accepted, t, pot, seen, &cands, bnd)
		if cands.Len() == 0 {
			break
		}
		best := heap.Pop(&cands).(candidate)
		accepted = append(accepted, best.path)
		devs = append(devs, best.dev)
	}
	return accepted
}

// BestAlternative returns the minimum-weight s->t path whose edge sequence
// differs from avoid, or ok == false when no such path exists. When the
// overall shortest path already differs from avoid it is returned directly;
// otherwise a single Yen deviation round over avoid finds the best
// second path.
//
// This is the attack algorithms' exclusivity oracle: p* is the exclusive
// shortest path iff BestAlternative(s, t, w, p*) has Length > p*.Length.
func (r *Router) BestAlternative(s, t NodeID, w WeightFunc, avoid Path) (Path, bool) {
	return r.BestAlternativeWithPotential(s, t, w, avoid, nil)
}

// BestAlternativeWithPotential is BestAlternative with a caller-supplied
// reverse potential, for callers that issue many oracle queries against the
// same target. pot must come from ReversePotential(t, w) on this graph in a
// state whose enabled-edge set contained every currently enabled edge —
// edges may have been disabled since it was computed, but not enabled. The
// attack loops exploit exactly this: they compute the potential once on the
// unmodified graph and reuse it while candidate cuts are applied, because
// cuts only disable edges. A nil or mismatched-target pot is recomputed.
func (r *Router) BestAlternativeWithPotential(s, t NodeID, w WeightFunc, avoid Path, pot *Potential) (Path, bool) {
	r.grow()
	r.clearBans()
	c := r.csr(w)
	if pot == nil || pot.Target() != t {
		pot = r.reversePotential(c, t)
	}
	first, ok := r.shortestAStar(c, s, t, pot, 0, math.Inf(1))
	if !ok {
		return Path{}, false
	}
	if !first.SameEdges(avoid) {
		return first, true
	}
	seen := pathSet{}
	seen.add(avoid.Edges)
	var cands candidateHeap
	r.spurCandidates(c, avoid, 0, []Path{avoid}, t, pot, seen, &cands, nil)
	if cands.Len() == 0 {
		return Path{}, false
	}
	return heap.Pop(&cands).(candidate).path, true
}

// spurCandidates runs one Yen deviation round over base: for every spur
// node from index start on, ban the root-path nodes and the next edges of
// every accepted path sharing the root, and search for the best spur path
// to t. New candidates (not in seen) are pushed onto cands and recorded in
// seen, so repeated generation of the same deviation across rounds is
// suppressed.
//
// start is Lawler's deviation index: spur indices before the point where
// base split from its own parent were already enumerated during the
// parent's round (base shares that prefix with its parent, so the root path
// and ban context coincide) and would only regenerate suppressed
// duplicates.
//
// bnd, when non-nil, is the candidate-count bound. Its cutoff is read once
// at round entry — never mid-round — so every spur search of the round
// (serial or parallel) prunes against the same threshold. A spur search
// whose root length plus the exact distance-to-target of its spur node
// already exceeds the cutoff is skipped before any ban setup; the rest pass
// the cutoff down so the A* can abandon itself mid-flight.
func (r *Router) spurCandidates(c *Snapshot, base Path, start int, accepted []Path, t NodeID, pot *Potential, seen pathSet, cands *candidateHeap, bnd *spurBound) {
	n := len(base.Edges)
	if start < 0 {
		start = 0
	}
	cut := math.Inf(1)
	if bnd != nil {
		cut = bnd.cutoff()
	}
	if workers := r.spurParallelism(n - start); workers > 1 {
		r.spurCandidatesParallel(c, base, start, accepted, t, pot, seen, cands, bnd, cut, workers)
		return
	}
	rootLen := 0.0
	for j := 0; j < start; j++ {
		rootLen += c.w[base.Edges[j]]
	}
	for i := start; i < n; i++ {
		if r.interrupted() {
			break // cancelled mid-round: candidates so far are still valid
		}
		if rootLen+pot.At(base.Nodes[i]) <= cut {
			if spur, ok := r.spurSearch(c, base, i, accepted, t, pot, rootLen, cut); ok {
				total := concatSpur(base, i, rootLen, spur)
				if seen.add(total.Edges) {
					heap.Push(cands, candidate{path: total, dev: i})
					if bnd != nil {
						bnd.add(total.Length)
					}
				}
			}
		}
		rootLen += c.w[base.Edges[i]]
	}
	r.clearBans()
}

// spurCandidatesParallel distributes the spur searches of one round across
// pool routers. Every goroutine works on its own Router (private bans and
// scratch arrays) against the shared read-only snapshot, writing results into
// disjoint slice slots; the seen-set, heap, and bound updates then run
// serially in spur-index order. The cutoff was fixed by the caller before
// the fan-out, so every worker prunes exactly as the serial loop would and
// the accepted output is identical to a serial run.
func (r *Router) spurCandidatesParallel(c *Snapshot, base Path, start int, accepted []Path, t NodeID, pot *Potential, seen pathSet, cands *candidateHeap, bnd *spurBound, cut float64, workers int) {
	n := len(base.Edges)
	// prefix[i] is the weight of base's first i edges, summed left to right
	// exactly as the serial accumulation would, so Lengths are bit-equal.
	prefix := make([]float64, n+1)
	for i := 0; i < n; i++ {
		prefix[i+1] = prefix[i] + c.w[base.Edges[i]]
	}

	spurs := make([]Path, n-start)
	found := make([]bool, n-start)
	var wg sync.WaitGroup
	for wi := 0; wi < workers; wi++ {
		wr := r.spurRouter(wi)
		wg.Add(1)
		go func(wr *Router, offset int) {
			defer wg.Done()
			for i := start + offset; i < n; i += workers {
				if r.interrupted() {
					break // workers only read r.ctx; no race with the coordinator
				}
				if prefix[i]+pot.At(base.Nodes[i]) > cut {
					continue // same pre-skip as the serial loop
				}
				if spur, ok := wr.spurSearch(c, base, i, accepted, t, pot, prefix[i], cut); ok {
					spurs[i-start] = spur
					found[i-start] = true
				}
			}
			wr.clearBans()
		}(wr, wi)
	}
	wg.Wait()

	for i := start; i < n; i++ {
		if !found[i-start] {
			continue
		}
		total := concatSpur(base, i, prefix[i], spurs[i-start])
		if seen.add(total.Edges) {
			heap.Push(cands, candidate{path: total, dev: i})
			if bnd != nil {
				bnd.add(total.Length)
			}
		}
	}
}

// spurSearch establishes the Yen ban context for spur index i on r (the
// root nodes before the spur node, and the next edge of every accepted path
// sharing base's root) and runs the goal-directed search from the spur node
// to t. rootLen and cut feed the candidate-count bound (see spurBound);
// cut == +Inf disables it.
func (r *Router) spurSearch(c *Snapshot, base Path, i int, accepted []Path, t NodeID, pot *Potential, rootLen, cut float64) (Path, bool) {
	spurNode := base.Nodes[i]
	if math.IsInf(pot.At(spurNode), 1) {
		return Path{}, false // spur node cannot reach t even unbanned
	}
	r.clearBans()
	for _, p := range accepted {
		if i < len(p.Edges) && samePrefix(p, base, i) {
			r.banEdge(p.Edges[i])
		}
	}
	for j := 0; j < i; j++ {
		r.banNode(base.Nodes[j])
	}
	return r.shortestAStar(c, spurNode, t, pot, rootLen, cut)
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

// pathSet is the candidate de-duplication set: a 64-bit hash keys buckets
// of exact edge sequences, replacing the per-candidate string key (which
// allocated 4 bytes per edge per probe). A hash collision degrades to a
// linear compare, never a wrong dedup decision. Stored slices are retained;
// callers must not mutate them afterwards.
type pathSet map[uint64][][]EdgeID

// add inserts the edge sequence and reports whether it was absent.
func (s pathSet) add(edges []EdgeID) bool {
	h := hashEdges(edges)
	for _, have := range s[h] {
		if edgesEqual(have, edges) {
			return false
		}
	}
	s[h] = append(s[h], edges)
	return true
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

// candidate pairs a Yen candidate path with the spur index where it
// deviates from the accepted path it was generated from (Lawler's
// deviation index: spur enumeration resumes there if it is accepted).
type candidate struct {
	path Path
	dev  int
}

// candidateHeap orders candidate paths by length, then hop count, then edge
// sequence so results are deterministic across runs.
type candidateHeap []candidate

func (h candidateHeap) Len() int { return len(h) }

func (h candidateHeap) Less(i, j int) bool { return pathLess(h[i].path, h[j].path) }

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

func (h candidateHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }

func (h *candidateHeap) Push(x any) { *h = append(*h, x.(candidate)) }

func (h *candidateHeap) Pop() any {
	old := *h
	n := len(old)
	p := old[n-1]
	*h = old[:n-1]
	return p
}
