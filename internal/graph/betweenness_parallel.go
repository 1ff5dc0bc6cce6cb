package graph

import (
	"context"
	"math"
	"runtime"
	"sync"
)

// Parallel Brandes betweenness over a frozen snapshot. Source trees are
// independent, so they fan out across workers; what does NOT parallelize
// naively is the float accumulation into the shared score array, because
// float addition is not associative — merging per-worker partial sums
// would make the output depend on the worker count and the scheduler.
//
// Instead, each worker returns its source tree's score updates as an
// ordered contribution list — exactly the (edge, credit) sequence the
// serial dependency pass would apply — and the coordinator replays the
// lists strictly in source index order. Every float lands on the score
// array in the same order as in a serial Brandes sweep (the test-only
// EdgeBetweennessCtx reference), so the result is bitwise identical to it
// for ANY worker count.
// A bounded claim window keeps the in-flight buffers (and their memory)
// proportional to the worker count even when one source tree is slow.

// brandesContrib is one score update from a single-source dependency
// pass: score[e] += c.
type brandesContrib struct {
	e EdgeID
	c float64
}

// brandesScratch is the per-worker single-source state.
type brandesScratch struct {
	dist    []float64
	sigma   []float64
	delta   []float64
	preds   [][]EdgeID
	order   []NodeID
	settled []bool
	h       heap4
}

func newBrandesScratch(n int) *brandesScratch {
	return &brandesScratch{
		dist:    make([]float64, n),
		sigma:   make([]float64, n),
		delta:   make([]float64, n),
		preds:   make([][]EdgeID, n),
		order:   make([]NodeID, 0, n),
		settled: make([]bool, n),
	}
}

// brandesSource runs one Brandes source tree on the frozen snapshot and
// returns the score contributions in exactly the order the serial
// dependency pass applies them. The float operations mirror the serial
// reference line by line: same relaxation order (edge insertion
// order per node), same heap order (heapLess), same tie test, same
// credit formula — so replaying the returned list reproduces the serial
// accumulation bit for bit.
func brandesSource(c *Snapshot, s NodeID, sc *brandesScratch) []brandesContrib {
	n := c.n
	for i := 0; i < n; i++ {
		sc.dist[i] = math.Inf(1)
		sc.sigma[i] = 0
		sc.delta[i] = 0
		sc.preds[i] = sc.preds[i][:0]
		sc.settled[i] = false
	}
	sc.order = sc.order[:0]
	sc.h = sc.h[:0]

	sc.dist[s] = 0
	sc.sigma[s] = 1
	sc.h.push(heapItem{dist: 0, node: s})
	disabled := c.disabled

	for len(sc.h) > 0 {
		it := sc.h.pop()
		u := it.node
		if sc.settled[u] {
			continue
		}
		sc.settled[u] = true
		sc.order = append(sc.order, u)
		du := sc.dist[u]
		for i, end := c.fwdOff[u], c.fwdOff[u+1]; i < end; i++ {
			e := EdgeID(c.fwdEdge[i])
			if disabled[e] {
				continue
			}
			v := NodeID(c.fwdTo[i])
			nd := du + c.fwdW[i]
			switch {
			case nd < sc.dist[v]:
				sc.dist[v] = nd
				sc.sigma[v] = sc.sigma[u]
				sc.preds[v] = append(sc.preds[v][:0], e)
				sc.h.push(heapItem{dist: nd, node: v})
			// Exact-tie test on purpose: Brandes counts a path only on an
			// exact distance tie, mirroring the serial reference bit for bit.
			case nd == sc.dist[v] && !sc.settled[v]:
				sc.sigma[v] += sc.sigma[u]
				sc.preds[v] = append(sc.preds[v], e)
			}
		}
	}

	// Dependency accumulation in reverse settle order; emit instead of
	// writing into a shared score array.
	total := 0
	for _, v := range sc.order {
		total += len(sc.preds[v])
	}
	out := make([]brandesContrib, 0, total)
	for i := len(sc.order) - 1; i >= 0; i-- {
		v := sc.order[i]
		for _, e := range sc.preds[v] {
			u := c.g.arcs[e].From
			cr := sc.sigma[u] / sc.sigma[v] * (1 + sc.delta[v])
			out = append(out, brandesContrib{e: e, c: cr})
			sc.delta[u] += cr
		}
	}
	return out
}

// BetweennessParallel computes weighted directed edge betweenness
// centrality with Brandes' algorithm on a frozen snapshot: for each edge,
// the (optionally normalized) count of shortest paths between ordered
// node pairs that traverse it, with fractional credit when several
// shortest paths tie. Disabled edges score 0 and are not traversed. The
// paper (§II-A) uses high edge betweenness to identify critical,
// highly-traveled roads an attacker would target.
//
// Source trees fan out across workers and their contributions merge
// strictly in source index order (see the comment at the top of this
// file for why that ordering is the whole trick), so the scores are
// bitwise identical to a serial sweep for any worker count. workers <= 0
// means GOMAXPROCS. A stale snapshot is refreshed first.
//
// Cancellation: the context is polled once per source tree, and on
// cancellation the scores accumulated for the merged source prefix are
// returned, unnormalized, alongside the context error — diagnostic only.
func BetweennessParallel(ctx context.Context, snap *Snapshot, opts BetweennessOptions, workers int) ([]float64, error) {
	snap = snap.Refresh()
	n, m := snap.n, snap.m
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
	nSrc := len(sources)
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > nSrc {
		workers = nSrc
	}

	if workers <= 1 {
		// Degenerate case: same kernel, applied inline in source order.
		sc := newBrandesScratch(n)
		for _, s := range sources {
			if err := ctx.Err(); err != nil {
				return score, err
			}
			for _, u := range brandesSource(snap, s, sc) {
				score[u.e] += u.c
			}
		}
		normalizeBetweenness(score, n, nSrc, opts)
		return score, nil
	}

	var (
		mu      sync.Mutex
		cond    = sync.NewCond(&mu)
		bufs    = make([][]brandesContrib, nSrc)
		ready   = make([]bool, nSrc)
		claimed = 0 // next source index to hand to a worker
		merged  = 0 // next source index the coordinator will merge
		stopped = 0 // workers that have exited
	)
	// At most window sources may be claimed-but-unmerged, bounding the
	// buffered contribution lists regardless of per-tree skew.
	window := workers * 4

	for wi := 0; wi < workers; wi++ {
		go func() {
			sc := newBrandesScratch(n)
			for {
				mu.Lock()
				for claimed < nSrc && claimed-merged >= window && ctx.Err() == nil {
					cond.Wait()
				}
				if claimed >= nSrc || ctx.Err() != nil {
					stopped++
					cond.Broadcast()
					mu.Unlock()
					return
				}
				i := claimed
				claimed++
				mu.Unlock()

				buf := brandesSource(snap, sources[i], sc)

				mu.Lock()
				bufs[i] = buf
				ready[i] = true
				cond.Broadcast()
				mu.Unlock()
			}
		}()
	}

	// Merge on the calling goroutine, strictly in source index order.
	// Workers never abandon a claimed source, so the ready set converges
	// to the contiguous prefix [0, claimed) — a gap at `merged` with all
	// workers stopped means cancellation cut the run short there.
	var err error
	mu.Lock()
	for merged < nSrc {
		for !ready[merged] && stopped < workers {
			cond.Wait()
		}
		if !ready[merged] {
			err = ctx.Err()
			break
		}
		buf := bufs[merged]
		bufs[merged] = nil
		mu.Unlock()
		for _, u := range buf {
			score[u.e] += u.c
		}
		mu.Lock()
		merged++
		cond.Broadcast()
	}
	mu.Unlock()

	if err != nil {
		return score, err
	}
	normalizeBetweenness(score, n, nSrc, opts)
	return score, nil
}

// normalizeBetweenness applies the BetweennessOptions.Normalize scaling:
// the sample is scaled up to the full source population, then divided by
// the number of ordered node pairs.
func normalizeBetweenness(score []float64, n, nSources int, opts BetweennessOptions) {
	if !opts.Normalize || n <= 1 {
		return
	}
	scale := float64(n) / float64(nSources)
	norm := scale / (float64(n) * float64(n-1))
	for i := range score {
		score[i] *= norm
	}
}
