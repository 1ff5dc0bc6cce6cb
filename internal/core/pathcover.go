package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"altroute/internal/graph"
	"altroute/internal/lp"
)

// coverSolver computes an edge cut covering every path in pool (each pool
// path must contain at least one chosen edge). Implementations assume every
// pool path has at least one cuttable edge. degraded reports that the cut
// came from a fallback path (LP breakdown → greedy cover).
type coverSolver func(ctx context.Context, pool []graph.Path, p *Problem, pstarSet map[graph.EdgeID]struct{}) (cut []graph.EdgeID, degraded bool, err error)

// greedySolver adapts greedyCover to the coverSolver interface.
func greedySolver(_ context.Context, pool []graph.Path, p *Problem, pstarSet map[graph.EdgeID]struct{}) ([]graph.EdgeID, bool, error) {
	cut, err := greedyCover(pool, p, pstarSet)
	return cut, false, err
}

// greedyPathCover implements the paper's GreedyPathCover: constraint
// generation with a greedy weighted Set Cover inner solver. Each round
// finds a live path no longer than p* (a violated covering constraint),
// adds it to the constraint pool, and re-solves the cover over the whole
// pool, cutting the edges that hit the most constraint paths per unit cost.
func greedyPathCover(ctx context.Context, p Problem, opts Options) (Result, error) {
	return pathCoverLoop(ctx, p, opts, greedySolver, false)
}

// lpPathCover implements the paper's LP-PathCover: the same constraint
// generation, with the inner weighted Set Cover solved through its LP
// relaxation (internal two-phase simplex) followed by deterministic
// threshold rounding, randomized rounding trials, and redundancy pruning.
// It finds the cheapest cuts but is the slowest algorithm. The paper
// reports it 5-10x slower than GreedyPathCover; that ratio depends on the
// LP and rounding implementation (see DESIGN.md).
func lpPathCover(ctx context.Context, p Problem, opts Options) (Result, error) {
	solver := func(ctx context.Context, pool []graph.Path, pr *Problem, pstarSet map[graph.EdgeID]struct{}) ([]graph.EdgeID, bool, error) {
		return lpCover(ctx, pool, pr, pstarSet, opts)
	}
	return pathCoverLoop(ctx, p, opts, solver, true)
}

// pathCoverLoop is the shared constraint-generation skeleton: maintain a
// pool of violating paths; after every new violation, re-solve the cover
// from scratch over the full pool (cuts are NOT monotone across rounds —
// this is what lets the PathCover algorithms escape the naive baselines'
// mistakes). Terminates because every round's oracle path is distinct from
// all pool paths (each pool path contains a cut edge; the oracle path is
// live), and the number of simple paths is finite.
// degradeToGreedy selects the failure behaviour on an expired deadline:
// LP-PathCover (true) falls back to the greedy cover of the constraint pool
// built so far; the others surface the typed error.
func pathCoverLoop(ctx context.Context, p Problem, opts Options, solve coverSolver, degradeToGreedy bool) (Result, error) {
	if err := p.validate(); err != nil {
		return Result{}, err
	}
	r := p.router(ctx)
	pstarSet := p.PStar.EdgeSet()
	budget := p.budgetOrInf()
	// Taken on the unmodified graph, before the first constraint round:
	// rounds only disable edges, so the potential stays a lower bound for
	// every round, which each rollback restores to this same base state.
	pot := p.potential(r)

	var pool []graph.Path
	var cut []graph.EdgeID
	degraded := false
	for round := 0; round < opts.MaxRounds; round++ {
		injectRound(ctx)
		tx := p.G.Begin()
		for _, e := range cut {
			tx.Disable(e)
		}
		viol, violated := p.violating(r, pot)
		tx.Rollback()
		// A cancelled oracle can report "no violation" spuriously (its spur
		// round was cut short), so the context check must come before the
		// success test.
		if ctx.Err() != nil {
			return degradeOrErr(ctx, &p, pool, pstarSet, round, degradeToGreedy)
		}

		if !violated {
			sort.Slice(cut, func(i, j int) bool { return cut[i] < cut[j] })
			res := Result{
				Removed:         cut,
				TotalCost:       TotalCost(p.Cost, cut),
				Rounds:          round,
				ConstraintPaths: len(pool),
				Degraded:        degraded,
			}
			if degraded {
				res.DegradedReason = "LP solve failed; greedy cover substituted"
			}
			return res, nil
		}

		if !hasCuttableEdge(viol, &p, pstarSet) {
			return Result{}, fmt.Errorf("%w: violating path %v has no edge off p*", ErrInfeasible, viol)
		}
		pool = append(pool, viol)

		var solDegraded bool
		var err error
		cut, solDegraded, err = solve(ctx, pool, &p, pstarSet)
		if err != nil {
			if ctx.Err() != nil {
				return degradeOrErr(ctx, &p, pool, pstarSet, round, degradeToGreedy)
			}
			return Result{}, err
		}
		degraded = degraded || solDegraded
		if c := TotalCost(p.Cost, cut); c > budget {
			return Result{}, fmt.Errorf("%w: cover of %d constraint paths costs %.3f > budget %.3f",
				ErrBudgetExceeded, len(pool), c, p.Budget)
		}
	}
	return Result{}, fmt.Errorf("%w: no solution within %d constraint rounds", ErrInfeasible, opts.MaxRounds)
}

// degradeOrErr handles an interrupted constraint-generation loop. On a
// timeout with degradation enabled and a non-empty pool, it returns the
// greedy cover of the pool as a best-effort Degraded result: the cut blocks
// every violating path found so far, though p* may not yet be exclusive.
// Everything else (cancellation, an empty pool, a first-round timeout)
// becomes the typed sentinel error.
func degradeOrErr(ctx context.Context, p *Problem, pool []graph.Path, pstarSet map[graph.EdgeID]struct{}, rounds int, degradeToGreedy bool) (Result, error) {
	err := ctxErr(ctx)
	if !degradeToGreedy || len(pool) == 0 || !errors.Is(err, ErrTimeout) {
		return Result{}, err
	}
	cut, gerr := greedyCover(pool, p, pstarSet)
	if gerr != nil {
		return Result{}, err
	}
	sort.Slice(cut, func(i, j int) bool { return cut[i] < cut[j] })
	return Result{
		Removed:         cut,
		TotalCost:       TotalCost(p.Cost, cut),
		Rounds:          rounds,
		ConstraintPaths: len(pool),
		Degraded:        true,
		DegradedReason: fmt.Sprintf("deadline expired after %d rounds; returning greedy cover of the %d-path constraint pool",
			rounds, len(pool)),
	}, nil
}

func hasCuttableEdge(path graph.Path, p *Problem, pstarSet map[graph.EdgeID]struct{}) bool {
	for _, e := range path.Edges {
		if p.cuttable(e, pstarSet) {
			return true
		}
	}
	return false
}

// greedyCover solves weighted Set Cover over the pool greedily: repeatedly
// cut the edge covering the most not-yet-covered constraint paths per unit
// cost (ties: lower cost, then lower edge ID).
func greedyCover(pool []graph.Path, p *Problem, pstarSet map[graph.EdgeID]struct{}) ([]graph.EdgeID, error) {
	covered := make([]bool, len(pool))
	remaining := len(pool)
	var cut []graph.EdgeID

	for remaining > 0 {
		counts := make(map[graph.EdgeID]int)
		for i, path := range pool {
			if covered[i] {
				continue
			}
			for _, e := range path.Edges {
				if p.cuttable(e, pstarSet) {
					counts[e]++
				}
			}
		}
		best := graph.InvalidEdge
		bestScore := math.Inf(-1)
		bestCost := math.Inf(1)
		for e, cnt := range counts {
			c := p.Cost(e)
			score := float64(cnt)
			if c > 0 {
				score = float64(cnt) / c
			} else {
				score = math.Inf(1) // free edges dominate
			}
			if score > bestScore ||
				(score == bestScore && c < bestCost) || //lint:allow floateq deterministic tie-break: exact ties fall back to cost then edge ID
				(score == bestScore && c == bestCost && e < best) { //lint:allow floateq deterministic tie-break: exact ties fall back to cost then edge ID
				best, bestScore, bestCost = e, score, c
			}
		}
		if best == graph.InvalidEdge {
			return nil, fmt.Errorf("%w: constraint paths exhausted cuttable edges", ErrInfeasible)
		}
		cut = append(cut, best)
		for i, path := range pool {
			if !covered[i] && path.HasEdge(best) {
				covered[i] = true
				remaining--
			}
		}
	}
	return cut, nil
}

// lpCover solves the LP relaxation of the pool's weighted Set Cover and
// rounds it (see coverLP.round). The degraded return reports that the LP
// broke down and the greedy cover substituted for it.
func lpCover(ctx context.Context, pool []graph.Path, p *Problem, pstarSet map[graph.EdgeID]struct{}, opts Options) ([]graph.EdgeID, bool, error) {
	c := newCoverLP(pool, p, pstarSet)
	sol, err := lp.SolveCtx(ctx, c.relaxation())
	if err != nil || sol.Status != lp.Optimal {
		// An interrupted solve is not a solver failure: surface the typed
		// error so the outer loop can degrade or abort as configured.
		if ctx.Err() != nil {
			return nil, false, ctxErr(ctx)
		}
		// The covering LP is always feasible when every path has a
		// cuttable edge; a numerical breakdown (or an injected fault) falls
		// back to the greedy cover rather than failing the whole attack —
		// flagged degraded so callers can see the plan is not LP-quality.
		cut, gerr := greedyCover(pool, p, pstarSet)
		return cut, true, gerr
	}
	return c.round(sol.X, opts), false, nil
}

// coverLP is the pool's weighted Set Cover on incidence lists. Column j is
// the cuttable edge edges[j] (numbered in order of first appearance in the
// pool) with cost cost[j]; row i is pool path i. rows[i] lists the columns
// on row i and cols[j] the rows through column j, each without repeats.
type coverLP struct {
	edges     []graph.EdgeID
	cost      []float64
	rows      [][]int
	cols      [][]int
	maxRowLen int // most cuttable edges on one pool path, at least 1
}

func newCoverLP(pool []graph.Path, p *Problem, pstarSet map[graph.EdgeID]struct{}) *coverLP {
	c := &coverLP{rows: make([][]int, len(pool)), maxRowLen: 1}
	idx := make(map[graph.EdgeID]int)
	for i, path := range pool {
		c.rows[i] = make([]int, 0, len(path.Edges))
		rowLen := 0
		for _, e := range path.Edges {
			if !p.cuttable(e, pstarSet) {
				continue
			}
			rowLen++
			j, ok := idx[e]
			if !ok {
				j = len(c.edges)
				idx[e] = j
				c.edges = append(c.edges, e)
				c.cost = append(c.cost, p.Cost(e))
				c.cols = append(c.cols, nil)
			}
			if n := len(c.cols[j]); n == 0 || c.cols[j][n-1] != i {
				c.rows[i] = append(c.rows[i], j)
				c.cols[j] = append(c.cols[j], i)
			}
		}
		if rowLen > c.maxRowLen {
			c.maxRowLen = rowLen
		}
	}
	return c
}

// relaxation is the cover's LP relaxation: minimize the cut cost subject
// to at least one (fractional) column on every row.
func (c *coverLP) relaxation() lp.Problem {
	prob := lp.Problem{Objective: c.cost}
	for _, row := range c.rows {
		coeffs := make([]float64, len(c.edges))
		for _, j := range row {
			coeffs[j] = 1
		}
		prob.Rows = append(prob.Rows, lp.Constraint{Coeffs: coeffs, Sense: lp.GE, RHS: 1})
	}
	return prob
}

// round turns the LP solution x into a cut, sorted by edge ID. The
// deterministic x_j >= 1/f threshold (f = maxRowLen) always yields a
// feasible cover up to the solver's tolerance; randomized rounding trials
// (column j drawn with probability min(1, alpha*x_j)) may find cheaper
// ones. Each cover is pruned of redundant columns, and the cheapest wins,
// the threshold cut on a tie. A threshold selection that leaves a row
// uncovered is kept unpruned.
func (c *coverLP) round(x []float64, opts Options) []graph.EdgeID {
	// Pruning visits columns most expensive first, ties by higher edge ID.
	order := make([]int, len(c.edges))
	for j := range order {
		order[j] = j
	}
	sort.Slice(order, func(a, b int) bool {
		ja, jb := order[a], order[b]
		if c.cost[ja] != c.cost[jb] {
			return c.cost[ja] > c.cost[jb]
		}
		return c.edges[ja] > c.edges[jb]
	})
	hits := make([]int, len(c.rows))

	thresh := 1/float64(c.maxRowLen) - 1e-9
	best := make([]bool, len(c.edges))
	for j := range best {
		best[j] = x[j] >= thresh
	}
	if c.load(best, hits) {
		c.prune(best, hits, order)
	}
	bestCost := c.selCost(best)

	cand := make([]bool, len(c.edges))
	try := func() {
		if !c.load(cand, hits) {
			return
		}
		c.prune(cand, hits, order)
		if cost := c.selCost(cand); cost < bestCost {
			best, cand, bestCost = cand, best, cost
		}
	}
	alpha := math.Log(float64(len(c.rows))) + 1
	integral := true
	for j := range x {
		if p := math.Min(1, alpha*x[j]); p > 0 && p < 1 {
			integral = false
			break
		}
	}
	if integral {
		// Every draw rng.Float64() < p has the same outcome in every
		// trial, so all trials select the same set; a repeat can never
		// beat its own cost, so one trial decides.
		if opts.LPRoundingTrials > 0 {
			for j := range cand {
				cand[j] = alpha*x[j] >= 1
			}
			try()
		}
	} else {
		rng := rand.New(rand.NewSource(opts.Seed + int64(len(c.rows))*7919))
		for trial := 0; trial < opts.LPRoundingTrials; trial++ {
			for j := range cand {
				cand[j] = rng.Float64() < math.Min(1, alpha*x[j])
			}
			try()
		}
	}

	out := []graph.EdgeID{}
	for j, on := range best {
		if on {
			out = append(out, c.edges[j])
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// load sets hits[i] to the number of selected columns on row i and reports
// whether the selection covers every row.
func (c *coverLP) load(sel []bool, hits []int) bool {
	clear(hits)
	for j, on := range sel {
		if on {
			for _, i := range c.cols[j] {
				hits[i]++
			}
		}
	}
	for _, h := range hits {
		if h == 0 {
			return false
		}
	}
	return true
}

// prune drops the redundant columns of a covering selection in the given
// order: a column goes when every row through it has another hit.
func (c *coverLP) prune(sel []bool, hits []int, order []int) {
	for _, j := range order {
		if !sel[j] {
			continue
		}
		redundant := true
		for _, i := range c.cols[j] {
			if hits[i] < 2 {
				redundant = false
				break
			}
		}
		if redundant {
			sel[j] = false
			for _, i := range c.cols[j] {
				hits[i]--
			}
		}
	}
}

// selCost sums the selected columns' costs in column order, so equal
// selections always compare equal.
func (c *coverLP) selCost(sel []bool) float64 {
	total := 0.0
	for j, on := range sel {
		if on {
			total += c.cost[j]
		}
	}
	return total
}
