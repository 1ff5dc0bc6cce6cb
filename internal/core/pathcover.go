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
// It finds the cheapest cuts but is the slowest algorithm, matching the
// paper's 5-10x runtime gap over GreedyPathCover.
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
// rounds it: the deterministic x_e >= 1/f threshold (f = largest number of
// cuttable edges on any pool path) always yields a feasible cover;
// randomized rounding trials may find cheaper ones; both are pruned of
// redundant edges before the cheapest is returned. The degraded return
// reports that the LP broke down and the greedy cover substituted for it.
func lpCover(ctx context.Context, pool []graph.Path, p *Problem, pstarSet map[graph.EdgeID]struct{}, opts Options) ([]graph.EdgeID, bool, error) {
	// Collect the candidate edges (union of cuttable edges across pool).
	idx := make(map[graph.EdgeID]int)
	var edges []graph.EdgeID
	maxRowLen := 1
	for _, path := range pool {
		rowLen := 0
		for _, e := range path.Edges {
			if !p.cuttable(e, pstarSet) {
				continue
			}
			rowLen++
			if _, ok := idx[e]; !ok {
				idx[e] = len(edges)
				edges = append(edges, e)
			}
		}
		if rowLen > maxRowLen {
			maxRowLen = rowLen
		}
	}

	prob := lp.Problem{Objective: make([]float64, len(edges))}
	for j, e := range edges {
		prob.Objective[j] = p.Cost(e)
	}
	for _, path := range pool {
		coeffs := make([]float64, len(edges))
		for _, e := range path.Edges {
			if j, ok := idx[e]; ok {
				coeffs[j] = 1
			}
		}
		prob.Rows = append(prob.Rows, lp.Constraint{Coeffs: coeffs, Sense: lp.GE, RHS: 1})
	}

	sol, err := lp.SolveCtx(ctx, prob)
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

	covers := func(cut map[graph.EdgeID]struct{}) bool {
		for _, path := range pool {
			ok := false
			for _, e := range path.Edges {
				if _, in := cut[e]; in {
					ok = true
					break
				}
			}
			if !ok {
				return false
			}
		}
		return true
	}

	// Deterministic threshold rounding.
	thresh := 1/float64(maxRowLen) - 1e-9
	bestCut := make(map[graph.EdgeID]struct{})
	for j, e := range edges {
		if sol.X[j] >= thresh {
			bestCut[e] = struct{}{}
		}
	}
	prune(bestCut, pool, p, covers)
	bestCost := cutCost(bestCut, p)

	// Randomized rounding trials.
	rng := rand.New(rand.NewSource(opts.Seed + int64(len(pool))*7919))
	alpha := math.Log(float64(len(pool))) + 1
	for trial := 0; trial < opts.LPRoundingTrials; trial++ {
		cand := make(map[graph.EdgeID]struct{})
		for j, e := range edges {
			if rng.Float64() < math.Min(1, alpha*sol.X[j]) {
				cand[e] = struct{}{}
			}
		}
		if !covers(cand) {
			continue
		}
		prune(cand, pool, p, covers)
		if c := cutCost(cand, p); c < bestCost {
			bestCut, bestCost = cand, c
		}
	}

	out := make([]graph.EdgeID, 0, len(bestCut))
	for e := range bestCut {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, false, nil
}

// prune removes redundant edges from cut, most expensive first, keeping it
// a cover of pool.
func prune(cut map[graph.EdgeID]struct{}, pool []graph.Path, p *Problem, covers func(map[graph.EdgeID]struct{}) bool) {
	ordered := make([]graph.EdgeID, 0, len(cut))
	for e := range cut {
		ordered = append(ordered, e)
	}
	sort.Slice(ordered, func(i, j int) bool {
		ci, cj := p.Cost(ordered[i]), p.Cost(ordered[j])
		if ci != cj {
			return ci > cj
		}
		return ordered[i] > ordered[j]
	})
	for _, e := range ordered {
		delete(cut, e)
		if !covers(cut) {
			cut[e] = struct{}{}
		}
	}
}

func cutCost(cut map[graph.EdgeID]struct{}, p *Problem) float64 {
	total := 0.0
	for e := range cut {
		total += p.Cost(e)
	}
	return total
}
