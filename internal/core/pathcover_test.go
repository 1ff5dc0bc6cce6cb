package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"altroute/internal/citygen"
	"altroute/internal/graph"
	"altroute/internal/lp"
	"altroute/internal/roadnet"
)

// ladder builds a graph with k parallel two-hop routes from 0 to 1+k and a
// long direct route, so forcing the direct route needs exactly k cuts.
func ladder(t *testing.T, k int, cost func(i int) float64) (*weighted, graph.Path) {
	t.Helper()
	w := &weighted{g: graph.New(2 + k)}
	dest := graph.NodeID(1)
	direct := w.addEdge(t, 0, dest, 100, 1)
	for i := 0; i < k; i++ {
		mid := graph.NodeID(2 + i)
		w.addEdge(t, 0, mid, 1, cost(i))
		w.addEdge(t, mid, dest, 1, cost(i))
	}
	pstar := graph.Path{Nodes: []graph.NodeID{0, dest}, Edges: []graph.EdgeID{direct}, Length: 100}
	return w, pstar
}

func TestPathCoverCutsOnePerParallelRoute(t *testing.T) {
	for _, alg := range []Algorithm{AlgGreedyPathCover, AlgLPPathCover} {
		t.Run(alg.String(), func(t *testing.T) {
			w, pstar := ladder(t, 6, func(int) float64 { return 1 })
			p := problemFor(w, pstar, 0)
			res, err := Run(alg, p, Options{})
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if len(res.Removed) != 6 {
				t.Errorf("removed %d edges, want 6 (one per route)", len(res.Removed))
			}
			if res.ConstraintPaths < 6 {
				t.Errorf("constraint paths = %d, want >= 6", res.ConstraintPaths)
			}
			assertAttackValid(t, p, res)
		})
	}
}

func TestPathCoverPicksCheapSideOfEachRoute(t *testing.T) {
	// Each route has a cheap first hop (cost 1) and expensive second hop
	// (cost 10): the cover must always pay 1 per route.
	w := &weighted{g: graph.New(5)}
	dest := graph.NodeID(1)
	direct := w.addEdge(t, 0, dest, 100, 1)
	for i := 0; i < 3; i++ {
		mid := graph.NodeID(2 + i)
		w.addEdge(t, 0, mid, 1, 1)
		w.addEdge(t, mid, dest, 1, 10)
	}
	pstar := graph.Path{Nodes: []graph.NodeID{0, dest}, Edges: []graph.EdgeID{direct}, Length: 100}
	p := problemFor(w, pstar, 0)
	for _, alg := range []Algorithm{AlgGreedyPathCover, AlgLPPathCover} {
		res, err := Run(alg, p, Options{})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if res.TotalCost != 3 {
			t.Errorf("%v total cost = %v, want 3 (cheap hops only)", alg, res.TotalCost)
		}
	}
}

func TestLPRoundingTrialsOption(t *testing.T) {
	// More rounding trials can only match or improve the deterministic
	// threshold rounding; both must be valid.
	w, pstar := ladder(t, 5, func(i int) float64 { return float64(1 + i) })
	p := problemFor(w, pstar, 0)
	base, err := Run(AlgLPPathCover, p, Options{LPRoundingTrials: 1})
	if err != nil {
		t.Fatal(err)
	}
	more, err := Run(AlgLPPathCover, p, Options{LPRoundingTrials: 64})
	if err != nil {
		t.Fatal(err)
	}
	if more.TotalCost > base.TotalCost+1e-9 {
		t.Errorf("64 trials (%v) worse than 1 trial (%v)", more.TotalCost, base.TotalCost)
	}
	assertAttackValid(t, p, base)
	assertAttackValid(t, p, more)
}

func TestRecomputeEigenOption(t *testing.T) {
	w, pstar := ladder(t, 4, func(int) float64 { return 1 })
	p := problemFor(w, pstar, 0)
	res, err := Run(AlgGreedyEig, p, Options{RecomputeEigen: true})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	assertAttackValid(t, p, res)
}

func TestPathCoverMaxRoundsBudgetsTheLoop(t *testing.T) {
	w, pstar := ladder(t, 8, func(int) float64 { return 1 })
	p := problemFor(w, pstar, 0)
	if _, err := Run(AlgGreedyPathCover, p, Options{MaxRounds: 2}); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible (loop budget)", err)
	}
	if w.g.NumEnabledEdges() != w.g.NumEdges() {
		t.Error("failed run left graph mutated")
	}
}

// TestBudgetBoundaryProperty: for random ladder instances, the attack
// succeeds iff the budget is at least the (known) optimal cost.
func TestBudgetBoundaryProperty(t *testing.T) {
	cfg := &quick.Config{MaxCount: 30}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 1 + rng.Intn(5)
		costs := make([]float64, k)
		optimal := 0.0
		for i := range costs {
			costs[i] = float64(1 + rng.Intn(4))
			optimal += costs[i] // one cut per route, cheap side == expensive side here
		}
		build := func() (*weighted, graph.Path) {
			w := &weighted{g: graph.New(2 + k)}
			dest := graph.NodeID(1)
			direct := w.addEdge2(0, dest, 100, 1)
			for i := 0; i < k; i++ {
				mid := graph.NodeID(2 + i)
				w.addEdge2(0, mid, 1, costs[i])
				w.addEdge2(mid, dest, 1, costs[i])
			}
			return w, graph.Path{Nodes: []graph.NodeID{0, dest}, Edges: []graph.EdgeID{direct}, Length: 100}
		}

		// Budget exactly optimal: must succeed.
		w, pstar := build()
		p := problemFor(w, pstar, optimal)
		if _, err := Run(AlgGreedyPathCover, p, Options{}); err != nil {
			t.Logf("seed %d: exact budget failed: %v", seed, err)
			return false
		}
		// Budget a hair below: must fail with ErrBudgetExceeded.
		p.Budget = optimal - 0.5
		if _, err := Run(AlgGreedyPathCover, p, Options{}); !errors.Is(err, ErrBudgetExceeded) {
			t.Logf("seed %d: below-optimal budget err = %v", seed, err)
			return false
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

// addEdge2 is addEdge without the testing.T (for property closures).
func (w *weighted) addEdge2(from, to graph.NodeID, weight, cost float64) graph.EdgeID {
	e, err := w.g.AddEdge(from, to)
	if err != nil {
		panic(err)
	}
	w.weight = append(w.weight, weight)
	w.cost = append(w.cost, cost)
	return e
}

// referenceLPCover is lpCover with the map-based rounding it replaced: the
// LP is built from an edge index map, and coverage is checked by scanning
// every pool path. Cut costs are summed in column order, as lpCover sums
// them; a map-order sum could compare two equal-cost cuts differently by
// an ulp from run to run.
func referenceLPCover(ctx context.Context, pool []graph.Path, p *Problem, pstarSet map[graph.EdgeID]struct{}, opts Options) ([]graph.EdgeID, bool, error) {
	edges, maxRowLen := referenceColumns(pool, p, pstarSet)
	idx := make(map[graph.EdgeID]int, len(edges))
	for j, e := range edges {
		idx[e] = j
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
		if ctx.Err() != nil {
			return nil, false, ctxErr(ctx)
		}
		cut, gerr := greedyCover(pool, p, pstarSet)
		return cut, true, gerr
	}
	return referenceRound(pool, p, edges, maxRowLen, sol.X, opts), false, nil
}

// referenceColumns numbers the pool's cuttable edges in order of first
// appearance and returns the most cuttable edges on one path (at least 1).
func referenceColumns(pool []graph.Path, p *Problem, pstarSet map[graph.EdgeID]struct{}) ([]graph.EdgeID, int) {
	seen := make(map[graph.EdgeID]bool)
	var edges []graph.EdgeID
	maxRowLen := 1
	for _, path := range pool {
		rowLen := 0
		for _, e := range path.Edges {
			if !p.cuttable(e, pstarSet) {
				continue
			}
			rowLen++
			if !seen[e] {
				seen[e] = true
				edges = append(edges, e)
			}
		}
		if rowLen > maxRowLen {
			maxRowLen = rowLen
		}
	}
	return edges, maxRowLen
}

// referenceRound is the threshold rounding, the randomized trials and
// pruning on edge-set maps, every trial drawn from the seeded generator.
func referenceRound(pool []graph.Path, p *Problem, edges []graph.EdgeID, maxRowLen int, x []float64, opts Options) []graph.EdgeID {
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
	cutCost := func(cut map[graph.EdgeID]struct{}) float64 {
		total := 0.0
		for _, e := range edges {
			if _, in := cut[e]; in {
				total += p.Cost(e)
			}
		}
		return total
	}

	thresh := 1/float64(maxRowLen) - 1e-9
	bestCut := make(map[graph.EdgeID]struct{})
	for j, e := range edges {
		if x[j] >= thresh {
			bestCut[e] = struct{}{}
		}
	}
	referencePrune(bestCut, p, covers)
	bestCost := cutCost(bestCut)

	rng := rand.New(rand.NewSource(opts.Seed + int64(len(pool))*7919))
	alpha := math.Log(float64(len(pool))) + 1
	for trial := 0; trial < opts.LPRoundingTrials; trial++ {
		cand := make(map[graph.EdgeID]struct{})
		for j, e := range edges {
			if rng.Float64() < math.Min(1, alpha*x[j]) {
				cand[e] = struct{}{}
			}
		}
		if !covers(cand) {
			continue
		}
		referencePrune(cand, p, covers)
		if c := cutCost(cand); c < bestCost {
			bestCut, bestCost = cand, c
		}
	}

	out := make([]graph.EdgeID, 0, len(bestCut))
	for e := range bestCut {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// referencePrune removes redundant edges from cut, most expensive first
// (ties: higher edge ID first), keeping it a cover. When cut is not a
// cover, every removal is undone and cut is unchanged.
func referencePrune(cut map[graph.EdgeID]struct{}, p *Problem, covers func(map[graph.EdgeID]struct{}) bool) {
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

// randomPool draws a pool of constraint paths over a graph with numEdges
// edges. Each path has at least one cuttable edge, about a tenth of the
// edges lie on p*, and some pools have only short paths, where 1/f is
// above 1/alpha. One path in eight lists an edge twice, which the LP
// counts once. Costs repeat a few WIDTH-like values, so prune order and
// cost comparisons meet ties.
func randomPool(rng *rand.Rand, numEdges int) (*Problem, []graph.Path, map[graph.EdgeID]struct{}) {
	g := graph.New(2)
	costs := make([]float64, numEdges)
	widths := []float64{3.5, 7.3, 10.95, 14.6, 1}
	for e := range costs {
		if _, err := g.AddEdge(0, 1); err != nil {
			panic(err)
		}
		costs[e] = widths[rng.Intn(len(widths))]
	}
	pstarSet := make(map[graph.EdgeID]struct{})
	for e := 0; e < numEdges/10; e++ {
		pstarSet[graph.EdgeID(rng.Intn(numEdges))] = struct{}{}
	}
	p := &Problem{G: g, Cost: func(e graph.EdgeID) float64 { return costs[e] }}
	maxLen := min([]int{2, 3, 8}[rng.Intn(3)], numEdges)
	pool := make([]graph.Path, 1+rng.Intn(20))
	for i := range pool {
		for {
			path := graph.Path{}
			for _, e := range rng.Perm(numEdges)[:1+rng.Intn(maxLen)] {
				path.Edges = append(path.Edges, graph.EdgeID(e))
			}
			if rng.Intn(8) == 0 {
				path.Edges = append(path.Edges, path.Edges[rng.Intn(len(path.Edges))])
			}
			if hasCuttableEdge(path, p, pstarSet) {
				pool[i] = path
				break
			}
		}
	}
	return p, pool, pstarSet
}

// TestRoundingMatchesMapReference compares coverLP.round with the
// map-based reference on random pools and LP solutions of each kind the
// rounding branches on.
func TestRoundingMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var integral, fractional, uncovered int
	for trial := 0; trial < 400; trial++ {
		p, pool, pstarSet := randomPool(rng, 6+rng.Intn(30))
		c := newCoverLP(pool, p, pstarSet)
		edges, maxRowLen := referenceColumns(pool, p, pstarSet)
		if !reflect.DeepEqual(c.edges, edges) || c.maxRowLen != maxRowLen {
			t.Fatalf("columns %v (f=%d), reference %v (f=%d)", c.edges, c.maxRowLen, edges, maxRowLen)
		}
		alpha := math.Log(float64(len(pool))) + 1
		thresh := 1/float64(maxRowLen) - 1e-9

		var xs [][]float64
		if sol, err := lp.Solve(c.relaxation()); err == nil && sol.Status == lp.Optimal {
			xs = append(xs, sol.X)
		}
		frac := make([]float64, len(edges))
		zeroOne := make([]float64, len(edges))
		for j := range edges {
			if rng.Intn(3) > 0 {
				frac[j] = rng.Float64()
			}
			switch rng.Intn(3) {
			case 1:
				zeroOne[j] = 1
			case 2:
				zeroOne[j] = math.Min(1, (1+rng.Float64())/alpha)
			}
		}
		xs = append(xs, frac, zeroOne)
		// Threshold misses every column of row 0, so its selection is no
		// cover; trials can still draw those columns.
		miss := append([]float64(nil), frac...)
		for _, j := range c.rows[0] {
			miss[j] = thresh * rng.Float64()
		}
		xs = append(xs, miss)

		for k, x := range xs {
			isIntegral := true
			for j := range x {
				if q := math.Min(1, alpha*x[j]); q > 0 && q < 1 {
					isIntegral = false
				}
			}
			coversAtThreshold := true
			for _, row := range c.rows {
				hit := false
				for _, j := range row {
					hit = hit || x[j] >= thresh
				}
				coversAtThreshold = coversAtThreshold && hit
			}
			switch {
			case !coversAtThreshold:
				uncovered++
			case isIntegral:
				integral++
			default:
				fractional++
			}
			for _, opts := range []Options{{LPRoundingTrials: 16, Seed: int64(trial)}, {LPRoundingTrials: 1, Seed: 3}} {
				got := c.round(x, opts)
				want := referenceRound(pool, p, edges, maxRowLen, x, opts)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("pool %d, solution %d (%v), trials %d: cut %v, reference %v",
						trial, k, x, opts.LPRoundingTrials, got, want)
				}
			}
		}
	}
	if integral < 50 || fractional < 50 || uncovered < 50 {
		t.Fatalf("solutions: %d 0/1 after scaling, %d fractional, %d uncovering at the threshold; want >= 50 each",
			integral, fractional, uncovered)
	}
}

// lpProblems picks three rank-20 problems per hospital of net, with seeded
// sources: enough constraint rounds to exercise the LP rounding.
func lpProblems(t *testing.T, net *roadnet.Network) []Problem {
	t.Helper()
	rng := rand.New(rand.NewSource(21))
	w := net.Weight(roadnet.WeightTime)
	var out []Problem
	for _, h := range net.POIsOfKind(citygen.KindHospital) {
		for found, try := 0, 0; found < 3 && try < 60; try++ {
			s := graph.NodeID(rng.Intn(net.NumIntersections()))
			pstar, err := PStarByRank(net.Graph(), s, h.Node, 20, w)
			if err != nil {
				continue
			}
			out = append(out, Problem{Source: s, Dest: h.Node, PStar: pstar})
			found++
		}
	}
	if len(out) < 6 {
		t.Fatalf("fixture has only %d problems", len(out))
	}
	return out
}

// TestLPPathCoverMatchesMapReference runs whole LP-PathCover attacks on a
// small city, for every cost type, with lpCover and with the map-based
// reference as the cover solver, and requires identical results.
func TestLPPathCoverMatchesMapReference(t *testing.T) {
	net := memoCity(t)
	problems := lpProblems(t, net)
	opts := Options{}
	opts.fill()
	rounds := 0
	for _, ct := range roadnet.CostTypes() {
		for i, tmpl := range problems {
			p := on(net, tmpl, ct)
			got, err := Run(AlgLPPathCover, p, opts)
			if err != nil {
				t.Fatalf("%v problem %d: %v", ct, i, err)
			}
			ref := func(ctx context.Context, pool []graph.Path, pr *Problem, pstarSet map[graph.EdgeID]struct{}) ([]graph.EdgeID, bool, error) {
				return referenceLPCover(ctx, pool, pr, pstarSet, opts)
			}
			want, err := pathCoverLoop(context.Background(), p, opts, ref, true)
			if err != nil {
				t.Fatalf("%v problem %d: reference: %v", ct, i, err)
			}
			if !reflect.DeepEqual(got.Removed, want.Removed) ||
				math.Float64bits(got.TotalCost) != math.Float64bits(want.TotalCost) ||
				got.Rounds != want.Rounds || got.ConstraintPaths != want.ConstraintPaths || got.Degraded != want.Degraded {
				t.Fatalf("%v problem %d: removed %v cost %v rounds %d, reference %v cost %v rounds %d",
					ct, i, got.Removed, got.TotalCost, got.Rounds, want.Removed, want.TotalCost, want.Rounds)
			}
			rounds += got.Rounds
		}
	}
	if rounds < 3*len(problems) {
		t.Fatalf("%d constraint rounds over %d attacks; the fixture barely exercises the cover step", rounds, len(problems))
	}
}

// TestLPPathCoverRepeatableOnWidthCosts repeats LP-PathCover on WIDTH-cost
// units in one process: the cut and the bits of its cost never change.
// WIDTH costs are non-integers shared by many edges, where a cost sum in
// map order could tip the choice between two equal-cost cuts.
func TestLPPathCoverRepeatableOnWidthCosts(t *testing.T) {
	net := memoCity(t)
	problems := lpProblems(t, net)
	first := make([]Result, len(problems))
	for run := 0; run < 50; run++ {
		for i, tmpl := range problems {
			res, err := Run(AlgLPPathCover, on(net, tmpl, roadnet.CostWidth), Options{Seed: 5})
			if err != nil {
				t.Fatalf("run %d problem %d: %v", run, i, err)
			}
			if run == 0 {
				first[i] = res
				continue
			}
			if !reflect.DeepEqual(res.Removed, first[i].Removed) ||
				math.Float64bits(res.TotalCost) != math.Float64bits(first[i].TotalCost) {
				t.Fatalf("run %d problem %d: removed %v cost %v, first run %v cost %v",
					run, i, res.Removed, res.TotalCost, first[i].Removed, first[i].TotalCost)
			}
		}
	}
}
