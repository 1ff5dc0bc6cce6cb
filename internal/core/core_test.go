package core

import (
	"errors"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"altroute/internal/geo"
	"altroute/internal/graph"
	"altroute/internal/roadnet"
)

// weighted is a test graph with explicit weight and cost slices.
type weighted struct {
	g      *graph.Graph
	weight []float64
	cost   []float64
}

func (w *weighted) wf() graph.WeightFunc { return func(e graph.EdgeID) float64 { return w.weight[e] } }
func (w *weighted) cf() graph.WeightFunc { return func(e graph.EdgeID) float64 { return w.cost[e] } }

func (w *weighted) addEdge(t *testing.T, from, to graph.NodeID, weight, cost float64) graph.EdgeID {
	t.Helper()
	e, err := w.g.AddEdge(from, to)
	if err != nil {
		t.Fatalf("AddEdge: %v", err)
	}
	w.weight = append(w.weight, weight)
	w.cost = append(w.cost, cost)
	return e
}

// threeRoutes builds a graph with three disjoint 0->3 routes:
//
//	fast:   0 -e0-> 1 -e1-> 3   length 2, cut costs 1 each
//	medium: 0 -e2-> 2 -e3-> 3   length 4, cut costs 5 each
//	slow:   0 ----e4----> 3     length 9, cut cost 9
func threeRoutes(t *testing.T) (*weighted, graph.Path) {
	t.Helper()
	w := &weighted{g: graph.New(4)}
	w.addEdge(t, 0, 1, 1, 1)
	w.addEdge(t, 1, 3, 1, 1)
	e2 := w.addEdge(t, 0, 2, 2, 5)
	e3 := w.addEdge(t, 2, 3, 2, 5)
	w.addEdge(t, 0, 3, 9, 9)
	pstar := graph.Path{
		Nodes:  []graph.NodeID{0, 2, 3},
		Edges:  []graph.EdgeID{e2, e3},
		Length: 4,
	}
	return w, pstar
}

func problemFor(w *weighted, pstar graph.Path, budget float64) Problem {
	return Problem{
		G:      w.g,
		Source: pstar.Source(),
		Dest:   pstar.Target(),
		PStar:  pstar,
		Weight: w.wf(),
		Cost:   w.cf(),
		Budget: budget,
	}
}

// assertAttackValid applies the cut and checks the attack postconditions:
// the cut is disjoint from p*, within budget, and makes p* the exclusive
// shortest path; then restores the graph.
func assertAttackValid(t *testing.T, p Problem, res Result) {
	t.Helper()
	pstarSet := p.PStar.EdgeSet()
	for _, e := range res.Removed {
		if _, on := pstarSet[e]; on {
			t.Fatalf("cut includes p* edge %d", e)
		}
	}
	if p.Budget > 0 && res.TotalCost > p.Budget+1e-9 {
		t.Fatalf("cost %v exceeds budget %v", res.TotalCost, p.Budget)
	}
	if got := TotalCost(p.Cost, res.Removed); got != res.TotalCost {
		t.Fatalf("TotalCost mismatch: reported %v, recomputed %v", res.TotalCost, got)
	}

	Apply(p.G, res.Removed)
	defer Restore(p.G, res.Removed)

	r := graph.NewRouter(p.G)
	sp, ok := r.ShortestPath(p.Source, p.Dest, p.Weight)
	if !ok {
		t.Fatal("attack disconnected source from destination")
	}
	if !sp.SameEdges(p.PStar) {
		t.Fatalf("shortest path after attack is %v, want p* %v", sp, p.PStar)
	}
	if alt, ok := r.Violating(p.Source, p.Dest, p.Weight, p.PStar, p.PStar.Length, nil); ok {
		t.Fatalf("p* is not exclusive: alternative %v vs p* length %v", alt, p.PStar.Length)
	}
}

func TestAllAlgorithmsForceTheAlternativeRoute(t *testing.T) {
	for _, alg := range Algorithms() {
		t.Run(alg.String(), func(t *testing.T) {
			w, pstar := threeRoutes(t)
			p := problemFor(w, pstar, 0)
			res, err := Run(alg, p, Options{})
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			// Forcing the medium route only requires cutting the fast one:
			// one of e0/e1.
			if len(res.Removed) != 1 {
				t.Errorf("removed %v, want exactly 1 edge", res.Removed)
			}
			assertAttackValid(t, p, res)
			// The graph must be fully restored after Run.
			if w.g.NumEnabledEdges() != w.g.NumEdges() {
				t.Error("Run left edges disabled")
			}
			if res.Runtime <= 0 {
				t.Error("runtime not recorded")
			}
			if res.Algorithm != alg {
				t.Errorf("result algorithm = %v, want %v", res.Algorithm, alg)
			}
		})
	}
}

func TestForcingSlowRouteCutsBothOthers(t *testing.T) {
	w, _ := threeRoutes(t)
	pstar := graph.Path{Nodes: []graph.NodeID{0, 3}, Edges: []graph.EdgeID{4}, Length: 9}
	p := problemFor(w, pstar, 0)
	for _, alg := range Algorithms() {
		t.Run(alg.String(), func(t *testing.T) {
			res, err := Run(alg, p, Options{})
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			// Both other routes must be severed: at least 2 cuts.
			if len(res.Removed) < 2 {
				t.Errorf("removed %v, want >= 2 edges", res.Removed)
			}
			assertAttackValid(t, p, res)
		})
	}
}

func TestPathCoverPrefersCheapEdges(t *testing.T) {
	// Fast route edges cost 1 (e0) and 100 (e1). PathCover algorithms must
	// cut e0; GreedyEdge picks by weight so it may differ.
	w := &weighted{g: graph.New(4)}
	e0 := w.addEdge(t, 0, 1, 1, 1)
	w.addEdge(t, 1, 3, 1, 100)
	e2 := w.addEdge(t, 0, 2, 2, 1)
	e3 := w.addEdge(t, 2, 3, 2, 1)
	pstar := graph.Path{Nodes: []graph.NodeID{0, 2, 3}, Edges: []graph.EdgeID{e2, e3}, Length: 4}
	p := problemFor(w, pstar, 0)

	for _, alg := range []Algorithm{AlgLPPathCover, AlgGreedyPathCover} {
		res, err := Run(alg, p, Options{})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if len(res.Removed) != 1 || res.Removed[0] != e0 {
			t.Errorf("%v removed %v (cost %v), want just cheap edge %d", alg, res.Removed, res.TotalCost, e0)
		}
	}
}

func TestBudgetEnforced(t *testing.T) {
	for _, alg := range Algorithms() {
		t.Run(alg.String(), func(t *testing.T) {
			w, pstar := threeRoutes(t)
			p := problemFor(w, pstar, 0.5) // cheapest possible cut costs 1
			_, err := Run(alg, p, Options{})
			if !errors.Is(err, ErrBudgetExceeded) {
				t.Fatalf("err = %v, want ErrBudgetExceeded", err)
			}
			if w.g.NumEnabledEdges() != w.g.NumEdges() {
				t.Error("failed run left edges disabled")
			}
		})
	}
}

func TestBudgetExactlySufficient(t *testing.T) {
	w, pstar := threeRoutes(t)
	p := problemFor(w, pstar, 1) // exactly the cheapest cut
	res, err := Run(AlgGreedyPathCover, p, Options{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	assertAttackValid(t, p, res)
}

func TestMaxRoundsInfeasible(t *testing.T) {
	w, _ := threeRoutes(t)
	pstar := graph.Path{Nodes: []graph.NodeID{0, 3}, Edges: []graph.EdgeID{4}, Length: 9}
	p := problemFor(w, pstar, 0)
	// Two routes must be cut; one round cannot do it for the naive loop.
	_, err := Run(AlgGreedyEdge, p, Options{MaxRounds: 1})
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
}

func TestAlreadyExclusive(t *testing.T) {
	// p* is already the exclusive shortest path: empty cut.
	w, _ := threeRoutes(t)
	pstar := graph.Path{Nodes: []graph.NodeID{0, 1, 3}, Edges: []graph.EdgeID{0, 1}, Length: 2}
	p := problemFor(w, pstar, 0)
	for _, alg := range Algorithms() {
		res, err := Run(alg, p, Options{})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if len(res.Removed) != 0 || res.TotalCost != 0 {
			t.Errorf("%v removed %v, want nothing", alg, res.Removed)
		}
	}
}

func TestEqualLengthTieMustBeCut(t *testing.T) {
	// Two routes of identical length: p* must be EXCLUSIVE, so the twin
	// tie route has to be cut even though it is not shorter.
	w := &weighted{g: graph.New(4)}
	w.addEdge(t, 0, 1, 1, 1)
	w.addEdge(t, 1, 3, 1, 1)
	e2 := w.addEdge(t, 0, 2, 1, 1)
	e3 := w.addEdge(t, 2, 3, 1, 1)
	pstar := graph.Path{Nodes: []graph.NodeID{0, 2, 3}, Edges: []graph.EdgeID{e2, e3}, Length: 2}
	p := problemFor(w, pstar, 0)
	for _, alg := range Algorithms() {
		res, err := Run(alg, p, Options{})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if len(res.Removed) != 1 {
			t.Errorf("%v removed %v, want 1 edge of the tie route", alg, res.Removed)
		}
		assertAttackValid(t, p, res)
	}
}

func TestValidation(t *testing.T) {
	w, pstar := threeRoutes(t)
	base := problemFor(w, pstar, 0)

	tests := []struct {
		name   string
		mutate func(*Problem)
	}{
		{"nil graph", func(p *Problem) { p.G = nil }},
		{"nil weight", func(p *Problem) { p.Weight = nil }},
		{"nil cost", func(p *Problem) { p.Cost = nil }},
		{"empty p*", func(p *Problem) { p.PStar = graph.Path{} }},
		{"wrong source", func(p *Problem) { p.Source = 1 }},
		{"wrong dest", func(p *Problem) { p.Dest = 1 }},
		{"non-simple p*", func(p *Problem) {
			p.PStar = graph.Path{Nodes: []graph.NodeID{0, 2, 0, 2, 3}, Edges: []graph.EdgeID{2, 2, 2, 3}}
		}},
		{"negative weight", func(p *Problem) {
			p.Weight = func(graph.EdgeID) float64 { return -1 }
		}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			p := base
			tt.mutate(&p)
			if _, err := Run(AlgGreedyEdge, p, Options{}); !errors.Is(err, ErrInvalidProblem) {
				t.Errorf("err = %v, want ErrInvalidProblem", err)
			}
		})
	}
}

func TestValidationDisabledPStarEdge(t *testing.T) {
	w, pstar := threeRoutes(t)
	w.g.DisableEdge(pstar.Edges[0])
	p := problemFor(w, pstar, 0)
	if _, err := Run(AlgGreedyPathCover, p, Options{}); !errors.Is(err, ErrInvalidProblem) {
		t.Errorf("err = %v, want ErrInvalidProblem", err)
	}
}

func TestRunUnknownAlgorithm(t *testing.T) {
	w, pstar := threeRoutes(t)
	if _, err := Run(Algorithm(42), problemFor(w, pstar, 0), Options{}); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

func TestPStarByRank(t *testing.T) {
	w, _ := threeRoutes(t)
	for rank, wantLen := range map[int]float64{1: 2, 2: 4, 3: 9} {
		p, err := PStarByRank(w.g, 0, 3, rank, w.wf())
		if err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
		if p.Length != wantLen {
			t.Errorf("rank %d length = %v, want %v", rank, p.Length, wantLen)
		}
	}
	if _, err := PStarByRank(w.g, 0, 3, 4, w.wf()); !errors.Is(err, ErrRankUnavailable) {
		t.Errorf("rank 4 err = %v, want ErrRankUnavailable", err)
	}
	if _, err := PStarByRank(w.g, 0, 3, 0, w.wf()); !errors.Is(err, ErrRankUnavailable) {
		t.Errorf("rank 0 err = %v, want ErrRankUnavailable", err)
	}
}

func TestNewProblemFromRoadNetwork(t *testing.T) {
	net := roadnet.NewNetwork("mini")
	a := net.AddIntersection(geo.Point{Lat: 42.0, Lon: -71.0})
	b := net.AddIntersection(geo.Point{Lat: 42.001, Lon: -71.0})
	c := net.AddIntersection(geo.Point{Lat: 42.0, Lon: -71.001})
	d := net.AddIntersection(geo.Point{Lat: 42.001, Lon: -71.001})
	mustRoad := func(x, y graph.NodeID, speed float64) {
		t.Helper()
		if _, _, err := net.AddTwoWayRoad(x, y, roadnet.Road{SpeedMS: speed, Class: roadnet.ClassSecondary}); err != nil {
			t.Fatalf("AddTwoWayRoad: %v", err)
		}
	}
	mustRoad(a, b, 20)
	mustRoad(b, d, 20)
	mustRoad(a, c, 10)
	mustRoad(c, d, 10)

	p, err := NewProblem(net, a, d, 2, roadnet.WeightTime, roadnet.CostLanes, 0)
	if err != nil {
		t.Fatalf("NewProblem: %v", err)
	}
	res, err := Run(AlgGreedyPathCover, p, Options{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	assertAttackValid(t, p, res)

	if _, err := NewProblem(net, a, d, 10000, roadnet.WeightTime, roadnet.CostLanes, 0); !errors.Is(err, ErrRankUnavailable) {
		t.Errorf("huge rank err = %v", err)
	}
}

func TestDeterminism(t *testing.T) {
	for _, alg := range Algorithms() {
		w, pstar := threeRoutes(t)
		p := problemFor(w, pstar, 0)
		r1, err1 := Run(alg, p, Options{Seed: 7})
		r2, err2 := Run(alg, p, Options{Seed: 7})
		if err1 != nil || err2 != nil {
			t.Fatalf("%v: errs %v, %v", alg, err1, err2)
		}
		if len(r1.Removed) != len(r2.Removed) {
			t.Fatalf("%v: nondeterministic cut size", alg)
		}
		for i := range r1.Removed {
			if r1.Removed[i] != r2.Removed[i] {
				t.Fatalf("%v: nondeterministic cut %v vs %v", alg, r1.Removed, r2.Removed)
			}
		}
	}
}

func TestIsExclusiveShortest(t *testing.T) {
	w, pstar := threeRoutes(t)
	p := problemFor(w, pstar, 0)
	if err := p.validate(); err != nil {
		t.Fatal(err)
	}
	if p.IsExclusiveShortest(nil) {
		t.Error("p* reported exclusive while the fast route is live")
	}
	w.g.DisableEdge(0)
	if !p.IsExclusiveShortest(nil) {
		t.Error("p* not exclusive after cutting the fast route")
	}
}

func TestApplyRestoreTotalCost(t *testing.T) {
	w, _ := threeRoutes(t)
	cut := []graph.EdgeID{0, 2}
	Apply(w.g, cut)
	if !w.g.EdgeDisabled(0) || !w.g.EdgeDisabled(2) {
		t.Error("Apply did not disable")
	}
	Restore(w.g, cut)
	if w.g.NumEnabledEdges() != w.g.NumEdges() {
		t.Error("Restore incomplete")
	}
	if got := TotalCost(w.cf(), cut); got != 6 {
		t.Errorf("TotalCost = %v, want 6", got)
	}
	if got := TotalCost(w.cf(), nil); got != 0 {
		t.Errorf("TotalCost(nil) = %v, want 0", got)
	}
}

func TestParseAlgorithmAndString(t *testing.T) {
	tests := []struct {
		in   string
		want Algorithm
	}{
		{"LP-PathCover", AlgLPPathCover},
		{"lppathcover", AlgLPPathCover},
		{"GreedyPathCover", AlgGreedyPathCover},
		{"greedyedge", AlgGreedyEdge},
		{" GreedyEig ", AlgGreedyEig},
	}
	for _, tt := range tests {
		got, err := ParseAlgorithm(tt.in)
		if err != nil || got != tt.want {
			t.Errorf("ParseAlgorithm(%q) = %v, %v", tt.in, got, err)
		}
	}
	if _, err := ParseAlgorithm("dijkstra"); err == nil {
		t.Error("bogus algorithm parsed")
	}
	if AlgLPPathCover.String() != "LP-PathCover" {
		t.Errorf("String = %q", AlgLPPathCover.String())
	}
	if !strings.Contains(Algorithm(42).String(), "42") {
		t.Error("unknown algorithm String wrong")
	}
	if len(Algorithms()) != 4 {
		t.Error("Algorithms() wrong length")
	}
}

func TestAttackPropertyRandomGraphs(t *testing.T) {
	cfg := &quick.Config{MaxCount: 25}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 8 + rng.Intn(12)
		w := &weighted{g: graph.New(n)}
		// Ring for connectivity plus chords.
		for i := 0; i < n; i++ {
			w.weight = append(w.weight, float64(1+rng.Intn(9)))
			w.cost = append(w.cost, float64(1+rng.Intn(4)))
			w.g.MustAddEdge(graph.NodeID(i), graph.NodeID((i+1)%n))
		}
		for i := 0; i < 2*n; i++ {
			a, b := rng.Intn(n), rng.Intn(n)
			if a == b {
				continue
			}
			w.weight = append(w.weight, float64(1+rng.Intn(9)))
			w.cost = append(w.cost, float64(1+rng.Intn(4)))
			w.g.MustAddEdge(graph.NodeID(a), graph.NodeID(b))
		}
		s := graph.NodeID(rng.Intn(n))
		d := graph.NodeID(rng.Intn(n))
		if s == d {
			return true
		}
		rank := 2 + rng.Intn(4)
		pstar, err := PStarByRank(w.g, s, d, rank, w.wf())
		if err != nil {
			return true // not enough paths; nothing to test
		}
		p := Problem{G: w.g, Source: s, Dest: d, PStar: pstar, Weight: w.wf(), Cost: w.cf()}

		var costs []float64
		for _, alg := range Algorithms() {
			res, err := Run(alg, p, Options{Seed: seed})
			if err != nil {
				t.Logf("seed %d alg %v: %v", seed, alg, err)
				return false
			}
			// Postconditions.
			pstarSet := pstar.EdgeSet()
			for _, e := range res.Removed {
				if _, on := pstarSet[e]; on {
					t.Logf("seed %d alg %v: cut p* edge", seed, alg)
					return false
				}
			}
			Apply(w.g, res.Removed)
			r := graph.NewRouter(w.g)
			sp, ok := r.ShortestPath(s, d, w.wf())
			exclusive := ok && sp.SameEdges(pstar)
			if exclusive {
				if _, ok2 := r.Violating(s, d, w.wf(), pstar, pstar.Length, nil); ok2 {
					exclusive = false
				}
			}
			Restore(w.g, res.Removed)
			if !exclusive {
				t.Logf("seed %d alg %v: p* not exclusive after cut", seed, alg)
				return false
			}
			if w.g.NumEnabledEdges() != w.g.NumEdges() {
				t.Logf("seed %d alg %v: graph not restored", seed, alg)
				return false
			}
			costs = append(costs, res.TotalCost)
		}
		// LP-PathCover must never beat the pool it shares with
		// GreedyPathCover by being WORSE than the naive baselines AND the
		// greedy cover simultaneously... (no strict guarantee; skip). But
		// every cost must be positive since p* was not already exclusive
		// only when cuts happened; zero cuts are fine.
		for _, c := range costs {
			if c < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}
