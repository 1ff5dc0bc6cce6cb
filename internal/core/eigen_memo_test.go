package core

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"altroute/internal/citygen"
	"altroute/internal/graph"
	"altroute/internal/roadnet"
)

const (
	memoCityScale = 0.03
	memoCitySeed  = 11
)

// memoCity builds the differential fixture city. Every call builds a new
// city that has never been scored: its first GreedyEig computes the
// eigenscores exactly as a lone attack always has.
func memoCity(t *testing.T) *roadnet.Network {
	t.Helper()
	net, err := citygen.Build(citygen.Boston, memoCityScale, memoCitySeed)
	if err != nil {
		t.Fatalf("citygen.Build: %v", err)
	}
	return net
}

// memoProblems picks one rank-8 problem per hospital, with seeded sources.
func memoProblems(t *testing.T, net *roadnet.Network) []Problem {
	t.Helper()
	rng := rand.New(rand.NewSource(memoCitySeed))
	w := net.Weight(roadnet.WeightTime)
	var out []Problem
	for _, h := range net.POIsOfKind(citygen.KindHospital) {
		for try := 0; try < 20; try++ {
			s := graph.NodeID(rng.Intn(net.NumIntersections()))
			pstar, err := PStarByRank(net.Graph(), s, h.Node, 8, w)
			if err != nil {
				continue
			}
			out = append(out, Problem{Source: s, Dest: h.Node, PStar: pstar})
			break
		}
	}
	if len(out) < 3 {
		t.Fatalf("fixture has only %d problems", len(out))
	}
	return out
}

// on binds a problem template to net's graph, TIME weights and cost ct.
func on(net *roadnet.Network, p Problem, ct roadnet.CostType) Problem {
	p.G = net.Graph()
	p.Weight = net.Weight(roadnet.WeightTime)
	p.Cost = net.Cost(ct)
	return p
}

func sameGreedyEig(t *testing.T, label string, got, want Result, errGot, errWant error) {
	t.Helper()
	if errGot != nil || errWant != nil {
		t.Fatalf("%s: err %v, want %v", label, errGot, errWant)
	}
	if !reflect.DeepEqual(got.Removed, want.Removed) ||
		math.Float64bits(got.TotalCost) != math.Float64bits(want.TotalCost) ||
		got.Rounds != want.Rounds {
		t.Fatalf("%s: removed %v cost %v rounds %d, want %v cost %v rounds %d",
			label, got.Removed, got.TotalCost, got.Rounds, want.Removed, want.TotalCost, want.Rounds)
	}
}

// TestGreedyEigSharedScoresMatchUnscoredCity: attacks that read the
// eigenscores from the graph's shared memo return exactly what the same
// attack returns on an independently built city that was never scored
// (a clone would share the memo, so the reference is rebuilt each time).
func TestGreedyEigSharedScoresMatchUnscoredCity(t *testing.T) {
	master := memoCity(t)
	problems := memoProblems(t, master)
	clone := master.Clone()
	cut := 0
	for _, ct := range roadnet.CostTypes() {
		for _, recompute := range []bool{false, true} {
			opts := Options{RecomputeEigen: recompute}
			for i, p := range problems {
				got, errGot := Run(AlgGreedyEig, on(clone, p, ct), opts)
				want, errWant := Run(AlgGreedyEig, on(memoCity(t), p, ct), opts)
				sameGreedyEig(t, ct.String()+" repeated attacks on one clone", got, want, errGot, errWant)
				if i == 0 && len(got.Removed) > 0 {
					cut++
				}
			}
		}
	}
	if cut == 0 {
		t.Fatal("no attack cut anything; the fixture does not exercise the scores")
	}
	if !sameSliceStart(graph.SharedEdgeEigenScores(clone.Graph()), graph.SharedEdgeEigenScores(master.Graph())) {
		t.Fatal("the clone's attacks did not use the master's shared memo")
	}
}

// TestGreedyEigPreCutTakesFreshPath: a graph with an edge already cut is
// off its base state, so GreedyEig scores it fresh, matches an unscored
// city with the same cut, and leaves the shared memo as it was.
func TestGreedyEigPreCutTakesFreshPath(t *testing.T) {
	master := memoCity(t)
	problems := memoProblems(t, master)
	clone := master.Clone()
	memo := graph.SharedEdgeEigenScores(master.Graph())
	before := append([]float64(nil), memo...)

	p := problems[0]
	onPStar := p.PStar.EdgeSet()
	preCut := graph.InvalidEdge
	shortest, _ := graph.NewRouter(master.Graph()).ShortestPath(p.Source, p.Dest, master.Weight(roadnet.WeightTime))
	for _, e := range shortest.Edges {
		if _, inPStar := onPStar[e]; !inPStar {
			preCut = e
			break
		}
	}
	if preCut == graph.InvalidEdge {
		t.Fatal("shortest path has no edge off p*")
	}
	for _, ct := range roadnet.CostTypes() {
		for _, recompute := range []bool{false, true} {
			opts := Options{RecomputeEigen: recompute}
			clone.Graph().DisableEdge(preCut)
			got, errGot := Run(AlgGreedyEig, on(clone, p, ct), opts)
			clone.Graph().EnableEdge(preCut)

			ref := memoCity(t)
			ref.Graph().DisableEdge(preCut)
			want, errWant := Run(AlgGreedyEig, on(ref, p, ct), opts)
			sameGreedyEig(t, ct.String()+" pre-cut", got, want, errGot, errWant)
		}
	}
	after := graph.SharedEdgeEigenScores(clone.Graph())
	if !sameSliceStart(after, memo) || !reflect.DeepEqual(after, before) {
		t.Fatal("a pre-cut attack replaced or changed the shared memo")
	}
}

func sameSliceStart(a, b []float64) bool { return len(a) > 0 && len(b) > 0 && &a[0] == &b[0] }
