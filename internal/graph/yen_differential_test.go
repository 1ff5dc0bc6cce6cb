package graph

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// This file retains the pre-optimization Yen implementation (goal-blind
// full Dijkstra per spur on the reference kernel, no Lawler skip,
// string-key dedup, sequential) as a test-only reference, and
// property-checks that the optimized engine returns the exact same ordered
// path list — the optimisations must be invisible in the output.
//
// The randomized graphs use continuous random weights so no two distinct
// simple paths tie: under ties the k shortest paths are not unique and both
// implementations remain correct while being free to pick different
// representatives (TestKShortestTiedWeightsLengths covers that regime by
// comparing the — still unique — length sequence).

// yenReference is the seed KShortest, verbatim except for naming and the
// reference kernel it runs on.
func yenReference(g *Graph, s, t NodeID, k int, w WeightFunc) []Path {
	if k <= 0 {
		return nil
	}
	r := newRefRouter(g, w)
	first, ok := r.shortest(s, t)
	if !ok {
		return nil
	}
	accepted := []Path{first}
	seen := map[string]struct{}{first.Key(): {}}
	var cands refCandidateHeap

	for len(accepted) < k {
		prev := accepted[len(accepted)-1]
		refSpurCandidates(r, prev, accepted, t, seen, &cands)
		if cands.Len() == 0 {
			break
		}
		best := heap.Pop(&cands).(Path)
		accepted = append(accepted, best)
	}
	return accepted
}

// refBestAlternative is the seed BestAlternative, verbatim except naming
// and the reference kernel it runs on.
func refBestAlternative(g *Graph, s, t NodeID, w WeightFunc, avoid Path) (Path, bool) {
	r := newRefRouter(g, w)
	first, ok := r.shortest(s, t)
	if !ok {
		return Path{}, false
	}
	if !first.SameEdges(avoid) {
		return first, true
	}
	seen := map[string]struct{}{avoid.Key(): {}}
	var cands refCandidateHeap
	refSpurCandidates(r, avoid, []Path{avoid}, t, seen, &cands)
	if cands.Len() == 0 {
		return Path{}, false
	}
	return heap.Pop(&cands).(Path), true
}

// refSpurCandidates is the seed deviation round: every spur index from 0,
// goal-blind banned Dijkstra, string-key dedup.
func refSpurCandidates(r *refRouter, base Path, accepted []Path, t NodeID, seen map[string]struct{}, cands *refCandidateHeap) {
	rootLen := 0.0
	for i := 0; i < len(base.Edges); i++ {
		spurNode := base.Nodes[i]
		r.banYen(base, i, accepted)
		if spur, ok := r.shortest(spurNode, t); ok {
			total := concatSpur(base, i, rootLen, spur)
			key := total.Key()
			if _, dup := seen[key]; !dup {
				seen[key] = struct{}{}
				heap.Push(cands, total)
			}
		}
		rootLen += r.w(base.Edges[i])
	}
	r.clearBans()
}

type refCandidateHeap []Path

func (h refCandidateHeap) Len() int           { return len(h) }
func (h refCandidateHeap) Less(i, j int) bool { return pathLess(h[i], h[j]) }
func (h refCandidateHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refCandidateHeap) Push(x any)        { *h = append(*h, x.(Path)) }
func (h *refCandidateHeap) Pop() any {
	old := *h
	n := len(old)
	p := old[n-1]
	*h = old[:n-1]
	return p
}

// randomTieFreeGraph builds a random directed graph with continuous edge
// weights (no two path sums collide in practice), sometimes without
// guaranteed s->t connectivity and sometimes with disabled edges, so the
// differential test also covers unreachable targets and dead subgraphs.
func randomTieFreeGraph(rng *rand.Rand) (*Graph, WeightFunc) {
	n := 4 + rng.Intn(12)
	g := New(n)
	var weights []float64
	addEdge := func(a, b NodeID) {
		g.MustAddEdge(a, b)
		weights = append(weights, 0.5+10*rng.Float64())
	}
	if rng.Intn(4) > 0 {
		// Usually seed a random chain for base connectivity.
		perm := rng.Perm(n)
		for i := 1; i < n; i++ {
			addEdge(NodeID(perm[i-1]), NodeID(perm[i]))
		}
	}
	m := rng.Intn(3 * n)
	for i := 0; i < m; i++ {
		addEdge(NodeID(rng.Intn(n)), NodeID(rng.Intn(n)))
	}
	// Occasionally disable a few edges: spur searches must respect them.
	for e := 0; e < g.NumEdges(); e++ {
		if rng.Intn(10) == 0 {
			g.DisableEdge(EdgeID(e))
		}
	}
	return g, func(e EdgeID) float64 { return weights[e] }
}

func samePathList(got, want []Path) error {
	if len(got) != len(want) {
		return fmt.Errorf("got %d paths, want %d", len(got), len(want))
	}
	for i := range want {
		if !got[i].SameEdges(want[i]) {
			return fmt.Errorf("path %d: edges %v, want %v", i, got[i].Edges, want[i].Edges)
		}
		if got[i].Length != want[i].Length {
			return fmt.Errorf("path %d: length %v, want %v (bit-identical required)", i, got[i].Length, want[i].Length)
		}
		for j, nd := range want[i].Nodes {
			if got[i].Nodes[j] != nd {
				return fmt.Errorf("path %d: node %d is %d, want %d", i, j, got[i].Nodes[j], nd)
			}
		}
	}
	return nil
}

// TestKShortestMatchesReference is the differential property test: on
// random graphs (including disabled edges and unreachable targets) the
// optimized engine returns the exact path list of the reference
// implementation.
func TestKShortestMatchesReference(t *testing.T) {
	cfg := &quick.Config{MaxCount: 120}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g, w := randomTieFreeGraph(rng)
		n := g.NumNodes()
		s := NodeID(rng.Intn(n))
		tgt := NodeID(rng.Intn(n))
		k := 1 + rng.Intn(25)

		want := yenReference(g, s, tgt, k, w)

		if err := samePathList(NewRouter(g).KShortest(s, tgt, k, w), want); err != nil {
			t.Logf("seed %d (s=%d t=%d k=%d): %v", seed, s, tgt, k, err)
			return false
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

// TestBestAlternativeMatchesReference runs the same differential check for
// the exclusivity oracle, avoiding each of the first few shortest paths:
// Violating under an infinite bound is the best alternative, and under
// the attacks' bound (the avoided path's length plus a tie epsilon) it is
// that same path when it fits and none otherwise.
func TestBestAlternativeMatchesReference(t *testing.T) {
	cfg := &quick.Config{MaxCount: 80}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g, w := randomTieFreeGraph(rng)
		n := g.NumNodes()
		s := NodeID(rng.Intn(n))
		tgt := NodeID(rng.Intn(n))

		avoids := yenReference(g, s, tgt, 3, w)
		if len(avoids) == 0 {
			avoids = []Path{{}} // unreachable: both must report !ok
		}
		for _, avoid := range avoids {
			wantPath, wantOK := refBestAlternative(g, s, tgt, w, avoid)
			r := NewRouter(g)
			gotPath, gotOK := r.Violating(s, tgt, w, avoid, math.Inf(1), nil)
			if !samePath(gotPath, wantPath, gotOK, wantOK) {
				t.Logf("seed %d: alternative %v %v, want %v %v", seed, gotPath, gotOK, wantPath, wantOK)
				return false
			}
			bound := avoid.Length + 1e-9*math.Max(1, avoid.Length)
			wantOK = wantOK && wantPath.Length <= bound
			gotPath, gotOK = r.Violating(s, tgt, w, avoid, bound, nil)
			if !samePath(gotPath, wantPath, gotOK, wantOK) {
				t.Logf("seed %d: bounded witness %v %v, want %v %v", seed, gotPath, gotOK, wantPath, wantOK)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

// TestKShortestTiedWeightsLengths covers the tie regime the differential
// test deliberately avoids: with massively tied weights the chosen
// representatives may differ, but the sorted length sequence of the k
// shortest loopless paths is unique and must match the reference exactly,
// and every structural invariant must hold.
func TestKShortestTiedWeightsLengths(t *testing.T) {
	g, w := gridGraph(4, 5)
	want := yenReference(g, 0, 19, 60, w)

	got := NewRouter(g).KShortest(0, 19, 60, w)
	if len(got) != len(want) {
		t.Fatalf("got %d paths, want %d", len(got), len(want))
	}
	seen := map[string]bool{}
	for i, p := range got {
		if p.Length != want[i].Length {
			t.Errorf("path %d length %v, want %v", i, p.Length, want[i].Length)
		}
		if !p.IsSimple() || p.Source() != 0 || p.Target() != 19 {
			t.Errorf("path %d malformed: %v", i, p)
		}
		if err := p.Validate(g); err != nil {
			t.Errorf("path %d invalid: %v", i, err)
		}
		if seen[p.Key()] {
			t.Errorf("path %d duplicates an earlier path", i)
		}
		seen[p.Key()] = true
	}
}

// TestKShortestCachedPotentialAfterDisables checks the admissibility
// argument the oracle caching relies on: a potential computed on the intact
// graph keeps Violating exact after edges are disabled.
func TestKShortestCachedPotentialAfterDisables(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		g, w := randomTieFreeGraph(rng)
		n := g.NumNodes()
		s := NodeID(rng.Intn(n))
		tgt := NodeID(rng.Intn(n))
		r := NewRouter(g)
		pot := r.ReversePotential(tgt, w)

		avoid, ok := r.ShortestPath(s, tgt, w)
		if !ok {
			continue
		}
		// Disable a few random edges after the potential snapshot.
		tx := g.Begin()
		for e := 0; e < g.NumEdges(); e++ {
			if rng.Intn(6) == 0 {
				tx.Disable(EdgeID(e))
			}
		}
		wantPath, wantOK := refBestAlternative(g, s, tgt, w, avoid)
		gotPath, gotOK := r.Violating(s, tgt, w, avoid, math.Inf(1), pot)
		tx.Rollback()

		if gotOK != wantOK {
			t.Fatalf("trial %d: ok=%v, want %v", trial, gotOK, wantOK)
		}
		if wantOK && (!gotPath.SameEdges(wantPath) || gotPath.Length != wantPath.Length) {
			t.Fatalf("trial %d: alternative %v, want %v", trial, gotPath, wantPath)
		}
	}
}

// TestKShortestWithPotentialMatches checks that a caller-supplied reverse
// potential — the registry's per-hospital cache — is invisible in the
// output: KShortestWithPotential with a precomputed potential returns the
// exact path list of KShortest, with a per-call freeze and with an
// attached snapshot, and a nil or wrong-target potential degrades to a
// plain KShortest rather than a wrong answer.
func TestKShortestWithPotentialMatches(t *testing.T) {
	cfg := &quick.Config{MaxCount: 80}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g, w := randomTieFreeGraph(rng)
		n := g.NumNodes()
		s := NodeID(rng.Intn(n))
		tgt := NodeID(rng.Intn(n))
		k := 1 + rng.Intn(20)

		want := NewRouter(g).KShortest(s, tgt, k, w)
		pot := NewRouter(g).ReversePotential(tgt, w)

		if err := samePathList(NewRouter(g).KShortestWithPotential(s, tgt, k, w, pot), want); err != nil {
			t.Logf("seed %d (per-call freeze, s=%d t=%d k=%d): %v", seed, s, tgt, k, err)
			return false
		}

		frozen := NewRouter(g)
		frozen.UseSnapshot(Freeze(g, w))
		if err := samePathList(frozen.KShortestWithPotential(s, tgt, k, w, pot), want); err != nil {
			t.Logf("seed %d (frozen, s=%d t=%d k=%d): %v", seed, s, tgt, k, err)
			return false
		}

		wrong := NewRouter(g).ReversePotential(s, w) // wrong target: must be recomputed
		if err := samePathList(NewRouter(g).KShortestWithPotential(s, tgt, k, w, wrong), want); err != nil {
			t.Logf("seed %d (wrong-target pot): %v", seed, err)
			return false
		}
		if err := samePathList(NewRouter(g).KShortestWithPotential(s, tgt, k, w, nil), want); err != nil {
			t.Logf("seed %d (nil pot): %v", seed, err)
			return false
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}
