package graph

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

// memoGraph builds a seeded random digraph with a ring (so every node has
// in- and out-edges) and a few permanently removed edges, the shape a
// city has after POI splitting.
func memoGraph(seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	const n = 60
	g := New(n)
	for i := 0; i < n; i++ {
		g.MustAddEdge(NodeID(i), NodeID((i+1)%n))
	}
	for i := 0; i < 4*n; i++ {
		g.MustAddEdge(NodeID(rng.Intn(n)), NodeID(rng.Intn(n)))
	}
	for i := 0; i < 5; i++ {
		g.RemoveEdgePermanently(EdgeID(n + rng.Intn(4*n)))
	}
	return g
}

// sameBits fails unless got and want are bit-identical.
func sameBits(t *testing.T, label string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d scores, want %d", label, len(got), len(want))
	}
	for e := range want {
		if math.Float64bits(got[e]) != math.Float64bits(want[e]) {
			t.Fatalf("%s: edge %d scores %v, want %v", label, e, got[e], want[e])
		}
	}
}

// sameSlice reports whether a and b are the same backing array.
func sameSlice(a, b []float64) bool { return len(a) > 0 && len(b) > 0 && &a[0] == &b[0] }

func TestSharedEigenScoresMatchFresh(t *testing.T) {
	g := memoGraph(1)
	fresh := EdgeEigenScores(g, EigenOptions{})
	shared := SharedEdgeEigenScores(g)
	sameBits(t, "shared", shared, fresh)
	if sameSlice(shared, fresh) {
		t.Fatal("EdgeEigenScores returned the memo's slice")
	}
	if again := SharedEdgeEigenScores(g); !sameSlice(again, shared) {
		t.Fatal("second base-state call recomputed instead of reading the memo")
	}
	if again := EdgeEigenScores(g, EigenOptions{}); sameSlice(again, shared) {
		t.Fatal("EdgeEigenScores must keep returning a fresh slice")
	}
}

func TestSharedEigenScoresOffBaseStateComputeFresh(t *testing.T) {
	g := memoGraph(2)
	var e EdgeID
	for g.EdgeDisabled(e) {
		e++
	}

	// Off the base state before the memo exists: the fresh path runs and
	// leaves the memo unfilled.
	tx := g.Begin()
	tx.Disable(e)
	off := SharedEdgeEigenScores(g)
	sameBits(t, "off-base", off, EdgeEigenScores(g, EigenOptions{}))
	if off[e] != 0 {
		t.Fatalf("disabled edge %d scored %v", e, off[e])
	}
	if m := g.eig.Load(); m != nil && m.scores != nil {
		t.Fatal("an off-base-state call filled the memo")
	}
	tx.Rollback()

	// With the memo filled, an off-base call neither reads nor overwrites it.
	base := SharedEdgeEigenScores(g)
	want := append([]float64(nil), base...)
	tx.Disable(e)
	off = SharedEdgeEigenScores(g)
	if sameSlice(off, base) {
		t.Fatal("off-base-state call returned the memo")
	}
	sameBits(t, "off-base with memo", off, EdgeEigenScores(g, EigenOptions{}))
	tx.Rollback()
	again := SharedEdgeEigenScores(g)
	if !sameSlice(again, base) {
		t.Fatal("memo was replaced by an off-base-state call")
	}
	sameBits(t, "memo after off-base call", again, want)
}

func TestEigenMemoSurvivesSiblingMutation(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(*Graph)
	}{
		{"AddEdge", func(g *Graph) { g.MustAddEdge(0, 7) }},
		{"AddNode", func(g *Graph) { g.MustAddEdge(g.AddNode(), 3) }},
		{"Grow", func(g *Graph) { g.Grow(g.NumNodes() + 2) }},
		{"RemoveEdgePermanently", func(g *Graph) {
			var e EdgeID
			for g.EdgeDisabled(e) {
				e++
			}
			g.RemoveEdgePermanently(e)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, mutateClone := range []bool{true, false} {
				master := memoGraph(3)
				base := SharedEdgeEigenScores(master)
				want := append([]float64(nil), base...)
				clone := master.Clone()
				if !sameSlice(SharedEdgeEigenScores(clone), base) {
					t.Fatal("clone does not share its master's memo")
				}

				mutated, kept := master, clone
				if mutateClone {
					mutated, kept = clone, master
				}
				tc.mutate(mutated)
				if mutated.eig.Load() != nil {
					t.Fatal("mutation left the graph on a memo (or allocated a new one)")
				}
				got := SharedEdgeEigenScores(mutated)
				if sameSlice(got, base) {
					t.Fatal("mutated graph still reads the shared memo")
				}
				sameBits(t, "mutated", got, EdgeEigenScores(mutated, EigenOptions{}))
				if !sameSlice(SharedEdgeEigenScores(kept), base) {
					t.Fatal("mutating one graph dropped its sibling's memo")
				}
				sameBits(t, "sibling memo", base, want)
			}
		})
	}
}

func TestRemoveEdgePermanentlyTwiceKeepsBaseState(t *testing.T) {
	g := memoGraph(4)
	g.RemoveEdgePermanently(3)
	g.RemoveEdgePermanently(3)
	if g.nDown != g.nLocked {
		t.Fatalf("nDown %d != nLocked %d after locking one edge twice", g.nDown, g.nLocked)
	}
	g.ResetDisabled()
	if g.nDown != g.nLocked || !g.EdgeDisabled(3) {
		t.Fatal("ResetDisabled left the graph off its base state")
	}
}

// TestSharedEigenScoresConcurrentClones: goroutines clone one master and
// score their clone at the same time (the experiment workers' and the
// shard pool's pattern). Run under -race.
func TestSharedEigenScoresConcurrentClones(t *testing.T) {
	master := memoGraph(5)
	want := EdgeEigenScores(master, EigenOptions{})
	const workers = 8
	got := make([][]float64, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = SharedEdgeEigenScores(master.Clone())
		}()
	}
	wg.Wait()
	for i := range got {
		sameBits(t, "clone", got[i], want)
		if !sameSlice(got[i], got[0]) {
			t.Fatalf("clone %d computed its own scores instead of sharing the memo", i)
		}
	}
	if !sameSlice(SharedEdgeEigenScores(master), got[0]) {
		t.Fatal("master does not share the memo its clones filled")
	}
}
