package graph

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// gridGraph builds a rows x cols bidirectional lattice with unit weights.
func gridGraph(rows, cols int) (*Graph, WeightFunc) {
	g := New(rows * cols)
	id := func(r, c int) NodeID { return NodeID(r*cols + c) }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				g.MustAddEdge(id(r, c), id(r, c+1))
				g.MustAddEdge(id(r, c+1), id(r, c))
			}
			if r+1 < rows {
				g.MustAddEdge(id(r, c), id(r+1, c))
				g.MustAddEdge(id(r+1, c), id(r, c))
			}
		}
	}
	return g, func(EdgeID) float64 { return 1 }
}

func TestKShortestSmall(t *testing.T) {
	// 0->1->3 (len 2), 0->2->3 (len 3), 0->3 (len 4).
	g := New(4)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(1, 3)
	g.MustAddEdge(0, 2)
	g.MustAddEdge(2, 3)
	g.MustAddEdge(0, 3)
	weights := []float64{1, 1, 1, 2, 4}
	w := func(e EdgeID) float64 { return weights[e] }

	paths := NewRouter(g).KShortest(0, 3, 10, w)
	if len(paths) != 3 {
		t.Fatalf("KShortest returned %d paths, want 3", len(paths))
	}
	wantLens := []float64{2, 3, 4}
	for i, want := range wantLens {
		if paths[i].Length != want {
			t.Errorf("path %d length = %v, want %v", i, paths[i].Length, want)
		}
	}
}

func TestKShortestZeroAndNegativeK(t *testing.T) {
	g, w := gridGraph(2, 2)
	r := NewRouter(g)
	if got := r.KShortest(0, 3, 0, w); got != nil {
		t.Errorf("k=0 returned %d paths", len(got))
	}
	if got := r.KShortest(0, 3, -5, w); got != nil {
		t.Errorf("k<0 returned %d paths", len(got))
	}
}

func TestKShortestUnreachable(t *testing.T) {
	g := New(2)
	r := NewRouter(g)
	if got := r.KShortest(0, 1, 5, func(EdgeID) float64 { return 1 }); got != nil {
		t.Errorf("unreachable target returned %d paths", len(got))
	}
}

func TestKShortestGridProperties(t *testing.T) {
	g, w := gridGraph(4, 4)
	r := NewRouter(g)
	paths := r.KShortest(0, 15, 30, w)
	if len(paths) != 30 {
		t.Fatalf("got %d paths, want 30 (4x4 grid has plenty)", len(paths))
	}
	if !sort.SliceIsSorted(paths, func(i, j int) bool { return paths[i].Length < paths[j].Length }) {
		t.Error("paths not sorted by length")
	}
	seen := map[string]struct{}{}
	for i, p := range paths {
		if p.Source() != 0 || p.Target() != 15 {
			t.Errorf("path %d endpoints = %d->%d", i, p.Source(), p.Target())
		}
		if !p.IsSimple() {
			t.Errorf("path %d is not simple: %v", i, p)
		}
		if err := p.Validate(g); err != nil {
			t.Errorf("path %d invalid: %v", i, err)
		}
		key := p.Key()
		if _, dup := seen[key]; dup {
			t.Errorf("path %d duplicates an earlier path", i)
		}
		seen[key] = struct{}{}
	}
	// Shortest in a 4x4 unit grid from corner to corner is 6 hops.
	if paths[0].Length != 6 {
		t.Errorf("shortest length = %v, want 6", paths[0].Length)
	}
}

func TestBestAlternativeReturnsSecondPath(t *testing.T) {
	g := New(4)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(1, 3)
	g.MustAddEdge(0, 2)
	g.MustAddEdge(2, 3)
	weights := []float64{1, 1, 2, 2}
	w := func(e EdgeID) float64 { return weights[e] }
	r := NewRouter(g)

	best, _ := r.ShortestPath(0, 3, w)
	alt, ok := r.Violating(0, 3, w, best, math.Inf(1), nil)
	if !ok {
		t.Fatal("no alternative found")
	}
	if alt.SameEdges(best) {
		t.Fatal("alternative equals avoided path")
	}
	if alt.Length != 4 {
		t.Errorf("alternative length = %v, want 4", alt.Length)
	}

	// Avoiding a non-shortest path returns the shortest path.
	got, ok := r.Violating(0, 3, w, alt, math.Inf(1), nil)
	if !ok || !got.SameEdges(best) {
		t.Errorf("Violating(avoid=second) = %v, ok=%v, want shortest", got, ok)
	}

	// Under a bound below the second path's length, p* = best is exclusive.
	if got, ok := r.Violating(0, 3, w, best, 3.5, nil); ok {
		t.Errorf("Violating(bound 3.5) = %v, want none", got)
	}
}

func TestBestAlternativeNoneExists(t *testing.T) {
	g := New(2)
	g.MustAddEdge(0, 1)
	w := func(EdgeID) float64 { return 1 }
	r := NewRouter(g)
	only, _ := r.ShortestPath(0, 1, w)
	if _, ok := r.Violating(0, 1, w, only, math.Inf(1), nil); ok {
		t.Error("found alternative in a single-path graph")
	}
}

func TestKShortestMatchesBruteForceProperty(t *testing.T) {
	cfg := &quick.Config{MaxCount: 40}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(5) // small: brute force enumerates all simple paths
		g, weights := randomGraph(rng, n, n)
		w := func(e EdgeID) float64 { return weights[e] }
		s, tgt := NodeID(0), NodeID(n-1)

		want := allSimplePathLengths(g, s, tgt, weights)
		k := len(want) + 2
		got := NewRouter(g).KShortest(s, tgt, k, w)
		if len(got) != len(want) {
			t.Logf("seed %d: got %d paths, brute force %d", seed, len(got), len(want))
			return false
		}
		for i := range want {
			if got[i].Length != want[i] {
				t.Logf("seed %d: path %d length %v, want %v", seed, i, got[i].Length, want[i])
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

// allSimplePathLengths enumerates every simple s->t path by DFS and returns
// the sorted lengths.
func allSimplePathLengths(g *Graph, s, t NodeID, weights []float64) []float64 {
	var out []float64
	onPath := make([]bool, g.NumNodes())
	var dfs func(u NodeID, length float64)
	dfs = func(u NodeID, length float64) {
		if u == t {
			out = append(out, length)
			return
		}
		onPath[u] = true
		for _, e := range g.OutEdges(u) {
			if g.EdgeDisabled(e) {
				continue
			}
			v := g.To(e)
			if !onPath[v] {
				dfs(v, length+weights[e])
			}
		}
		onPath[u] = false
	}
	if s == t {
		return []float64{0}
	}
	dfs(s, 0)
	sort.Float64s(out)
	return out
}

// TestKShortestReusesRouter checks that one router stays deterministic
// across repeated queries, for the same target and for a different one in
// between: the ban epochs and scratch arrays are reused between calls,
// and every path list must still match the reference engine.
func TestKShortestReusesRouter(t *testing.T) {
	g, w := gridGraph(7, 7)
	want := refKShortest(g, w, 0, 48, 25, nil)
	other := refKShortest(g, w, 6, 42, 25, nil)
	r := NewRouter(g)
	for i := 0; i < 3; i++ {
		if err := samePathList(r.KShortest(0, 48, 25, w), want); err != nil {
			t.Fatalf("repeat %d: %v", i, err)
		}
		if err := samePathList(r.KShortest(6, 42, 25, w), other); err != nil {
			t.Fatalf("repeat %d, other pair: %v", i, err)
		}
	}
}

// TestSpurSearchSealedCheck drives the banned-spur A* on a graph where a
// banned node b is the target's cheap way in: s leads one-way into a
// 200-node region whose only exit is b, and separately along a costly
// five-node corridor to t. The A* pops the whole region first (its
// f-values are lowest), so the reverse reachability check from t runs
// long enough to matter. Open corridor: the check must meet s and leave
// the search to find the corridor. Corridor cut: t is sealed off, and the
// search must stop with no path before it has popped the region.
func TestSpurSearchSealedCheck(t *testing.T) {
	const region, corridor = 200, 5
	g := New(3 + region + corridor)
	s, tgt, b := NodeID(0), NodeID(1), NodeID(2)
	var weights []float64
	add := func(from, to NodeID, w float64) EdgeID {
		weights = append(weights, w)
		return g.MustAddEdge(from, to)
	}
	add(b, tgt, 1)
	add(s, 3, 1)
	for i := 0; i < region; i++ {
		n := NodeID(3 + i)
		add(n, b, 1)
		if i+1 < region {
			add(n, n+1, 0.001)
		}
	}
	var cut EdgeID
	prev := s
	for i := 0; i < corridor; i++ {
		n := NodeID(3 + region + i)
		e := add(prev, n, 2)
		if i == 2 {
			cut = e
		}
		prev = n
	}
	add(prev, tgt, 2)
	w := func(e EdgeID) float64 { return weights[e] }

	r := NewRouter(g)
	r.grow()
	search := func() (Path, bool) {
		c := r.csr(w)
		pot := r.reversePotential(c, tgt)
		r.clearBans()
		r.banNode(b)
		return r.shortestAStar(c, s, tgt, pot, true)
	}
	p, ok := search()
	if !ok || len(p.Edges) != corridor+1 || p.Length != 2*(corridor+1) {
		t.Fatalf("open corridor: got ok=%v, %d edges, length %v; want the %d-edge corridor of length %d",
			ok, len(p.Edges), p.Length, corridor+1, 2*(corridor+1))
	}
	g.DisableEdge(cut)
	if _, ok := search(); ok {
		t.Fatal("sealed target: search returned a path")
	}
	if len(r.heap) == 0 {
		t.Error("sealed target: the search emptied its heap instead of stopping at the sealed check")
	}
}
