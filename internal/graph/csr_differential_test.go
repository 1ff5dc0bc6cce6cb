package graph

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// Kernel differential tests: a router — with a snapshot attached, or
// freezing one per call — must return BIT-IDENTICAL results to the
// test-only reference kernels (reference_test.go) — same edges, same
// nodes, same float length bits — on tie-free AND massively tied graphs,
// with disabled-edge overlays, ban overlays, and mid-run DisableEdge. The
// guarantee rests on the shared (dist, then node) total heap order: any
// correct heap pops the same value sequence, so heap arity cannot show up
// in the output.

// frozenRouter returns a router for g with a fresh snapshot attached.
func frozenRouter(g *Graph, w WeightFunc) *Router {
	r := NewRouter(g)
	r.UseSnapshot(Freeze(g, w))
	return r
}

func samePath(got, want Path, gotOK, wantOK bool) bool {
	if gotOK != wantOK {
		return false
	}
	if !wantOK {
		return true
	}
	if got.Length != want.Length || !got.SameEdges(want) {
		return false
	}
	if len(got.Nodes) != len(want.Nodes) {
		return false
	}
	for i := range want.Nodes {
		if got.Nodes[i] != want.Nodes[i] {
			return false
		}
	}
	return true
}

// testGraphs yields the two weight regimes: continuous tie-free random
// graphs and a unit-weight grid where nearly everything ties.
func testGraphs(rng *rand.Rand) []struct {
	name string
	g    *Graph
	w    WeightFunc
} {
	rg, rw := randomTieFreeGraph(rng)
	gg, gw := gridGraph(4, 5)
	// Disable a few grid edges so the tied regime also covers overlays.
	for e := 0; e < gg.NumEdges(); e++ {
		if rng.Intn(12) == 0 {
			gg.DisableEdge(EdgeID(e))
		}
	}
	return []struct {
		name string
		g    *Graph
		w    WeightFunc
	}{
		{"random", rg, rw},
		{"grid", gg, gw},
	}
}

// TestFrozenPointQueriesMatchLive checks every point-to-point query —
// Dijkstra and avoiding-Dijkstra — plus the full-sweep tables against the
// reference kernels, on an attached snapshot and on a per-call freeze.
func TestFrozenPointQueriesMatchLive(t *testing.T) {
	cfg := &quick.Config{MaxCount: 80}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		for _, tc := range testGraphs(rng) {
			n := tc.g.NumNodes()
			s := NodeID(rng.Intn(n))
			tgt := NodeID(rng.Intn(n))
			ref := newRefRouter(tc.g, tc.w)
			var avoid []NodeID
			for i := 0; i < rng.Intn(4); i++ {
				avoid = append(avoid, NodeID(rng.Intn(n)))
			}
			refPot := ref.reversePotential(tgt)
			refDist := ref.distancesFrom(s)
			lp, lok := ref.shortest(s, tgt)
			for _, v := range avoid {
				if v != s && v != tgt {
					ref.nodeBan[v] = true
				}
			}
			ap, aok := ref.shortest(s, tgt)

			for _, mode := range []string{"attached", "per-call"} {
				r := NewRouter(tc.g)
				if mode == "attached" {
					r = frozenRouter(tc.g, tc.w)
				}
				fp, fok := r.ShortestPath(s, tgt, tc.w)
				if !samePath(fp, lp, fok, lok) {
					t.Logf("seed %d %s %s: ShortestPath mismatch: %v/%v vs %v/%v", seed, tc.name, mode, fp, fok, lp, lok)
					return false
				}
				fp, fok = r.ShortestPathAvoiding(s, tgt, tc.w, avoid)
				if !samePath(fp, ap, fok, aok) {
					t.Logf("seed %d %s %s: ShortestPathAvoiding mismatch", seed, tc.name, mode)
					return false
				}
				fpot := r.ReversePotential(tgt, tc.w)
				for v := 0; v < n; v++ {
					if refPot.At(NodeID(v)) != fpot.At(NodeID(v)) {
						t.Logf("seed %d %s %s: ReversePotential differs at %d", seed, tc.name, mode, v)
						return false
					}
				}
				fd := r.DistancesFrom(s, tc.w)
				for v := range refDist {
					if refDist[v] != fd[v] {
						t.Logf("seed %d %s %s: DistancesFrom differs at %d: %v vs %v", seed, tc.name, mode, v, fd[v], refDist[v])
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

// TestFrozenYenMatchesLive checks the full lazy Yen engine — attached
// snapshot and per-call freeze — path list bit-identical to refKShortest,
// eager Yen with Lawler's skip over the reference banned-spur A*, in both
// weight regimes (on ties the two must still agree exactly, even though
// the representative choice vs other algorithms is free).
func TestFrozenYenMatchesLive(t *testing.T) {
	cfg := &quick.Config{MaxCount: 60}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		for _, tc := range testGraphs(rng) {
			n := tc.g.NumNodes()
			s := NodeID(rng.Intn(n))
			tgt := NodeID(rng.Intn(n))
			k := 1 + rng.Intn(20)

			want := refKShortest(tc.g, tc.w, s, tgt, k, nil)

			if err := samePathList(frozenRouter(tc.g, tc.w).KShortest(s, tgt, k, tc.w), want); err != nil {
				t.Logf("seed %d %s: %v", seed, tc.name, err)
				return false
			}
			if err := samePathList(NewRouter(tc.g).KShortest(s, tgt, k, tc.w), want); err != nil {
				t.Logf("seed %d %s per-call freeze: %v", seed, tc.name, err)
				return false
			}

			// Exclusivity oracle with a potential cached before cuts, against
			// the reference A* oracle and the tie check. Verdicts must agree
			// everywhere; witnesses only on the tie-free graph (on ties the
			// bounded Dijkstra and A* may pick different representatives).
			if len(want) > 0 {
				refPot := newRefRouter(tc.g, tc.w).reversePotential(tgt)
				froz := frozenRouter(tc.g, tc.w)
				frozPot := froz.ReversePotential(tgt, tc.w)
				tx := tc.g.Begin()
				for e := 0; e < tc.g.NumEdges(); e++ {
					if rng.Intn(8) == 0 {
						tx.Disable(EdgeID(e))
					}
				}
				bound := want[0].Length + 1e-9*math.Max(1, want[0].Length)
				wantAlt, wantOK := refViolating(tc.g, tc.w, s, tgt, want[0], bound, refPot)
				gotAlt, gotOK := froz.Violating(s, tgt, tc.w, want[0], bound, frozPot)
				tx.Rollback()
				if gotOK != wantOK || tc.name == "random" && !samePath(gotAlt, wantAlt, gotOK, wantOK) {
					t.Logf("seed %d %s: Violating under cuts mismatch", seed, tc.name)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

// TestFrozenDisableEdgeOverlay locks in the no-rebuild contract: toggling
// edges between queries must be visible to the frozen kernels through the
// aliased disabled flags, with the snapshot pointer unchanged.
func TestFrozenDisableEdgeOverlay(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 40; trial++ {
		g, w := randomTieFreeGraph(rng)
		n := g.NumNodes()
		s := NodeID(rng.Intn(n))
		tgt := NodeID(rng.Intn(n))

		froz := frozenRouter(g, w)
		snap := froz.Snapshot()
		ref := newRefRouter(g, w)

		p, ok := froz.ShortestPath(s, tgt, w)
		if !ok || len(p.Edges) == 0 {
			continue
		}
		// Attack-round pattern: disable an edge on the current shortest
		// path, re-query, restore.
		cut := p.Edges[rng.Intn(len(p.Edges))]
		g.DisableEdge(cut)
		lp, lok := ref.shortest(s, tgt)
		fp, fok := froz.ShortestPath(s, tgt, w)
		g.EnableEdge(cut)
		if !samePath(fp, lp, fok, lok) {
			t.Fatalf("trial %d: post-disable mismatch: %v/%v vs %v/%v", trial, fp, fok, lp, lok)
		}
		if fok && fp.HasEdge(cut) {
			t.Fatalf("trial %d: frozen kernel traversed the disabled edge %d", trial, cut)
		}
		if froz.Snapshot() != snap {
			t.Fatalf("trial %d: DisableEdge forced a snapshot rebuild", trial)
		}
		// After restore the original answer comes back.
		fp, fok = froz.ShortestPath(s, tgt, w)
		if !samePath(fp, p, fok, true) {
			t.Fatalf("trial %d: post-enable answer differs from original", trial)
		}
	}
}

// TestFrozenSnapshotInvalidation: adding topology must bump the
// generation, invalidate the snapshot, and make the router rebuild it
// transparently on the next query — observing the new edge.
func TestFrozenSnapshotInvalidation(t *testing.T) {
	g := New(3)
	e01 := g.MustAddEdge(0, 1)
	e12 := g.MustAddEdge(1, 2)
	weights := map[EdgeID]float64{e01: 5, e12: 5}
	w := func(e EdgeID) float64 { return weights[e] }

	r := frozenRouter(g, w)
	old := r.Snapshot()
	if !old.Valid() {
		t.Fatal("fresh snapshot invalid")
	}
	if p, ok := r.ShortestPath(0, 2, w); !ok || p.Length != 10 {
		t.Fatalf("pre-mutation path: %v %v", p, ok)
	}

	shortcut := g.MustAddEdge(0, 2)
	weights[shortcut] = 1
	if old.Valid() {
		t.Fatal("snapshot still valid after AddEdge")
	}
	p, ok := r.ShortestPath(0, 2, w)
	if !ok || p.Length != 1 || len(p.Edges) != 1 || p.Edges[0] != shortcut {
		t.Fatalf("post-mutation path did not use the new edge: %v %v", p, ok)
	}
	if r.Snapshot() == old || !r.Snapshot().Valid() {
		t.Fatal("router did not rebuild the stale snapshot")
	}
}

// TestUnattachedRouterFreezesPerCall: without an attached snapshot —
// or with one frozen from another graph — every query freezes the graph
// under its own WeightFunc and keeps nothing, so a weight change between
// calls is seen by the next call, exactly as it would be by the
// reference kernel that reads the WeightFunc per relaxation.
func TestUnattachedRouterFreezesPerCall(t *testing.T) {
	g, _ := diamond(1, 1, 5, 5)
	weights := []float64{1, 1, 5, 5}
	w := func(e EdgeID) float64 { return weights[e] }
	for _, foreign := range []bool{false, true} {
		weights[0] = 1
		r := NewRouter(g)
		if foreign {
			other, ow := diamond(9, 9, 9, 9)
			r.UseSnapshot(Freeze(other, ow))
		}
		if p, ok := r.ShortestPath(0, 3, w); !ok || p.Length != 2 {
			t.Fatalf("foreign=%v: first query: %v %v", foreign, p, ok)
		}
		weights[0] = 100 // the upper branch now costs 101
		p, ok := r.ShortestPath(0, 3, w)
		if !ok || p.Length != 10 {
			t.Fatalf("foreign=%v: query after weight change: %v %v, want the length-10 branch", foreign, p, ok)
		}
		if paths := r.KShortest(0, 3, 2, w); len(paths) != 2 || paths[0].Length != 10 || paths[1].Length != 101 {
			t.Fatalf("foreign=%v: KShortest after weight change: %v", foreign, paths)
		}
		if !foreign && r.Snapshot() != nil {
			t.Fatalf("a query kept its per-call snapshot attached")
		}
	}
}

// TestBetweennessParallelMatchesSerial: bitwise equality with
// EdgeBetweennessCtx for several worker counts, with sampling,
// normalization, and disabled edges in the mix.
func TestBetweennessParallelMatchesSerial(t *testing.T) {
	cfg := &quick.Config{MaxCount: 40}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		for _, tc := range testGraphs(rng) {
			opts := BetweennessOptions{Normalize: rng.Intn(2) == 0}
			if rng.Intn(2) == 0 {
				n := tc.g.NumNodes()
				k := 1 + rng.Intn(n)
				for _, i := range rng.Perm(n)[:k] {
					opts.Sources = append(opts.Sources, NodeID(i))
				}
			}
			want := EdgeBetweenness(tc.g, tc.w, opts)
			snap := Freeze(tc.g, tc.w)
			for _, workers := range []int{1, 2, 5} {
				got, err := BetweennessParallel(t.Context(), snap, opts, workers)
				if err != nil {
					t.Logf("seed %d %s workers=%d: %v", seed, tc.name, workers, err)
					return false
				}
				for e := range want {
					if got[e] != want[e] {
						t.Logf("seed %d %s workers=%d: edge %d: %v vs %v (bit-identical required)",
							seed, tc.name, workers, e, got[e], want[e])
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

// TestFrozenSpurBansStayRouterLocal: two routers sharing one snapshot
// must not see each other's ban overlays — the overlay is per-router
// epoch state, not snapshot state.
func TestFrozenSpurBansStayRouterLocal(t *testing.T) {
	g, w := gridGraph(3, 4)
	snap := Freeze(g, w)
	r1 := NewRouter(g)
	r1.UseSnapshot(snap)
	r2 := NewRouter(g)
	r2.UseSnapshot(snap)

	unbanned, ok := r2.ShortestPath(0, 11, w)
	if !ok {
		t.Fatal("grid corner unreachable")
	}
	// Ban every node of r2's path on r1; r2 must be unaffected.
	p1, ok1 := r1.ShortestPathAvoiding(0, 11, w, unbanned.Nodes[1:len(unbanned.Nodes)-1])
	p2, ok2 := r2.ShortestPath(0, 11, w)
	if !samePath(p2, unbanned, ok2, true) {
		t.Fatalf("r1's bans leaked into r2: %v %v", p2, ok2)
	}
	if ok1 {
		for _, nd := range unbanned.Nodes[1 : len(unbanned.Nodes)-1] {
			for _, got := range p1.Nodes {
				if got == nd {
					t.Fatalf("avoiding query visited banned node %d", nd)
				}
			}
		}
	}
}

// TestFreezeWeightTable: the materialized weight array must agree with
// the weight function on every edge, and the reverse arrays must mirror
// the forward ones.
func TestFreezeWeightTable(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g, w := randomTieFreeGraph(rng)
	snap := Freeze(g, w)
	if snap.NumNodes() != g.NumNodes() || snap.NumEdges() != g.NumEdges() {
		t.Fatalf("snapshot dims %d/%d, graph %d/%d", snap.NumNodes(), snap.NumEdges(), g.NumNodes(), g.NumEdges())
	}
	for e := 0; e < g.NumEdges(); e++ {
		if snap.Weight(EdgeID(e)) != w(EdgeID(e)) {
			t.Fatalf("edge %d: materialized weight %v, want %v", e, snap.Weight(EdgeID(e)), w(EdgeID(e)))
		}
	}
	// Forward and reverse slot counts must both equal the edge count, and
	// each slot must be consistent with the arc table.
	for u := 0; u < g.NumNodes(); u++ {
		out := g.OutEdges(NodeID(u))
		lo, hi := snap.fwdOff[u], snap.fwdOff[u+1]
		if int(hi-lo) != len(out) {
			t.Fatalf("node %d: %d fwd slots, want %d", u, hi-lo, len(out))
		}
		for i, e := range out {
			slot := lo + int32(i)
			if EdgeID(snap.fwdEdge[slot]) != e || NodeID(snap.fwdTo[slot]) != g.To(e) || snap.fwdW[slot] != w(e) {
				t.Fatalf("node %d slot %d inconsistent", u, i)
			}
		}
		in := g.InEdges(NodeID(u))
		lo, hi = snap.revOff[u], snap.revOff[u+1]
		if int(hi-lo) != len(in) {
			t.Fatalf("node %d: %d rev slots, want %d", u, hi-lo, len(in))
		}
		for i, e := range in {
			slot := lo + int32(i)
			if EdgeID(snap.revEdge[slot]) != e || NodeID(snap.revFrom[slot]) != g.From(e) || snap.revW[slot] != w(e) {
				t.Fatalf("node %d rev slot %d inconsistent", u, i)
			}
		}
	}
	// Refresh on a valid snapshot is the identity; after topology moves it
	// is a rebuild.
	if snap.Refresh() != snap {
		t.Fatal("Refresh rebuilt a valid snapshot")
	}
	g.AddNode()
	if snap.Refresh() == snap || snap.Valid() {
		t.Fatal("Refresh did not rebuild a stale snapshot")
	}
}

// TestSnapshotReweight: after the weight function changes on some edges,
// Reweight of exactly those edges must leave every materialized array —
// per-edge, forward slots, reverse slots — equal to a fresh freeze, and
// leave the other edges alone.
func TestSnapshotReweight(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		g, w0 := randomTieFreeGraph(rng)
		weights := make([]float64, g.NumEdges())
		for e := range weights {
			weights[e] = w0(EdgeID(e))
		}
		w := func(e EdgeID) float64 { return weights[e] }
		snap := Freeze(g, w)
		var changed []EdgeID
		for e := range weights {
			if rng.Intn(3) == 0 {
				weights[e] += 1 + rng.Float64()
				changed = append(changed, EdgeID(e))
			}
		}
		snap.Reweight(changed)
		fresh := Freeze(g, w)
		for i := range fresh.w {
			if snap.w[i] != fresh.w[i] || snap.fwdW[i] != fresh.fwdW[i] || snap.revW[i] != fresh.revW[i] {
				t.Fatalf("trial %d index %d: reweighted w/fwd/rev %v/%v/%v, fresh freeze %v/%v/%v", trial, i,
					snap.w[i], snap.fwdW[i], snap.revW[i], fresh.w[i], fresh.fwdW[i], fresh.revW[i])
			}
		}
	}
}

// TestFrozenDistancesBellmanFord cross-checks the frozen full sweep
// against the independent Bellman-Ford oracle (not just the live mirror).
func TestFrozenDistancesBellmanFord(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 25; trial++ {
		g, w := randomTieFreeGraph(rng)
		weights := make([]float64, g.NumEdges())
		for e := range weights {
			weights[e] = w(EdgeID(e))
		}
		s := NodeID(rng.Intn(g.NumNodes()))
		want := bellmanFord(g, s, weights)
		got := frozenRouter(g, w).DistancesFrom(s, w)
		for v := range want {
			if got[v] != want[v] && !(math.IsInf(got[v], 1) && math.IsInf(want[v], 1)) {
				t.Fatalf("trial %d node %d: %v, want %v", trial, v, got[v], want[v])
			}
		}
	}
}
