package overlay_test

// Differential suite: the overlay query layer against the frozen CSR
// kernels it replicates. Queries must be bit-identical — same edges,
// same Length bits — on the intact graph, across seeded random cut
// sequences (eager customization), with cached target labels under
// disable-only cuts (deferred customization, the attack-loop usage), and
// after a SetRoad weight mutation with a rebuilt overlay. The oracle
// (Violating) must agree with the baseline on verdict and witness
// length; attack-level runs with and without the overlay must produce
// identical Results.

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"altroute/internal/citygen"
	"altroute/internal/core"
	"altroute/internal/graph"
	"altroute/internal/overlay"
	"altroute/internal/roadnet"
)

func diffFixture(t testing.TB, city citygen.City, seed int64) (*roadnet.Network, *graph.Snapshot, *overlay.Metric) {
	t.Helper()
	net, err := citygen.Build(city, 0.04, seed)
	if err != nil {
		t.Fatal(err)
	}
	snap := net.Snapshot(roadnet.WeightTime)
	ov, err := overlay.Build(context.Background(), snap, seed)
	if err != nil {
		t.Fatal(err)
	}
	m, err := overlay.NewMetric(context.Background(), ov)
	if err != nil {
		t.Fatal(err)
	}
	return net, snap, m
}

// samePathBits asserts both engines returned the same reachability, the
// same exact Length bits, and the same edge sequence.
func samePathBits(t *testing.T, label string, want graph.Path, wantOK bool, got graph.Path, gotOK bool) {
	t.Helper()
	if wantOK != gotOK {
		t.Fatalf("%s: baseline ok=%v, overlay ok=%v", label, wantOK, gotOK)
	}
	if !wantOK {
		return
	}
	if math.Float64bits(want.Length) != math.Float64bits(got.Length) {
		t.Fatalf("%s: length bits differ: baseline %v (%x), overlay %v (%x)",
			label, want.Length, math.Float64bits(want.Length), got.Length, math.Float64bits(got.Length))
	}
	if !want.SameEdges(got) {
		t.Fatalf("%s: edge sequences differ:\nbaseline %v\noverlay  %v", label, want.Edges, got.Edges)
	}
}

// pairsFor draws deterministic query endpoints spread over the graph.
func pairsFor(n int, rng *rand.Rand, count int) [][2]graph.NodeID {
	out := make([][2]graph.NodeID, 0, count)
	for len(out) < count {
		s := graph.NodeID(rng.Intn(n))
		d := graph.NodeID(rng.Intn(n))
		if s != d {
			out = append(out, [2]graph.NodeID{s, d})
		}
	}
	return out
}

func TestQueryMatchesDijkstraIntact(t *testing.T) {
	net, snap, m := diffFixture(t, citygen.Chicago, 1)
	w := net.Weight(roadnet.WeightTime)
	r := graph.NewRouter(net.Graph())
	r.UseSnapshot(snap)
	q := overlay.NewQuerier(m)

	rng := rand.New(rand.NewSource(7))
	for _, pr := range pairsFor(net.NumIntersections(), rng, 40) {
		want, wantOK := r.ShortestPath(pr[0], pr[1], w)
		got, gotOK := q.Query(pr[0], pr[1])
		samePathBits(t, "intact", want, wantOK, got, gotOK)
	}
}

// TestQueryMatchesUnderCutSequences runs 100 seeded random cut
// sequences: disable a handful of edges, eagerly customize, compare;
// re-enable, customize again, compare. Covers both customization
// directions and the disabled-arc paths of the corridor and the
// backward label sweep.
func TestQueryMatchesUnderCutSequences(t *testing.T) {
	net, snap, m := diffFixture(t, citygen.Chicago, 1)
	g := net.Graph()
	w := net.Weight(roadnet.WeightTime)
	r := graph.NewRouter(net.Graph())
	r.UseSnapshot(snap)
	q := overlay.NewQuerier(m)
	ctx := context.Background()
	numEdges := snap.NumEdges()

	for seq := 0; seq < 100; seq++ {
		rng := rand.New(rand.NewSource(int64(1000 + seq)))
		cut := make([]graph.EdgeID, 0, 5)
		for len(cut) < 5 {
			e := graph.EdgeID(rng.Intn(numEdges))
			if !g.EdgeDisabled(e) {
				g.DisableEdge(e)
				cut = append(cut, e)
			}
		}
		m.Customize(ctx, cut...)

		pairs := pairsFor(net.NumIntersections(), rng, 3)
		for _, pr := range pairs {
			want, wantOK := r.ShortestPath(pr[0], pr[1], w)
			got, gotOK := q.Query(pr[0], pr[1])
			samePathBits(t, "cut", want, wantOK, got, gotOK)
		}

		for _, e := range cut {
			g.EnableEdge(e)
		}
		m.Customize(ctx, cut...)
		for _, pr := range pairs {
			want, wantOK := r.ShortestPath(pr[0], pr[1], w)
			got, gotOK := q.Query(pr[0], pr[1])
			samePathBits(t, "restored", want, wantOK, got, gotOK)
		}
	}
}

// TestQueryToCachedLabelsUnderCuts exercises the attack-loop usage:
// target labels built once at the base state stay valid lower bounds
// while edges are only disabled, with repair deferred through MarkStale.
func TestQueryToCachedLabelsUnderCuts(t *testing.T) {
	net, snap, m := diffFixture(t, citygen.Boston, 2)
	g := net.Graph()
	w := net.Weight(roadnet.WeightTime)
	r := graph.NewRouter(net.Graph())
	r.UseSnapshot(snap)
	q := overlay.NewQuerier(m)

	h := net.POIsOfKind(citygen.KindHospital)[0]
	tl := q.BuildTargetLabels(h.Node)
	rng := rand.New(rand.NewSource(11))
	numEdges := snap.NumEdges()

	var cut []graph.EdgeID
	for round := 0; round < 20; round++ {
		e := graph.EdgeID(rng.Intn(numEdges))
		if !g.EdgeDisabled(e) {
			g.DisableEdge(e)
			m.MarkStale(e) // deferred: the next clique read settles it
			cut = append(cut, e)
		}
		for _, pr := range pairsFor(net.NumIntersections(), rng, 2) {
			want, wantOK := r.ShortestPath(pr[0], h.Node, w)
			got, gotOK := q.QueryTo(pr[0], tl)
			samePathBits(t, "cached-labels", want, wantOK, got, gotOK)
		}
	}
	for _, e := range cut {
		g.EnableEdge(e)
	}
	m.Customize(context.Background(), cut...)
}

// TestViolatingMatchesBaselineOracle compares the overlay oracle with
// the baseline (BestAlternativeWithPotential + tie comparison) round by
// round through a simulated attack: verdicts must agree and witness
// lengths must carry identical bits. Witness edges are compared too —
// the fixture's jittered weights leave no float-length ties.
func TestViolatingMatchesBaselineOracle(t *testing.T) {
	net, snap, m := diffFixture(t, citygen.Chicago, 3)
	g := net.Graph()
	w := net.Weight(roadnet.WeightTime)
	r := graph.NewRouter(net.Graph())
	r.UseSnapshot(snap)
	q := overlay.NewQuerier(m)

	h := net.POIsOfKind(citygen.KindHospital)[0]
	rng := rand.New(rand.NewSource(21))
	src := graph.NodeID(rng.Intn(net.NumIntersections()))
	paths := r.KShortest(src, h.Node, 12, w)
	if len(paths) < 12 {
		t.Skip("fixture too thin for rank 12")
	}
	pstar := paths[11]
	tieEps := 1e-9 * math.Max(1, pstar.Length)
	pot := r.ReversePotential(h.Node, w)
	tl := q.BuildTargetLabels(h.Node)

	baseline := func() (graph.Path, bool) {
		alt, ok := r.BestAlternativeWithPotential(src, h.Node, w, pstar, pot)
		if !ok || alt.Length > pstar.Length+tieEps {
			return graph.Path{}, false
		}
		return alt, true
	}

	pstarSet := pstar.EdgeSet()
	var cut []graph.EdgeID
	for round := 0; round < 40; round++ {
		wantPath, want := baseline()
		gotPath, got := q.Violating(src, h.Node, pstar, tieEps, tl)
		if want != got {
			t.Fatalf("round %d: baseline verdict %v, overlay %v", round, want, got)
		}
		if !want {
			break
		}
		samePathBits(t, "witness", wantPath, true, gotPath, true)

		// Cut the cheapest witness edge off p*, the GreedyEdge move.
		best := graph.InvalidEdge
		for _, e := range wantPath.Edges {
			if _, on := pstarSet[e]; on {
				continue
			}
			if best == graph.InvalidEdge || w(e) < w(best) {
				best = e
			}
		}
		if best == graph.InvalidEdge {
			break
		}
		g.DisableEdge(best)
		m.MarkStale(best)
		cut = append(cut, best)
	}
	if len(cut) == 0 {
		t.Fatal("attack simulation never cut an edge")
	}
	for _, e := range cut {
		g.EnableEdge(e)
	}
	m.Customize(context.Background(), cut...)
}

// TestQueryAfterSetRoadRebuild mutates a road (generation bump: the old
// materialized weights go stale), rebuilds snapshot + overlay + metric,
// and verifies queries still match a fresh baseline.
func TestQueryAfterSetRoadRebuild(t *testing.T) {
	net, _, _ := diffFixture(t, citygen.SanFrancisco, 4)
	road := net.Road(0)
	road.SpeedMS = road.SpeedMS / 3
	if err := net.SetRoad(0, road); err != nil {
		t.Fatal(err)
	}

	snap := net.Snapshot(roadnet.WeightTime) // refrozen under the new weights
	ov, err := overlay.Build(context.Background(), snap, 4)
	if err != nil {
		t.Fatal(err)
	}
	m, err := overlay.NewMetric(context.Background(), ov)
	if err != nil {
		t.Fatal(err)
	}
	w := net.Weight(roadnet.WeightTime)
	r := graph.NewRouter(net.Graph())
	r.UseSnapshot(snap)
	q := overlay.NewQuerier(m)

	rng := rand.New(rand.NewSource(31))
	for _, pr := range pairsFor(net.NumIntersections(), rng, 20) {
		want, wantOK := r.ShortestPath(pr[0], pr[1], w)
		got, gotOK := q.Query(pr[0], pr[1])
		samePathBits(t, "post-SetRoad", want, wantOK, got, gotOK)
	}
}

// TestAttackResultsIdenticalWithOverlay runs full attacks with and
// without Problem.Overlay: Removed sets, costs, and round counts must be
// identical for every algorithm.
func TestAttackResultsIdenticalWithOverlay(t *testing.T) {
	net, snap, m := diffFixture(t, citygen.Chicago, 5)
	w := net.Weight(roadnet.WeightTime)
	cost := net.Cost(roadnet.CostUniform)
	r := graph.NewRouter(net.Graph())
	r.UseSnapshot(snap)

	h := net.POIsOfKind(citygen.KindHospital)[0]
	rng := rand.New(rand.NewSource(41))
	var pstar graph.Path
	var src graph.NodeID
	for tries := 0; tries < 50; tries++ {
		src = graph.NodeID(rng.Intn(net.NumIntersections()))
		paths := r.KShortest(src, h.Node, 10, w)
		if len(paths) == 10 {
			pstar = paths[9]
			break
		}
	}
	if pstar.Empty() {
		t.Skip("no rank-10 p* found")
	}

	q := overlay.NewQuerier(m)
	for _, alg := range core.Algorithms() {
		base := core.Problem{
			G: net.Graph(), Source: src, Dest: h.Node, PStar: pstar,
			Weight: w, Cost: cost, Snapshot: snap,
		}
		withOv := base
		withOv.Overlay = q

		resBase, errBase := core.Run(alg, base, core.Options{Seed: 5})
		resOv, errOv := core.Run(alg, withOv, core.Options{Seed: 5})
		if (errBase == nil) != (errOv == nil) {
			t.Fatalf("%s: baseline err=%v, overlay err=%v", alg, errBase, errOv)
		}
		if errBase != nil {
			continue
		}
		if len(resBase.Removed) != len(resOv.Removed) {
			t.Fatalf("%s: removed %d vs %d edges", alg, len(resBase.Removed), len(resOv.Removed))
		}
		for i := range resBase.Removed {
			if resBase.Removed[i] != resOv.Removed[i] {
				t.Fatalf("%s: removed[%d] = %d vs %d", alg, i, resBase.Removed[i], resOv.Removed[i])
			}
		}
		if math.Float64bits(resBase.TotalCost) != math.Float64bits(resOv.TotalCost) {
			t.Fatalf("%s: total cost %v vs %v", alg, resBase.TotalCost, resOv.TotalCost)
		}
		if resBase.Rounds != resOv.Rounds {
			t.Fatalf("%s: rounds %d vs %d", alg, resBase.Rounds, resOv.Rounds)
		}
	}
}
