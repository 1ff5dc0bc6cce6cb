package overlay_test

import (
	"context"
	"sync"
	"testing"
	"time"

	"altroute/internal/citygen"
	"altroute/internal/graph"
	"altroute/internal/overlay"
	"altroute/internal/roadnet"
)

var (
	benchOnce sync.Once
	benchNet  *roadnet.Network
	benchErr  error
)

// benchChicago builds (once) the city the root package's
// BenchmarkDijkstraCSR and BenchmarkOracleLoop run on: Chicago at 0.04 of
// its Table I size, seed 1.
func benchChicago(b *testing.B) *roadnet.Network {
	b.Helper()
	benchOnce.Do(func() { benchNet, benchErr = citygen.Build(citygen.Chicago, 0.04, 1) })
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchNet
}

// BenchmarkPointToPointOverlay compares the partition-overlay query layer
// against the frozen CSR kernel it replicates, on the BenchmarkDijkstraCSR
// city. "warm" amortizes one target's labels across queries (how the
// oracle uses it); "cold" cycles destinations so nearly every query pays
// the label build (the base-state label cache holds only a few dozen
// targets). All three produce bit-identical paths (see
// internal/overlay/overlay_differential_test.go) — only the work per
// query differs.
func BenchmarkPointToPointOverlay(b *testing.B) {
	net := benchChicago(b)
	w := net.Weight(roadnet.WeightTime)
	snap := net.Snapshot(roadnet.WeightTime)
	h := net.POIsOfKind(citygen.KindHospital)[0]
	n := net.NumIntersections()

	b.Run("csr", func(b *testing.B) {
		r := graph.NewRouter(net.Graph())
		r.UseSnapshot(snap)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r.ShortestPath(graph.NodeID(i%n), h.Node, w)
		}
	})

	ov, err := overlay.Build(context.Background(), snap, 1)
	if err != nil {
		b.Fatal(err)
	}
	m, err := overlay.NewMetric(context.Background(), ov, snap)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("overlay-warm", func(b *testing.B) {
		q := overlay.NewQuerier(m)
		tl := q.BuildTargetLabels(h.Node)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			q.QueryTo(graph.NodeID(i%n), tl)
		}
	})
	b.Run("overlay-cold", func(b *testing.B) {
		q := overlay.NewQuerier(m)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			q.Query(graph.NodeID(i%n), graph.NodeID((i*613+1)%n))
		}
	})
}

// BenchmarkCustomizeAfterCut measures single-cut metric customization:
// each op toggles one interior edge and eagerly recomputes the one
// affected cell's clique. build_ns is the full from-scratch overlay
// metric build for comparison; pct_of_build is the measured per-op cost
// as a percentage of it (the acceptance bound is <=10%).
func BenchmarkCustomizeAfterCut(b *testing.B) {
	net := benchChicago(b)
	g := net.Graph()
	snap := net.Snapshot(roadnet.WeightTime)
	ov, err := overlay.Build(context.Background(), snap, 1)
	if err != nil {
		b.Fatal(err)
	}
	start := time.Now() //lint:allow wallclock benchmark timing; never feeds a result
	m, err := overlay.NewMetric(context.Background(), ov, snap)
	if err != nil {
		b.Fatal(err)
	}
	build := float64(time.Since(start).Nanoseconds()) //lint:allow wallclock benchmark timing; never feeds a result
	cut := graph.EdgeID(-1)
	for e := 0; e < snap.NumEdges(); e++ {
		if a := g.Arc(graph.EdgeID(e)); ov.Cell(a.From) == ov.Cell(a.To) {
			cut = graph.EdgeID(e)
			break
		}
	}
	if cut < 0 {
		b.Skip("no interior edge")
	}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%2 == 0 {
			g.DisableEdge(cut)
		} else {
			g.EnableEdge(cut)
		}
		if recomputed := m.Customize(ctx, cut); recomputed != 1 {
			b.Fatalf("customize recomputed %d cells, want 1", recomputed)
		}
	}
	b.StopTimer()
	if b.N%2 == 1 { // loop ended on a disable: restore the shared city
		g.EnableEdge(cut)
		m.Customize(ctx, cut)
	}
	b.ReportMetric(build, "build_ns")
	if build > 0 && b.N > 0 {
		perOp := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
		b.ReportMetric(100*perOp/build, "pct_of_build")
	}
}
