package overlay_test

// Race suite: concurrent customize-vs-query on one shared Metric. The
// contract is that Apply (mutate-graph-and-recompute under the metric's
// write lock) may interleave with any number of readers, each owning its
// own Querier. Run under -race (the CI race job includes this package).
// Queries compare against nothing here — mid-flight results are
// whichever side of the customization they land on — the suite exists
// to prove the locking discipline, not bit-identity (the differential
// suite does that single-threaded).

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"altroute/internal/citygen"
	"altroute/internal/graph"
	"altroute/internal/overlay"
	"altroute/internal/roadnet"
)

func TestConcurrentCustomizeAndQuery(t *testing.T) {
	net, err := citygen.Build(citygen.Chicago, 0.04, 9)
	if err != nil {
		t.Fatal(err)
	}
	snap := net.Snapshot(roadnet.WeightTime)
	ov, err := overlay.Build(context.Background(), snap, 9)
	if err != nil {
		t.Fatal(err)
	}
	m, err := overlay.NewMetric(context.Background(), ov, snap)
	if err != nil {
		t.Fatal(err)
	}
	g := net.Graph()
	h := net.POIsOfKind(citygen.KindHospital)[0]
	n := net.NumIntersections()
	ctx := context.Background()

	// One interior edge per writer round; Apply holds the write lock
	// across the graph mutation and the recompute, so readers never see
	// a half-customized clique.
	var interior []graph.EdgeID
	for e := 0; e < snap.NumEdges(); e++ {
		if ov.Cell(g.Arc(graph.EdgeID(e)).From) == ov.Cell(g.Arc(graph.EdgeID(e)).To) {
			interior = append(interior, graph.EdgeID(e))
		}
		if len(interior) >= 8 {
			break
		}
	}
	if len(interior) == 0 {
		t.Skip("fixture lacks interior edges")
	}

	const readers = 4
	const rounds = 50
	var wg sync.WaitGroup

	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			e := interior[i%len(interior)]
			m.Apply(ctx, []graph.EdgeID{e}, func() { g.DisableEdge(e) })
			m.Apply(ctx, []graph.EdgeID{e}, func() { g.EnableEdge(e) })
		}
	}()

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			q := overlay.NewQuerier(m)
			rng := rand.New(rand.NewSource(seed))
			tl := q.BuildTargetLabels(h.Node)
			for i := 0; i < rounds; i++ {
				s := graph.NodeID(rng.Intn(n))
				if i%2 == 0 {
					q.QueryTo(s, tl)
				} else {
					q.Query(s, graph.NodeID(rng.Intn(n)))
				}
			}
		}(int64(100 + r))
	}
	wg.Wait()
}
