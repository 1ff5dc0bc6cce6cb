package overlay

// White-box tests: clique exactness against a reference restricted
// Dijkstra, the eCell customization dispatch table, the
// per-cut customization scope, and MarkStale coalescing. Black-box partition/query differentials live in the
// overlay_test package.

import (
	"container/heap"
	"context"
	"math"
	"math/rand"
	"testing"

	"altroute/internal/graph"
)

// buildFixture is a 30x40 two-way lattice with seeded random weights:
// large enough for a few dozen cells. Tests of this package cannot build
// a city, because roadnet imports overlay.
func buildFixture(t testing.TB) (*graph.Graph, *Overlay, *Metric) {
	t.Helper()
	g, snap := lattice(30, 40, 1)
	ov, err := Build(context.Background(), snap, 1)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMetric(context.Background(), ov, snap)
	if err != nil {
		t.Fatal(err)
	}
	return g, ov, m
}

// lattice returns a frozen rows x cols two-way lattice whose weights are
// drawn from [1, 2) by a generator seeded with seed.
func lattice(rows, cols int, seed int64) (*graph.Graph, *graph.Snapshot) {
	rng := rand.New(rand.NewSource(seed))
	g := graph.New(rows * cols)
	var w []float64
	add := func(u, v int) {
		g.MustAddEdge(graph.NodeID(u), graph.NodeID(v))
		w = append(w, 1+rng.Float64())
	}
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				add(r*cols+c, r*cols+c+1)
				add(r*cols+c+1, r*cols+c)
			}
			if r+1 < rows {
				add(r*cols+c, (r+1)*cols+c)
				add((r+1)*cols+c, r*cols+c)
			}
		}
	}
	return g, graph.Freeze(g, func(e graph.EdgeID) float64 { return w[e] })
}

// refItem / refHeap: a plain container/heap Dijkstra queue, deliberately
// distinct from the package's bheap so the reference cannot share a bug.
type refItem struct {
	dist float64
	node int32
}
type refHeap []refItem

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].dist != h[j].dist {
		return h[i].dist < h[j].dist
	}
	return h[i].node < h[j].node
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(refItem)) }
func (h *refHeap) Pop() any     { old := *h; n := len(old); it := old[n-1]; *h = old[:n-1]; return it }

// refRestricted computes exact within-cell distances from src, honouring
// the live disabled flags, with an independent Dijkstra.
func refRestricted(ov *Overlay, csr graph.CSRView, src, c int32) map[int32]float64 {
	dist := map[int32]float64{src: 0}
	h := &refHeap{{0, src}}
	for h.Len() > 0 {
		it := heap.Pop(h).(refItem)
		if it.dist > dist[it.node] {
			continue
		}
		for s, end := csr.FwdOff[it.node], csr.FwdOff[it.node+1]; s < end; s++ {
			if csr.Disabled[csr.FwdEdge[s]] {
				continue
			}
			v := csr.FwdTo[s]
			if ov.cell[v] != c {
				continue
			}
			nd := it.dist + csr.FwdW[s]
			if d, ok := dist[v]; !ok || nd < d {
				dist[v] = nd
				heap.Push(h, refItem{nd, v})
			}
		}
	}
	return dist
}

func TestCliqueMatchesReferenceRestrictedDijkstra(t *testing.T) {
	_, ov, m := buildFixture(t)
	checked := 0
	for c := int32(0); int(c) < ov.numCells && checked < 12; c++ {
		k := ov.boundaryCount(c)
		if k == 0 {
			continue
		}
		checked++
		b0 := ov.cellBOff[c]
		base := m.base.cliqueOff[c]
		for i := 0; i < k; i++ {
			ref := refRestricted(ov, m.csr, ov.bNode[b0+int32(i)], c)
			for j := 0; j < k; j++ {
				got := m.clique[base+int64(i*k)+int64(j)]
				want, ok := ref[ov.bNode[b0+int32(j)]]
				if !ok {
					want = math.Inf(1)
				}
				if got != want {
					t.Fatalf("cell %d clique[%d][%d] = %v, reference %v", c, i, j, got, want)
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no cells with boundaries checked")
	}
}

func TestECellDispatchTable(t *testing.T) {
	g, ov, _ := buildFixture(t)
	for e := 0; e < len(ov.eCell); e++ {
		a := g.Arc(graph.EdgeID(e))
		same := ov.cell[a.From] == ov.cell[a.To]
		if same && ov.eCell[e] != ov.cell[a.From] {
			t.Fatalf("edge %d: interior to cell %d but eCell = %d", e, ov.cell[a.From], ov.eCell[e])
		}
		if !same && ov.eCell[e] != -1 {
			t.Fatalf("edge %d: cross-cell (%d->%d) but eCell = %d", e, ov.cell[a.From], ov.cell[a.To], ov.eCell[e])
		}
	}
}

// TestSingleCutCustomizationScope is the acceptance assertion: disabling
// one interior edge recomputes exactly the one affected cell, and a
// cross-cell cut recomputes none.
func TestSingleCutCustomizationScope(t *testing.T) {
	g, ov, m := buildFixture(t)

	interior := graph.EdgeID(-1)
	cross := graph.EdgeID(-1)
	for e := range ov.eCell {
		if ov.eCell[e] >= 0 && interior < 0 {
			interior = graph.EdgeID(e)
		}
		if ov.eCell[e] < 0 && cross < 0 {
			cross = graph.EdgeID(e)
		}
	}
	if interior < 0 || cross < 0 {
		t.Skip("fixture lacks an interior or cross-cell edge")
	}

	g.DisableEdge(interior)
	if n := m.Customize(context.Background(), interior); n != 1 {
		t.Fatalf("interior cut recomputed %d cells, want 1", n)
	}
	g.EnableEdge(interior)
	if n := m.Customize(context.Background(), interior); n != 1 {
		t.Fatalf("re-enable recomputed %d cells, want 1", n)
	}

	g.DisableEdge(cross)
	if n := m.Customize(context.Background(), cross); n != 0 {
		t.Fatalf("cross-cell cut recomputed %d cells, want 0", n)
	}
	g.EnableEdge(cross)
}

func TestMarkStaleCoalescesAndSettles(t *testing.T) {
	g, ov, m := buildFixture(t)
	interior := graph.EdgeID(-1)
	for e := range ov.eCell {
		if ov.eCell[e] >= 0 {
			interior = graph.EdgeID(e)
			break
		}
	}
	if interior < 0 {
		t.Skip("fixture lacks an interior edge")
	}

	g.DisableEdge(interior)
	m.MarkStale(interior)
	g.EnableEdge(interior)
	m.MarkStale(interior) // double toggle: same cell, coalesced
	// MarkStale defers: the cell is queued once, nothing is recomputed.
	if got := m.pendingCount.Load(); got != 1 {
		t.Fatalf("Pending = %d after coalesced double toggle, want 1", got)
	}
	// settle drains the queue the way a query's ensureSettled does and
	// returns the number of cliques it recomputed.
	settle := func() int {
		m.mu.Lock()
		defer m.mu.Unlock()
		return m.drainLocked(nil)
	}
	// The toggles net out to the base state and the clique was computed
	// all-enabled, so the coalesced repair is a recognized no-op.
	if got := settle(); got != 0 {
		t.Fatalf("settle recomputed %d cells after net-zero toggle, want 0 (base skip)", got)
	}
	if got := m.pendingCount.Load(); got != 0 {
		t.Fatalf("Pending = %d after settle, want 0", got)
	}

	// A disable that sticks must still repair on settle.
	g.DisableEdge(interior)
	m.MarkStale(interior)
	if got := settle(); got != 1 {
		t.Fatalf("settle recomputed %d cells after sticking disable, want 1", got)
	}
	// And the repair back to base after re-enabling is real work too: the
	// clique bytes currently describe the cut state.
	g.EnableEdge(interior)
	m.MarkStale(interior)
	if got := settle(); got != 1 {
		t.Fatalf("settle recomputed %d cells after re-enable of dirty cell, want 1", got)
	}
}

func TestPartitionDeterministicUnderSeed(t *testing.T) {
	_, ov, m := buildFixture(t)
	again, err := Build(context.Background(), m.Snapshot(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if again.numCells != ov.numCells || again.nb != ov.nb {
		t.Fatalf("same seed, different shape: %d/%d cells, %d/%d boundaries",
			again.numCells, ov.numCells, again.nb, ov.nb)
	}
	for v := range ov.cell {
		if again.cell[v] != ov.cell[v] {
			t.Fatalf("same seed, node %d in cell %d vs %d", v, again.cell[v], ov.cell[v])
		}
	}
}

// TestSameFlags checks the chunked flag comparison against an element
// loop, with one flag flipped at every position of slices around the
// chunk size.
func TestSameFlags(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{0, 1, 1023, 1024, 1025, 2048, 3001} {
		a := make([]bool, n)
		for i := range a {
			a[i] = rng.Intn(7) == 0
		}
		b := append([]bool(nil), a...)
		if !sameFlags(a, b) {
			t.Fatalf("n=%d: equal slices reported different", n)
		}
		for i := 0; i < n; i++ {
			b[i] = !b[i]
			if sameFlags(a, b) {
				t.Fatalf("n=%d: flag %d flipped, reported equal", n, i)
			}
			b[i] = !b[i]
		}
		if n > 0 && sameFlags(a, b[:n-1]) {
			t.Fatalf("n=%d: slices of different lengths reported equal", n)
		}
	}
}
