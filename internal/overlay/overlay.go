// Package overlay implements a CRP-style partition overlay over frozen
// graph snapshots: a deterministic recursive bisection of the node set
// into small cells, boundary-node identification, and per-cell clique
// matrices of boundary-to-boundary shortest distances (the "metric").
//
// The overlay accelerates the attack oracle two ways. Point-to-point
// queries build backward distance labels over the boundary graph
// (cliques + cross-cell arcs) and then run the exact flat-CSR Dijkstra
// kernel with corridor pruning: an improving offer whose distance plus
// the target-label lower bound of its cell exceeds the known upper bound
// is recorded but never pushed, so the search explores only the
// near-shortest band instead of the whole ball. Because the pruned
// kernel is the *same* kernel relaxing the *same* CSR arcs in the same
// order, outputs are bit-identical to the unpruned frozen kernels (see
// DESIGN.md §14 for the proof sketch and its float-collision caveat).
//
// The attack loop disables edges; the metric is *customized*, not
// rebuilt: a cut interior to a cell recomputes only that cell's clique,
// a cross-cell cut costs nothing (cross arcs read the live disabled
// flags the snapshot already aliases).
package overlay

import (
	"context"
	"math/rand"
	"sort"

	"altroute/internal/graph"
)

// maxCell bounds the number of nodes per leaf cell: small enough that
// within-cell restricted Dijkstras stay in cache, large enough that the
// boundary graph is much smaller than the original.
const maxCell = 64

// Overlay is the topology half of the CRP structure: the partition,
// boundary indexing, and cross-cell arc lists. It is immutable after
// Build and safe for any number of concurrent readers. It keeps no
// snapshot and reads no disabled flags: every snapshot sharing the
// frozen image it was built from (graph.Snapshot.Rebind) can use it.
// Disabled-dependent state (the cliques) lives in Base and Metric, so
// edge disables never touch the Overlay.
type Overlay struct {
	n, m int // node and edge count of the frozen image

	numCells  int
	cell      []int32 // node -> leaf cell
	cellOff   []int32 // cell -> offset into cellNodes
	cellNodes []int32 // nodes grouped by cell, ascending within each

	// Boundary nodes are endpoints of cross-cell arcs. Global boundary
	// indices are cell-major (all of cell 0's boundaries first), ascending
	// node ID within a cell, so a cell's clique rows are contiguous.
	nb       int
	bIndex   []int32 // node -> global boundary index, or -1
	bNode    []int32 // global boundary index -> node
	cellBOff []int32 // cell -> first global boundary index of that cell

	// Cross-cell arcs in CSR form over global boundary indices, forward
	// (out of gb) and reverse (into gb). Slot order within a boundary node
	// follows the snapshot's slot order, and each arc carries its original
	// edge ID so relaxations honour the live disabled flags.
	xOff  []int32
	xTo   []int32
	xEdge []int32
	xW    []float64

	rxOff  []int32
	rxFrom []int32
	rxEdge []int32
	rxW    []float64

	// eCell maps each edge to the cell containing both endpoints, or -1
	// for cross-cell edges: the customization dispatch table.
	eCell []int32

	// cellEOff/cellEdges list each cell's interior edges (CSR layout over
	// eCell): the metric's base-state repair check scans a cell's entry to
	// decide whether a queued repair is a no-op.
	cellEOff  []int32
	cellEdges []int32
}

// Build constructs the partition overlay for snap. The partition is a
// pure function of the topology and seed: recursive bisection where
// each half is grown by BFS (over the undirected adjacency, CSR slot
// order) from a seeded start node until it holds half the set. Disabled
// edges are ignored — the partition is topology-only, so disable/enable
// churn never invalidates it.
func Build(ctx context.Context, snap *graph.Snapshot, seed int64) (*Overlay, error) {
	csr := snap.View()
	n, m := csr.N, csr.M
	ov := &Overlay{n: n, m: m}

	b := &bisector{
		csr:      csr,
		rng:      rand.New(rand.NewSource(seed)),
		cell:     make([]int32, n),
		setStamp: make([]uint64, n),
		visStamp: make([]uint64, n),
		aStamp:   make([]uint64, n),
	}
	if n > 0 {
		all := make([]int32, n)
		for i := range all {
			all[i] = int32(i)
		}
		if err := b.bisect(ctx, all); err != nil {
			return nil, err
		}
	}
	ov.numCells = int(b.numCells)
	ov.cell = b.cell

	// Group nodes by cell (counting sort; nodes ascend within a cell
	// because we scan them in order).
	ov.cellOff = make([]int32, ov.numCells+1)
	for _, c := range ov.cell {
		ov.cellOff[c+1]++
	}
	for c := 0; c < ov.numCells; c++ {
		ov.cellOff[c+1] += ov.cellOff[c]
	}
	ov.cellNodes = make([]int32, n)
	cursor := append([]int32(nil), ov.cellOff[:ov.numCells]...)
	for v := 0; v < n; v++ {
		c := ov.cell[v]
		ov.cellNodes[cursor[c]] = int32(v)
		cursor[c]++
	}

	// Boundary detection and the customization dispatch table: every arc
	// appears exactly once in the forward CSR.
	ov.eCell = make([]int32, m)
	isB := make([]bool, n)
	for u := 0; u < n; u++ {
		cu := ov.cell[u]
		for i, end := csr.FwdOff[u], csr.FwdOff[u+1]; i < end; i++ {
			v := csr.FwdTo[i]
			if cv := ov.cell[v]; cv != cu {
				ov.eCell[csr.FwdEdge[i]] = -1
				isB[u] = true
				isB[v] = true
			} else {
				ov.eCell[csr.FwdEdge[i]] = cu
			}
		}
	}

	// Global boundary indices, cell-major.
	ov.bIndex = make([]int32, n)
	for i := range ov.bIndex {
		ov.bIndex[i] = -1
	}
	ov.cellBOff = make([]int32, ov.numCells+1)
	for c := 0; c < ov.numCells; c++ {
		ov.cellBOff[c] = int32(ov.nb)
		for i, end := ov.cellOff[c], ov.cellOff[c+1]; i < end; i++ {
			v := ov.cellNodes[i]
			if isB[v] {
				ov.bIndex[v] = int32(ov.nb)
				ov.bNode = append(ov.bNode, v)
				ov.nb++
			}
		}
	}
	ov.cellBOff[ov.numCells] = int32(ov.nb)

	// Per-cell interior edge lists (counting sort over eCell).
	ov.cellEOff = make([]int32, ov.numCells+1)
	for _, c := range ov.eCell {
		if c >= 0 {
			ov.cellEOff[c+1]++
		}
	}
	for c := 0; c < ov.numCells; c++ {
		ov.cellEOff[c+1] += ov.cellEOff[c]
	}
	ov.cellEdges = make([]int32, ov.cellEOff[ov.numCells])
	ecur := append([]int32(nil), ov.cellEOff[:ov.numCells]...)
	for e, c := range ov.eCell {
		if c >= 0 {
			ov.cellEdges[ecur[c]] = int32(e)
			ecur[c]++
		}
	}

	ov.buildCrossArcs(csr)
	return ov, nil
}

// buildCrossArcs assembles the forward and reverse cross-cell arc CSR
// over global boundary indices, preserving per-node slot order.
func (ov *Overlay) buildCrossArcs(csr graph.CSRView) {
	ov.xOff = make([]int32, ov.nb+1)
	ov.rxOff = make([]int32, ov.nb+1)
	for u := 0; u < csr.N; u++ {
		cu := ov.cell[u]
		for i, end := csr.FwdOff[u], csr.FwdOff[u+1]; i < end; i++ {
			if ov.cell[csr.FwdTo[i]] != cu {
				ov.xOff[ov.bIndex[u]+1]++
			}
		}
		for i, end := csr.RevOff[u], csr.RevOff[u+1]; i < end; i++ {
			if ov.cell[csr.RevFrom[i]] != cu {
				ov.rxOff[ov.bIndex[u]+1]++
			}
		}
	}
	for i := 0; i < ov.nb; i++ {
		ov.xOff[i+1] += ov.xOff[i]
		ov.rxOff[i+1] += ov.rxOff[i]
	}
	nx := ov.xOff[ov.nb]
	ov.xTo = make([]int32, nx)
	ov.xEdge = make([]int32, nx)
	ov.xW = make([]float64, nx)
	nrx := ov.rxOff[ov.nb]
	ov.rxFrom = make([]int32, nrx)
	ov.rxEdge = make([]int32, nrx)
	ov.rxW = make([]float64, nrx)
	xPos := append([]int32(nil), ov.xOff[:ov.nb]...)
	rxPos := append([]int32(nil), ov.rxOff[:ov.nb]...)
	for u := 0; u < csr.N; u++ {
		cu := ov.cell[u]
		for i, end := csr.FwdOff[u], csr.FwdOff[u+1]; i < end; i++ {
			v := csr.FwdTo[i]
			if ov.cell[v] == cu {
				continue
			}
			gb := ov.bIndex[u]
			ov.xTo[xPos[gb]] = ov.bIndex[v]
			ov.xEdge[xPos[gb]] = csr.FwdEdge[i]
			ov.xW[xPos[gb]] = csr.FwdW[i]
			xPos[gb]++
		}
		for i, end := csr.RevOff[u], csr.RevOff[u+1]; i < end; i++ {
			v := csr.RevFrom[i]
			if ov.cell[v] == cu {
				continue
			}
			gb := ov.bIndex[u]
			ov.rxFrom[rxPos[gb]] = ov.bIndex[v]
			ov.rxEdge[rxPos[gb]] = csr.RevEdge[i]
			ov.rxW[rxPos[gb]] = csr.RevW[i]
			rxPos[gb]++
		}
	}
}

// bisector carries the recursive bisection's reusable scratch.
type bisector struct {
	csr      graph.CSRView
	rng      *rand.Rand
	cell     []int32
	numCells int32

	setStamp []uint64 // node in the current set
	visStamp []uint64 // node visited by the current BFS
	aStamp   []uint64 // node assigned to side A
	cur      uint64
	queue    []int32
	order    []int32
}

// bisect assigns leaf cell IDs to set (sorted ascending), splitting it
// until leaves fit the cell bound. Halves are grown by BFS from an
// rng-chosen start; disconnected remainders reseed from the lowest
// unvisited member, so the split is total and deterministic.
func (b *bisector) bisect(ctx context.Context, set []int32) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if len(set) <= maxCell {
		id := b.numCells
		b.numCells++
		for _, v := range set {
			b.cell[v] = id
		}
		return nil
	}
	b.cur++
	cur := b.cur
	for _, v := range set {
		b.setStamp[v] = cur
	}
	half := (len(set) + 1) / 2
	b.order = b.order[:0]
	q := b.queue[:0]
	head := 0
	start := set[b.rng.Intn(len(set))]
	b.visStamp[start] = cur
	q = append(q, start)
	reseed := 0
	for len(b.order) < half {
		if head == len(q) {
			for b.visStamp[set[reseed]] == cur {
				reseed++
			}
			v := set[reseed]
			b.visStamp[v] = cur
			q = append(q, v)
		}
		u := q[head]
		head++
		b.order = append(b.order, u)
		if len(b.order) == half {
			break
		}
		for i, end := b.csr.FwdOff[u], b.csr.FwdOff[u+1]; i < end; i++ {
			v := b.csr.FwdTo[i]
			if b.setStamp[v] == cur && b.visStamp[v] != cur {
				b.visStamp[v] = cur
				q = append(q, v)
			}
		}
		for i, end := b.csr.RevOff[u], b.csr.RevOff[u+1]; i < end; i++ {
			v := b.csr.RevFrom[i]
			if b.setStamp[v] == cur && b.visStamp[v] != cur {
				b.visStamp[v] = cur
				q = append(q, v)
			}
		}
	}
	b.queue = q[:0]
	sideA := make([]int32, half)
	copy(sideA, b.order)
	for _, v := range sideA {
		b.aStamp[v] = cur
	}
	sort.Slice(sideA, func(i, j int) bool { return sideA[i] < sideA[j] })
	rest := make([]int32, 0, len(set)-half)
	for _, v := range set {
		if b.aStamp[v] != cur {
			rest = append(rest, v)
		}
	}
	if err := b.bisect(ctx, sideA); err != nil {
		return err
	}
	return b.bisect(ctx, rest)
}

// Cell returns the leaf cell containing node v.
func (ov *Overlay) Cell(v graph.NodeID) int { return int(ov.cell[v]) }

// boundaryCount returns the number of boundary nodes of cell c.
func (ov *Overlay) boundaryCount(c int32) int {
	return int(ov.cellBOff[c+1] - ov.cellBOff[c])
}
