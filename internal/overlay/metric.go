package overlay

import (
	"context"
	"math"
	"sync"
	"sync/atomic"

	"altroute/internal/graph"
)

// Metric is the weight half of the CRP structure: per-cell clique
// matrices of boundary-to-boundary shortest distances restricted to the
// cell's interior, honouring the live disabled flags at computation
// time. Cliques are exact distances, so label sweeps over the boundary
// graph compute exact overlay distances — which is what makes corridor
// pruning lossless.
//
// Concurrency: queries take the read lock for their whole run (the
// corridor reads the live disabled flags); MarkStale and the deferred
// clique repair take the write lock. A graph edge disabled or enabled
// while Queriers of the same Metric run must be toggled under that write
// lock too (the race suite's Apply helper does it), or a query can see
// a torn state.
type Metric struct {
	ov *Overlay

	mu        sync.RWMutex
	cliqueOff []int64   // cell -> offset into clique (k_c^2 entries per cell)
	clique    []float64 // row-major: clique[off + i*k + j] = dist(b_i -> b_j) within the cell

	// pending holds cells whose cliques are stale because a customization
	// was cancelled mid-drain. Queries settle it before trusting labels.
	pending      []int32
	pendingMark  []bool
	pendingCount atomic.Int32

	// baseDisabled is the disabled state captured at NewMetric time — the
	// metric's base state. Cities legitimately ship with closed roads, so
	// "base" is NOT "everything enabled": it is whatever state the cliques
	// were first built under. Immutable after construction.
	baseDisabled []bool

	// cliqueDirty[c] records whether cell c's clique was last computed
	// with at least one interior edge off its base state. A queued repair
	// for a cell that is back at base AND not dirty is a no-op: the clique
	// bytes already describe the base state. Attack loops lean on this —
	// every run's rollback re-enables its cuts, so post-run repairs skip
	// and the cliques stay at their base bytes across runs.
	cliqueDirty []bool

	// tlCache holds target labels built at the base state. Entries are
	// immutable once stored and exact for the base snapshot forever, so
	// repeated attack runs against the same destination skip the label
	// build entirely.
	tlCache map[graph.NodeID]*TargetLabels

	// Restricted-Dijkstra scratch, guarded by mu (writers only).
	dist  []float64
	stamp []uint64
	cur   uint64
	h     bheap
}

// NewMetric computes all cell cliques for ov under the current disabled
// state. Cancelling ctx aborts with its error; the partial metric is
// discarded.
func NewMetric(ctx context.Context, ov *Overlay) (*Metric, error) {
	m := &Metric{
		ov:           ov,
		cliqueOff:    make([]int64, ov.numCells+1),
		pendingMark:  make([]bool, ov.numCells),
		baseDisabled: append([]bool(nil), ov.csr.Disabled...),
		cliqueDirty:  make([]bool, ov.numCells),
		tlCache:      make(map[graph.NodeID]*TargetLabels),
		dist:         make([]float64, ov.csr.N),
		stamp:        make([]uint64, ov.csr.N),
	}
	var total int64
	for c := 0; c < ov.numCells; c++ {
		m.cliqueOff[c] = total
		k := int64(ov.boundaryCount(int32(c)))
		total += k * k
	}
	m.cliqueOff[ov.numCells] = total
	m.clique = make([]float64, total)
	for c := 0; c < ov.numCells; c++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		m.computeCellLocked(int32(c))
	}
	return m, nil
}

// computeCellLocked fills cell c's clique: one restricted Dijkstra per
// boundary node, relaxing only arcs whose head stays inside the cell and
// skipping disabled edges. Caller holds the write lock (or owns m
// exclusively, as NewMetric does).
func (m *Metric) computeCellLocked(c int32) {
	ov := m.ov
	csr := ov.csr
	b0 := ov.cellBOff[c]
	k := ov.boundaryCount(c)
	base := m.cliqueOff[c]
	for i := 0; i < k; i++ {
		src := ov.bNode[b0+int32(i)]
		m.cur++
		h := m.h[:0]
		m.dist[src] = 0
		m.stamp[src] = m.cur
		h.push(bitem{dist: 0, node: src})
		for len(h) > 0 {
			it := h.pop()
			u := it.node
			if it.dist > m.dist[u] || m.stamp[u] != m.cur {
				continue
			}
			du := it.dist
			for s, end := csr.FwdOff[u], csr.FwdOff[u+1]; s < end; s++ {
				e := csr.FwdEdge[s]
				if csr.Disabled[e] {
					continue
				}
				v := csr.FwdTo[s]
				if ov.cell[v] != c {
					continue
				}
				nd := du + csr.FwdW[s]
				if m.stamp[v] != m.cur || nd < m.dist[v] {
					m.dist[v] = nd
					m.stamp[v] = m.cur
					h.push(bitem{dist: nd, node: v})
				}
			}
		}
		m.h = h
		row := base + int64(i*k)
		for j := 0; j < k; j++ {
			dst := ov.bNode[b0+int32(j)]
			if m.stamp[dst] == m.cur {
				m.clique[row+int64(j)] = m.dist[dst]
			} else {
				m.clique[row+int64(j)] = math.Inf(1)
			}
		}
	}
	m.cliqueDirty[c] = m.cellInteriorOffBase(c)
}

// cellInteriorOffBase reports whether any of cell c's interior edges
// has a disabled flag different from the metric's base state — a scan
// of the cell's slice of the edge dispatch table comparing live flags
// against the captured base.
func (m *Metric) cellInteriorOffBase(c int32) bool {
	ov := m.ov
	disabled := ov.csr.Disabled
	for i, end := ov.cellEOff[c], ov.cellEOff[c+1]; i < end; i++ {
		if e := ov.cellEdges[i]; disabled[e] != m.baseDisabled[e] {
			return true
		}
	}
	return false
}

// MarkStale queues the cells affected by a disabled-state change of the
// given edges without recomputing anything: the deferred half of
// customization. Marked cells are repaired — once, however many toggles
// were coalesced — by ensureSettled when a query next reads the
// cliques. The attack loops use this as their per-cut hook: the oracle
// reads only cached target labels (valid lower bounds under cuts) and
// raw CSR arcs mid-attack, so repair can ride until the next clique read
// instead of running inside the hot loop.
func (m *Metric) MarkStale(edges ...graph.EdgeID) {
	m.mu.Lock()
	m.markLocked(edges)
	m.pendingCount.Store(int32(len(m.pending)))
	m.mu.Unlock()
}

// markLocked queues, once each, the cells holding any of the given edges
// in their interior. Cross-cell edges queue nothing: cross arcs read the
// live disabled flags. Callers hold m.mu.
func (m *Metric) markLocked(edges []graph.EdgeID) {
	for _, e := range edges {
		if int(e) >= len(m.ov.eCell) {
			continue // edge added after freeze: snapshot is stale anyway
		}
		if c := m.ov.eCell[e]; c >= 0 && !m.pendingMark[c] {
			m.pendingMark[c] = true
			m.pending = append(m.pending, c)
		}
	}
}

// drainLocked recomputes queued cells, stopping early (cells stay
// queued) when ctx is cancelled.
func (m *Metric) drainLocked(ctx context.Context) int {
	done := 0
	for len(m.pending) > 0 {
		if ctx != nil && ctx.Err() != nil {
			break
		}
		c := m.pending[len(m.pending)-1]
		m.pending = m.pending[:len(m.pending)-1]
		m.pendingMark[c] = false
		// A cell whose clique was last computed at base and whose interior
		// is back at base needs no work: coalesced toggles that net out to
		// the base state (an attack run's rollback) repair to the bytes
		// already stored.
		if !m.cliqueDirty[c] && !m.cellInteriorOffBase(c) {
			continue
		}
		m.computeCellLocked(c)
		done++
	}
	m.pendingCount.Store(int32(len(m.pending)))
	return done
}

// atBaseLocked reports whether the live disabled flags currently equal
// the metric's base state — the only state the target-label cache
// serves. One linear pass over the flags with an early out on the first
// difference; microseconds against the label build it gates.
func (m *Metric) atBaseLocked() bool {
	disabled := m.ov.csr.Disabled
	for e, d := range m.baseDisabled {
		if disabled[e] != d {
			return false
		}
	}
	return true
}

// ensureSettled drains any customization still queued (by MarkStale, or
// by a cancelled drain) before a query trusts the cliques.
func (m *Metric) ensureSettled() {
	if m.pendingCount.Load() == 0 {
		return
	}
	m.mu.Lock()
	m.drainLocked(nil)
	m.mu.Unlock()
}

// Snapshot returns the frozen snapshot the overlay was built over.
func (m *Metric) Snapshot() *graph.Snapshot { return m.ov.snap }
