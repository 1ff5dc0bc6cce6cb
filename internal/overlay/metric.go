package overlay

import (
	"context"
	"math"
	"sync"
	"sync/atomic"

	"altroute/internal/graph"
)

// Base is the part of a metric that every metric over one frozen image
// shares: the overlay, the cell cliques computed under one disabled state
// (the base state), that state, and the target labels built at it. The
// cliques and the state are immutable after NewBase; the label cache has
// its own lock. Metrics bound to a Base (Base.Metric) read its cliques
// until their first repair copies them, so binding one costs no clique
// work.
type Base struct {
	ov        *Overlay
	cliqueOff []int64   // cell -> offset into clique (k_c^2 entries per cell)
	clique    []float64 // row-major: clique[off + i*k + j] = dist(b_i -> b_j) within the cell

	// disabled is the disabled state NewBase saw. Cities legitimately
	// ship with closed roads, so "base" is NOT "everything enabled": it is
	// whatever state the cliques were built under.
	disabled []bool

	// labelMu guards labels, which holds target labels built at the base
	// state. Entries are exact for the base state forever, so every
	// attack run against a destination after the first, on any metric
	// bound to this base, skips the label build.
	labelMu sync.Mutex
	labels  map[graph.NodeID]*labelEntry
}

// labelEntry is one target's slot in the shared label cache. Its lock is
// held across the build, so metrics asking for the same target at once
// wait for one build instead of each running their own.
type labelEntry struct {
	mu sync.Mutex
	tl *TargetLabels
}

// NewBase computes all cell cliques for ov under snap's current disabled
// state. snap must hold the frozen image ov was built from: the snapshot
// passed to Build, or a Rebind of it. Cancelling ctx aborts with its
// error; the partial base is discarded.
func NewBase(ctx context.Context, ov *Overlay, snap *graph.Snapshot) (*Base, error) {
	b := &Base{
		ov:        ov,
		cliqueOff: make([]int64, ov.numCells+1),
		disabled:  append([]bool(nil), snap.View().Disabled...),
		labels:    make(map[graph.NodeID]*labelEntry),
	}
	var total int64
	for c := 0; c < ov.numCells; c++ {
		b.cliqueOff[c] = total
		k := int64(ov.boundaryCount(int32(c)))
		total += k * k
	}
	b.cliqueOff[ov.numCells] = total
	m := b.Metric(snap)
	m.clique = make([]float64, total)
	m.ownClique = true
	for c := 0; c < ov.numCells; c++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		m.computeCellLocked(int32(c))
	}
	b.clique = m.clique
	return b, nil
}

// Metric returns a metric over b bound to snap, which must hold b's
// frozen image (see NewBase); it panics on a snapshot of another size.
// The metric observes snap's disabled flags: cells whose interior differs
// from the base state there are queued for repair, exactly as if the
// edges had been toggled through MarkStale.
func (b *Base) Metric(snap *graph.Snapshot) *Metric {
	ov := b.ov
	if snap.NumNodes() != ov.n || snap.NumEdges() != ov.m {
		panic("overlay: snapshot does not hold the base's frozen image")
	}
	m := &Metric{
		ov:          ov,
		base:        b,
		snap:        snap,
		csr:         snap.View(),
		clique:      b.clique,
		pendingMark: make([]bool, ov.numCells),
		cliqueDirty: make([]bool, ov.numCells),
	}
	for e, d := range m.csr.Disabled {
		if c := ov.eCell[e]; d != b.disabled[e] && c >= 0 && !m.pendingMark[c] {
			m.pendingMark[c] = true
			m.pending = append(m.pending, c)
		}
	}
	m.pendingCount.Store(int32(len(m.pending)))
	return m
}

// labelsFor returns t's base-state labels from the shared cache. When no
// metric has built them yet, build runs under t's entry lock; a build
// reporting !ok (a cancelled sweep, with +Inf holes) is returned to its
// caller but never stored.
func (b *Base) labelsFor(t graph.NodeID, build func() (*TargetLabels, bool)) *TargetLabels {
	b.labelMu.Lock()
	e := b.labels[t]
	if e == nil {
		if len(b.labels) >= tlCacheMax {
			// Evict one arbitrary entry: the cache exists for the few
			// hot destinations attack loops hammer, not to index every
			// target a query server is ever asked about.
			for old := range b.labels {
				delete(b.labels, old)
				break
			}
		}
		e = &labelEntry{}
		b.labels[t] = e
	}
	b.labelMu.Unlock()
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.tl != nil {
		return e.tl
	}
	tl, ok := build()
	if ok {
		e.tl = tl
	}
	return tl
}

// Metric is the weight half of the CRP structure as one attack loop sees
// it: per-cell clique matrices of boundary-to-boundary shortest distances
// restricted to the cell's interior, honouring the disabled flags of the
// metric's own snapshot at computation time. Cliques are exact
// distances, so label sweeps over the boundary graph compute exact
// overlay distances — which is what makes corridor pruning lossless.
//
// Concurrency: queries take the read lock for their whole run (the
// corridor reads the live disabled flags); MarkStale and the deferred
// clique repair take the write lock. A graph edge disabled or enabled
// while Queriers of the same Metric run must be toggled under that write
// lock too (the race suite's Apply helper does it), or a query can see
// a torn state. Metrics bound to one Base share nothing mutable but the
// label cache, which has its own lock.
type Metric struct {
	ov   *Overlay
	base *Base
	snap *graph.Snapshot
	csr  graph.CSRView // snap's view: the image's arrays, snap's disabled flags

	mu sync.RWMutex
	// clique is base.clique until the first repair copies it (ownClique).
	clique    []float64
	ownClique bool

	// pending holds cells whose cliques are stale because a customization
	// was cancelled mid-drain. Queries settle it before trusting labels.
	pending      []int32
	pendingMark  []bool
	pendingCount atomic.Int32

	// cliqueDirty[c] records whether cell c's clique was last computed
	// with at least one interior edge off its base state. A queued repair
	// for a cell that is back at base AND not dirty is a no-op: the clique
	// bytes already describe the base state. Attack loops lean on this —
	// every run's rollback re-enables its cuts, so post-run repairs skip
	// and the cliques stay at their base bytes across runs.
	cliqueDirty []bool

	// Restricted-Dijkstra scratch, guarded by mu (writers only) and
	// allocated by the first repair.
	dist  []float64
	stamp []uint64
	cur   uint64
	h     bheap
}

// computeCellLocked fills cell c's clique: one restricted Dijkstra per
// boundary node, relaxing only arcs whose head stays inside the cell and
// skipping disabled edges. The first call copies the shared base
// cliques. Caller holds the write lock (or owns m exclusively, as NewBase
// does).
func (m *Metric) computeCellLocked(c int32) {
	ov := m.ov
	csr := m.csr
	if !m.ownClique {
		m.clique = append([]float64(nil), m.clique...)
		m.ownClique = true
	}
	if len(m.dist) == 0 {
		m.dist = make([]float64, csr.N)
		m.stamp = make([]uint64, csr.N)
	}
	b0 := ov.cellBOff[c]
	k := ov.boundaryCount(c)
	base := m.base.cliqueOff[c]
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
	disabled, base := m.csr.Disabled, m.base.disabled
	for i, end := ov.cellEOff[c], ov.cellEOff[c+1]; i < end; i++ {
		if e := ov.cellEdges[i]; disabled[e] != base[e] {
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
// serves.
func (m *Metric) atBaseLocked() bool {
	return sameFlags(m.csr.Disabled, m.base.disabled)
}

// sameFlags reports whether two flag slices are equal. Every attack run
// makes this check over every edge of the city before it reads the label
// cache; comparing fixed-size array chunks compiles to a memory compare,
// which on full-size Chicago (78k edges) takes about 2 µs where an
// element loop took about 100 µs, a large share of a typical attack.
func sameFlags(a, b []bool) bool {
	if len(a) != len(b) {
		return false
	}
	const chunk = 1024
	i := 0
	for ; i+chunk <= len(a); i += chunk {
		if *(*[chunk]bool)(a[i : i+chunk]) != *(*[chunk]bool)(b[i : i+chunk]) {
			return false
		}
	}
	for ; i < len(a); i++ {
		if a[i] != b[i] {
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

// Snapshot returns the snapshot m is bound to.
func (m *Metric) Snapshot() *graph.Snapshot { return m.snap }
