package overlay

import (
	"context"
	"math"

	"altroute/internal/graph"
)

// The eager customization and the point-to-point queries below have no
// caller outside tests: the attack loops use only MarkStale,
// BuildTargetLabels and Violating. They stay here, in the package's test
// build, for the differential and race suites and the overlay benchmarks
// that drive the metric and the corridor kernel directly.

// NewMetric computes a fresh base for ov under snap's current disabled
// state and returns a metric bound to snap over it.
func NewMetric(ctx context.Context, ov *Overlay, snap *graph.Snapshot) (*Metric, error) {
	b, err := NewBase(ctx, ov, snap)
	if err != nil {
		return nil, err
	}
	return b.Metric(snap), nil
}

// Customize repairs the metric after the disabled state of the given
// edges changed (disable or enable alike): every cell containing such an
// edge in its interior recomputes its clique; cross-cell edges cost
// nothing because cross arcs read the live disabled flags. Returns the
// number of cells recomputed. Cancelling ctx defers the remaining cells:
// they stay queued and are settled by the next Customize or query.
func (m *Metric) Customize(ctx context.Context, edges ...graph.EdgeID) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.markLocked(edges)
	return m.drainLocked(ctx)
}

// Apply runs mutate under the metric's write lock and then customizes
// for the given edges. It is the race-safe way to disable or enable
// edges while Queriers run concurrently: queries hold the read lock
// across their whole search, so they observe either the pre-mutate or
// the fully-customized post-mutate state, never a torn one.
func (m *Metric) Apply(ctx context.Context, edges []graph.EdgeID, mutate func()) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	mutate()
	m.markLocked(edges)
	return m.drainLocked(ctx)
}

// Query computes the exact shortest path s -> t, building target labels
// on the fly. When issuing many queries against one target (the oracle
// does), build the labels once and call QueryTo.
func (q *Querier) Query(s, t graph.NodeID) (graph.Path, bool) {
	return q.QueryTo(s, q.BuildTargetLabels(t))
}

// QueryTo computes the exact shortest path from s to tl's target. The
// result is bit-identical to the frozen Dijkstra kernel
// (Router.ShortestPath with a snapshot attached): the corridor search IS
// that kernel, with offers that provably cannot beat the known upper
// bound recorded but not pushed. REQUIRES the metric to be customized to
// the current disabled state and tl built under a state whose enabled
// set is a superset of the current one (labels must be lower bounds).
func (q *Querier) QueryTo(s graph.NodeID, tl *TargetLabels) (graph.Path, bool) {
	if q.interrupted() {
		return graph.Path{}, false
	}
	q.m.ensureSettled()
	q.m.mu.RLock()
	defer q.m.mu.RUnlock()
	if !q.valid(s) || tl == nil || tl.tcell < 0 || !q.valid(tl.target) {
		return graph.Path{}, false
	}
	u := tl.pot[s]
	if math.IsInf(u, 1) {
		// Unreachable, definitively: +Inf means s could not reach the
		// target even at build time, and disables only remove paths.
		return graph.Path{}, false
	}
	if p, ok := q.corridor(s, tl.target, tl, 0, u); ok {
		return p, true
	}
	// Labels built before cuts under-estimate u (they are lower bounds,
	// not upper bounds, once edges disappear), so the bounded pass can
	// come up empty on a reachable target. The unbounded pass degrades
	// to the plain frozen kernel — every offer passes the +Inf cutoff —
	// and stays bit-exact.
	return q.corridor(s, tl.target, tl, 0, math.Inf(1))
}
