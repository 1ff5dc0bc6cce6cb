package core

import (
	"context"

	"altroute/internal/graph"
	"altroute/internal/overlay"
)

// oracleState binds one attack run's exclusivity oracle. With a valid
// Problem.Overlay it builds the target's backward overlay labels once at
// the run's base state and answers every round through corridor-pruned
// searches; otherwise it delegates to the CSR
// BestAlternativeWithPotential oracle. Either way the verdict per round
// is identical (see overlay.Querier.Violating for the exact contract).
//
// Label lifecycle: labels computed at the base state stay valid lower
// bounds for every round because attack rounds only disable edges
// (removals lengthen distances) — the same monotonicity argument cached
// reverse potentials rely on. The loops report every disable AND every
// rollback re-enable through cut/uncut, which marks affected cells stale
// on the metric; repair is coalesced into the next clique read instead
// of running inside the round loop (the oracle itself never reads
// cliques mid-run).
type oracleState struct {
	p   *Problem
	r   *graph.Router
	pot *graph.Potential
	q   *overlay.Querier
	tl  *overlay.TargetLabels
}

// newOracle prepares the oracle for one attack run. Must be called at
// the run's base state, before the first cut, so the overlay labels are
// lower bounds for every round. Without a Querier, or with one over a
// foreign-graph or topology-stale snapshot, the run uses the CSR oracle,
// which is when the reverse potential gets computed — the overlay path
// never needs it (its target labels carry the equivalent bounds), and
// one full reverse Dijkstra per run is exactly the setup cost the
// overlay exists to avoid.
func (p *Problem) newOracle(ctx context.Context, r *graph.Router) *oracleState {
	o := &oracleState{p: p, r: r}
	q := p.Overlay
	if q == nil || !q.Metric().Snapshot().Valid() || q.Metric().Snapshot().Graph() != p.G {
		o.pot = p.potential(r)
		return o
	}
	q.SetContext(ctx)
	o.q = q
	o.tl = q.BuildTargetLabels(p.Dest)
	return o
}

// violating answers one oracle round under the graph's current
// disabled-edge state.
func (o *oracleState) violating() (graph.Path, bool) {
	if o.q != nil {
		return o.q.Violating(o.p.Source, o.p.Dest, o.p.PStar, o.p.tieEps(), o.tl)
	}
	return o.p.violating(o.r, o.pot)
}

// cut reports newly disabled edges to the overlay metric, marking their
// cells for coalesced clique repair. No-op on the CSR oracle.
func (o *oracleState) cut(edges ...graph.EdgeID) {
	if o.q != nil && len(edges) > 0 {
		o.q.Metric().MarkStale(edges...)
	}
}

// uncut reports re-enabled edges (a rollback) the same way: the affected
// cells must be repaired before the metric's cliques are read again.
func (o *oracleState) uncut(edges []graph.EdgeID) {
	if o.q != nil && len(edges) > 0 {
		o.q.Metric().MarkStale(edges...)
	}
}
