package graph

import "context"

// SetContext attaches ctx to the router for cooperative cancellation of its
// multi-round queries: KShortest and Violating poll the context between
// spur searches and stop early when it is done. A nil ctx
// (the default) disables the checks entirely.
//
// Cancellation is best-effort and output-truncating: an interrupted
// KShortest returns the paths accepted so far and an interrupted
// Violating may report "no violation" even though one exists.
// Callers that must distinguish a genuine negative from a cancelled query
// (the attack loops in internal/core) re-check the context after the call
// before trusting the result.
func (r *Router) SetContext(ctx context.Context) { r.ctx = ctx }

// interrupted reports whether the attached context has been cancelled or
// has passed its deadline.
func (r *Router) interrupted() bool {
	return r.ctx != nil && r.ctx.Err() != nil
}
