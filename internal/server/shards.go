package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	"altroute/internal/core"
	"altroute/internal/faultinject"
	"altroute/internal/graph"
	"altroute/internal/registry"
	"altroute/internal/roadnet"
)

// attackKey identifies one attack computation for coalescing and caching.
// It embeds the shard generation at request time: a SetRoad mutation bumps
// the generation, so post-mutation requests form new keys and old cache
// entries become unreachable (they age out of the LRU) instead of serving
// stale cuts.
type attackKey struct {
	city   string
	gen    uint64
	source int64
	dest   int64
	rank   int
	alg    core.Algorithm
	wt     roadnet.WeightType
	ct     roadnet.CostType
	budget float64
	seed   int64
}

// pathsetKey identifies one Yen path-set computation: the k shortest
// simple paths between two nodes under one weight type at one generation.
// Attack requests that differ only in algorithm, cost type, budget, or
// seed share the same p* path set — the single most expensive read-only
// sub-computation.
type pathsetKey struct {
	city   string
	gen    uint64
	source int64
	dest   int64
	k      int
	wt     roadnet.WeightType
}

// attackOutcome is the shared result of one coalesced attack computation:
// everything waiters need to render their responses.
type attackOutcome struct {
	res core.Result
	// alg is the algorithm that actually ran; requested differs when the
	// LP breaker rerouted to greedy.
	alg       core.Algorithm
	requested core.Algorithm
	rerouted  bool
}

// attackBytes estimates the resident cost of a cached outcome.
func attackBytes(out attackOutcome) int64 {
	return 160 + int64(8*len(out.res.Removed)) + int64(len(out.res.DegradedReason))
}

// pathsBytes estimates the resident cost of a cached Yen path set.
func pathsBytes(paths []graph.Path) int64 {
	n := int64(64)
	for _, p := range paths {
		n += 48 + int64(8*(len(p.Edges)+len(p.Nodes)))
	}
	return n
}

// shardFor resolves a request's city to its shard. The empty name means
// the default city, preserving the single-city API.
func (s *Server) shardFor(city string) (*registry.Shard, error) {
	shard, ok := s.reg.Get(city)
	if !ok {
		return nil, fmt.Errorf("server: unknown city %q (serving: %v)", city, s.reg.Names())
	}
	return shard, nil
}

// attackUnits returns the estimated cost of one cold attack at rank on
// net, in admission units, and the charge admission takes for it: the
// estimate clamped to Capacity, as a batch's is, so it can always be
// admitted.
func (s *Server) attackUnits(net *roadnet.Network, rank int) (estimate, charge int) {
	estimate = estimateUnits(EstimateWork(rank, net.NumIntersections(), net.Graph().NumEdges()), s.cfg.UnitWork)
	return estimate, min(estimate, s.cfg.Capacity)
}

// computeAttack is the coalesced cold path: admission, breaker, p* from
// the shard's frozen snapshot (or the path-set cache), then the attack
// algorithm on a generation-stamped pooled clone. It runs once per key on
// its own goroutine regardless of how many requests coalesced onto it;
// ctx derives from the server's drain context plus this computation's
// timeout, never from any single waiter.
func (s *Server) computeAttack(ctx context.Context, shard *registry.Shard, key attackKey, timeoutMS int64) (attackOutcome, error) {
	var out attackOutcome
	ctx, cancel := context.WithTimeoutCause(ctx, s.timeout(timeoutMS), core.ErrTimeout)
	defer cancel()
	ctx = faultinject.With(ctx, s.cfg.Injector)

	// Admission is charged once per computation, not per coalesced waiter:
	// ten identical requests cost the service one unit budget.
	_, units := s.attackUnits(shard.Net(), key.rank)
	if err := s.adm.Acquire(ctx, units); err != nil {
		// Tagged so waiters can tell "died waiting for admission" (503,
		// back off) from "died attacking" (504).
		return out, fmt.Errorf("%w: %w", errAdmission, err)
	}
	defer s.adm.Release(units)
	if faultinject.Fires(ctx, faultinject.PointServerPanic) {
		panic(fmt.Sprintf("injected panic at %s", faultinject.PointServerPanic))
	}

	// Circuit breaker: LP-PathCover reroutes to GreedyPathCover while the
	// LP is considered broken. Decided once per computation, so a
	// coalesced burst counts as one breaker sample.
	alg := key.alg
	out.alg, out.requested = alg, alg
	ranLP := false
	if alg == core.AlgLPPathCover {
		if _, allowed := s.brk.Allow(); allowed {
			ranLP = true
		} else {
			alg = core.AlgGreedyPathCover
			out.alg, out.rerouted = alg, true
		}
	}
	attackErr := fmt.Errorf("%w: computation did not complete", core.ErrPanic)
	if ranLP {
		defer func() { s.brk.Record(attackErr) }()
	}

	// The p* phase and the attack must see the same generation: a SetRoad
	// between them would pair old-weight paths with a new-weight clone.
	// Mutations are rare, so on a mismatch we simply retry at the new
	// generation (the loop re-checks ctx each pass).
	var res core.Result
	var err error
	for {
		gen := shard.Generation()
		var paths []graph.Path
		paths, err = s.pstarPaths(ctx, shard, gen, key)
		if err != nil {
			attackErr = err
			return out, err
		}
		clone, cloneGen := shard.AcquireClone()
		if cloneGen != gen {
			shard.ReleaseClone(clone, cloneGen)
			if cerr := ctx.Err(); cerr != nil {
				attackErr = ctxSentinel(ctx)
				return out, attackErr
			}
			continue
		}
		res, err = s.runAttack(ctx, shard, clone, alg, key, paths)
		shard.ReleaseClone(clone, cloneGen)
		attackErr = err
		if err != nil {
			return out, err
		}
		out.res = res

		// Cache only clean successes: degraded and rerouted results encode
		// transient state (timeouts, breaker) that must not be replayed.
		if !out.rerouted && !res.Degraded {
			if s.testHookBeforeCache != nil {
				s.testHookBeforeCache()
			}
			// A computation that raced a SetRoad must not be cached under
			// the pre-mutation key — its waiters still get the result, but
			// the next request re-computes at the new generation.
			if shard.Generation() == key.gen && gen == key.gen {
				s.results.Add(key, out, attackBytes(out))
			}
		}
		return out, nil
	}
}

// pstarPaths returns the key's Yen path set, from the path-set cache when
// the same (s, d, k, weight) pair was computed at this generation — the
// common case for batch grids and repeated attacks — and otherwise from
// one KShortest run on the shard's shared frozen snapshot, guided by the
// preloaded reverse potential when d is a hospital. No clone is consumed:
// requests that die here (rank unavailable, cancelled) never touch the
// clone pool.
func (s *Server) pstarPaths(ctx context.Context, shard *registry.Shard, gen uint64, key attackKey) ([]graph.Path, error) {
	pk := pathsetKey{city: key.city, gen: gen, source: key.source, dest: key.dest, k: key.rank, wt: key.wt}
	paths, ok := s.pathsets.Get(pk)
	if !ok {
		r := shard.AcquireRouter()
		defer shard.ReleaseRouter(r)
		pot := shard.Potential(ctx, key.wt, graph.NodeID(key.dest))
		r.SetContext(ctx)
		r.UseSnapshot(shard.Snapshot(key.wt))
		paths = r.KShortestWithPotential(graph.NodeID(key.source), graph.NodeID(key.dest), key.rank,
			shard.Net().Weight(key.wt), pot)
		if err := ctx.Err(); err != nil {
			// A cancelled KShortest returns a truncated list; it must be
			// neither cached nor mistaken for "rank unavailable".
			return nil, ctxSentinel(ctx)
		}
		if shard.Generation() == gen {
			s.pathsets.Add(pk, paths, pathsBytes(paths))
		}
	}
	if len(paths) < key.rank {
		return nil, fmt.Errorf("%w: only %d simple paths between %d and %d, want rank %d",
			core.ErrRankUnavailable, len(paths), key.source, key.dest, key.rank)
	}
	return paths, nil
}

// runAttack executes the chosen algorithm on a private clone. The clone
// carries its own frozen snapshot (kept across pool recycles); the reverse
// potential is the shard's preloaded table, valid on the clone because
// clone and shard share node IDs and weights at equal generations.
func (s *Server) runAttack(ctx context.Context, shard *registry.Shard, clone *roadnet.Network, alg core.Algorithm, key attackKey, paths []graph.Path) (core.Result, error) {
	p := core.Problem{
		G:         clone.Graph(),
		Source:    graph.NodeID(key.source),
		Dest:      graph.NodeID(key.dest),
		PStar:     paths[key.rank-1],
		Weight:    clone.Weight(key.wt),
		Cost:      clone.Cost(key.ct),
		Budget:    key.budget,
		Snapshot:  clone.Snapshot(key.wt),
		Potential: shard.Potential(ctx, key.wt, graph.NodeID(key.dest)),
	}
	return core.RunCtx(ctx, alg, p, core.Options{Seed: key.seed})
}

// writeAttack renders an outcome. Breaker state is read at render time
// (it is response metadata, not part of the computed result).
func (s *Server) writeAttack(w http.ResponseWriter, city string, out attackOutcome, cached, coalesced bool, ref *AuditRef) {
	resp := AttackResponse{
		Audit:           ref,
		City:            city,
		Algorithm:       out.alg.String(),
		Removed:         edgeIDs(out.res.Removed),
		TotalCost:       out.res.TotalCost,
		Rounds:          out.res.Rounds,
		ConstraintPaths: out.res.ConstraintPaths,
		RuntimeMS:       float64(out.res.Runtime) / float64(time.Millisecond),
		Degraded:        out.res.Degraded,
		DegradedReason:  out.res.DegradedReason,
		Breaker:         s.brk.State().String(),
		Cached:          cached,
		Coalesced:       coalesced,
	}
	if out.rerouted {
		resp.Requested = out.requested.String()
		resp.Degraded = true
		resp.DegradedReason = joinReasons("LP circuit breaker open; GreedyPathCover substituted", out.res.DegradedReason)
	}
	writeJSON(w, http.StatusOK, resp)
}

// errAdmission tags admission failures crossing the coalescer, so the
// handler can route them to writeAdmissionError.
var errAdmission = errors.New("server: admission failed")

// waiterGrace is added to each waiter's deadline beyond the computation's
// own: the computation deadline is authoritative (it yields the typed
// timeout/admission error), and the waiter deadline is only a backstop
// against a wedged computation. Without the grace the two deadlines race
// and the waiter can report a bare context error instead.
const waiterGrace = 500 * time.Millisecond

// mapComputeErr lifts raw context errors a detached waiter reports into
// the typed sentinels the error writer understands.
func mapComputeErr(err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, context.DeadlineExceeded) && !errors.Is(err, core.ErrTimeout):
		return fmt.Errorf("%w: %w", core.ErrTimeout, err)
	case errors.Is(err, context.Canceled) && !errors.Is(err, core.ErrCancelled):
		return fmt.Errorf("%w: %w", core.ErrCancelled, err)
	default:
		return err
	}
}
