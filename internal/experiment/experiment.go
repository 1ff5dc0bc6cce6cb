// Package experiment reproduces the paper's experimental methodology
// (§III-A): for each city, pick the four hospitals as destinations and ten
// random source intersections per hospital (40 runs per cell), set the
// alternative route p* to the 100th-shortest path, and measure each
// algorithm under each edge-removal cost model:
//
//   - Avg. Runtime — average attack computation time in seconds,
//   - ANER — average number of edges removed,
//   - ACRE — average cost of removed edges.
//
// SampleUnits and RunTableOnUnitsParallelCtx regenerate one of Tables
// II-VIII; Aggregate builds Table IX; RunThreshold builds Table X.
package experiment

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"

	"altroute/internal/citygen"
	"altroute/internal/core"
	"altroute/internal/faultinject"
	"altroute/internal/graph"
	"altroute/internal/metrics"
	"altroute/internal/roadnet"
)

// Spec configures one table's worth of experiments.
type Spec struct {
	// Net is the street network RunThreshold measures. If nil, the
	// network is built from City, Scale, and Seed. SampleUnits and the
	// table runner take their network as an argument instead.
	Net *roadnet.Network
	// City selects a synthetic city preset when Net is nil.
	City citygen.City
	// Scale shrinks the city preset (1 = full Table I size). Default 0.1.
	Scale float64
	// Seed drives city generation, source sampling, and LP rounding.
	Seed int64
	// WeightType is the attacker objective for the whole table.
	WeightType roadnet.WeightType
	// CostTypes are the edge-removal cost models (columns). Default: all
	// three in paper order.
	CostTypes []roadnet.CostType
	// Algorithms are the table rows. Default: all four in paper order.
	Algorithms []core.Algorithm
	// PathRank selects p* (the paper uses 100). Default 100.
	PathRank int
	// SourcesPerHospital is the number of random sources per hospital
	// (the paper uses 10). Default 10.
	SourcesPerHospital int
	// Budget caps removal cost per attack; 0 means unlimited (the paper's
	// tables are unbudgeted).
	Budget float64
	// Options tunes the attack algorithms.
	Options core.Options
	// Checkpoint, when non-nil, journals every completed (algorithm, cost
	// type, unit) attack and replays journaled results instead of
	// recomputing them, so an interrupted run resumes where it stopped.
	Checkpoint *Checkpoint
	// Audit, when non-nil, observes every freshly computed unit (after it
	// is journaled, never for checkpoint replays — a replayed unit was
	// audited when first computed). The server uses it to chain batch
	// units into the audit ledger. Must be safe for concurrent use: the
	// table runner invokes it from every worker.
	Audit func(Record)
}

func (s *Spec) fill() {
	if s.Scale <= 0 {
		s.Scale = 0.1
	}
	if s.PathRank <= 0 {
		s.PathRank = 100
	}
	if s.SourcesPerHospital <= 0 {
		s.SourcesPerHospital = 10
	}
	if len(s.CostTypes) == 0 {
		s.CostTypes = roadnet.CostTypes()
	}
	if len(s.Algorithms) == 0 {
		s.Algorithms = core.Algorithms()
	}
}

// Unit is one prepared attack instance: a source, a hospital destination,
// and the precomputed alternative route p* (shared by every algorithm and
// cost model, exactly as in the paper).
type Unit struct {
	Source   graph.NodeID
	Dest     graph.NodeID
	Hospital string
	PStar    graph.Path
}

// ErrNoHospitals is returned when the network has no hospital POIs.
var ErrNoHospitals = errors.New("experiment: network has no hospital POIs")

// ErrSampling is returned when not enough viable sources exist.
var ErrSampling = errors.New("experiment: could not sample enough viable sources")

// ErrInterrupted is returned by the table runner when the run context
// dies before the grid completes. The partial table accumulated so
// far is returned alongside it; re-running with the same Spec.Checkpoint
// resumes from the journal.
var ErrInterrupted = errors.New("experiment: run interrupted")

// buildNetwork returns the spec's network, generating it if needed.
func buildNetwork(spec *Spec) (*roadnet.Network, error) {
	if spec.Net != nil {
		return spec.Net, nil
	}
	return citygen.Build(spec.City, spec.Scale, spec.Seed)
}

// SampleUnits draws SourcesPerHospital random source intersections per
// hospital and computes p* (the PathRank-th shortest path) for each,
// resampling sources for which the rank is unavailable (too close or too
// thinly connected).
//
// Sources are drawn from one seeded generator in a fixed order and
// evaluated up to GOMAXPROCS at a time, all on the network's shared
// snapshot and one reverse potential per hospital, which the network
// memoizes across calls (roadnet.Network.Potential). Results are accepted
// in draw order, and a value drawn ahead that the current hospital turns
// out not to need is the next hospital's first draw, so the units, their
// order and the errors are the same as evaluating one draw at a time.
//
// On ErrSampling the units sampled before the exhausted hospital are
// returned alongside the error, so a caller content with partial coverage
// can proceed with them.
func SampleUnits(net *roadnet.Network, spec Spec) ([]Unit, error) {
	spec.fill()
	hospitals := net.POIsOfKind(citygen.KindHospital)
	if len(hospitals) == 0 {
		return nil, ErrNoHospitals
	}
	w := net.Weight(spec.WeightType)
	snap := net.Snapshot(spec.WeightType)
	n := net.NumIntersections()
	rng := rand.New(rand.NewSource(spec.Seed ^ 0x5eed))
	workers := runtime.GOMAXPROCS(0)
	routers := make(chan *graph.Router, workers)
	for i := 0; i < workers; i++ {
		r := graph.NewRouter(net.Graph())
		r.UseSnapshot(snap)
		routers <- r
	}
	// Draw number a (from 0) of a hospital is tried while a <= 80*S.
	maxAttempts := 80*spec.SourcesPerHospital + 1

	type sampled struct {
		attempt int
		pstar   graph.Path
		ok      bool
	}
	var units []Unit
	var draws []graph.NodeID // drawn for the current hospital, in draw order
	for _, h := range hospitals {
		pot := net.Potential(context.Background(), spec.WeightType, h.Node)
		// At most workers evaluations are in flight, so no send blocks,
		// including those of evaluations drained and dropped below.
		results := make(chan sampled, workers)
		done := map[int]sampled{}
		found, head, next, inflight := 0, 0, 0, 0
		for found < spec.SourcesPerHospital && head < maxAttempts {
			for inflight < workers && next < maxAttempts {
				if next == len(draws) {
					draws = append(draws, graph.NodeID(rng.Intn(n)))
				}
				a, src := next, draws[next]
				next++
				if src == h.Node {
					done[a] = sampled{attempt: a}
					continue
				}
				inflight++
				go func() {
					r := <-routers
					pstar, ok := rankedPath(r, src, h.Node, spec.PathRank, w, pot)
					routers <- r
					results <- sampled{attempt: a, pstar: pstar, ok: ok}
				}()
			}
			for found < spec.SourcesPerHospital {
				res, ok := done[head]
				if !ok {
					break
				}
				delete(done, head)
				if res.ok {
					units = append(units, Unit{Source: draws[head], Dest: h.Node, Hospital: h.Name, PStar: res.pstar})
					found++
				}
				head++
			}
			if found < spec.SourcesPerHospital && head < maxAttempts {
				res := <-results
				inflight--
				done[res.attempt] = res
			}
		}
		for ; inflight > 0; inflight-- {
			<-results
		}
		if found < spec.SourcesPerHospital {
			return units, fmt.Errorf("%w: hospital %q yielded %d/%d sources",
				ErrSampling, h.Name, found, spec.SourcesPerHospital)
		}
		draws = append(draws[:0], draws[head:]...)
	}
	return units, nil
}

// rankedPath is core.PStarByRank on a router with the network snapshot
// attached and the target's reverse potential precomputed: the rank-th
// shortest s->d path, false when fewer than rank simple paths exist.
func rankedPath(r *graph.Router, s, d graph.NodeID, rank int, w graph.WeightFunc, pot *graph.Potential) (graph.Path, bool) {
	paths := r.KShortestWithPotential(s, d, rank, w, pot)
	if len(paths) < rank {
		return graph.Path{}, false
	}
	return paths[rank-1], true
}

// Cell is one (algorithm, cost type) table cell averaged over all units.
type Cell struct {
	Algorithm core.Algorithm
	CostType  roadnet.CostType
	// AvgRuntimeS is the paper's "Avg. Runtime" column (seconds).
	AvgRuntimeS float64
	// ANER is the average number of edges removed.
	ANER float64
	// ACRE is the average cost of removed edges.
	ACRE float64
	// Runs is the number of successful attacks averaged.
	Runs int
	// Failures counts attacks that returned an error; they are excluded
	// from the averages.
	Failures int
	// FailuresByKind breaks Failures down by FailureKind (timeout, panic,
	// budget, ...). Nil when the cell has no failures.
	FailuresByKind map[string]int
	// Degraded counts successful runs whose Result was flagged Degraded
	// (best-effort plans produced under timeout or LP breakdown). They are
	// included in Runs and the averages.
	Degraded int
}

// replay folds one journaled or freshly-computed unit outcome into the
// cell's accumulators (finalize turns the sums into averages).
func (c *Cell) replay(rec Record) {
	if !rec.OK {
		c.Failures++
		if c.FailuresByKind == nil {
			c.FailuresByKind = map[string]int{}
		}
		c.FailuresByKind[rec.FailKind]++
		return
	}
	c.Runs++
	c.AvgRuntimeS += rec.RuntimeS
	c.ANER += float64(rec.Edges)
	c.ACRE += rec.Cost
	if rec.Degraded {
		c.Degraded++
	}
}

// finalize converts the replayed sums into the paper's per-cell averages.
func (c *Cell) finalize() {
	if c.Runs > 0 {
		c.AvgRuntimeS /= float64(c.Runs)
		c.ANER /= float64(c.Runs)
		c.ACRE /= float64(c.Runs)
	}
}

// FailureKind buckets an attack error for Cell.FailuresByKind and the
// checkpoint journal.
func FailureKind(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, core.ErrTimeout):
		return "timeout"
	case errors.Is(err, core.ErrCancelled):
		return "cancelled"
	case errors.Is(err, core.ErrPanic):
		return "panic"
	case errors.Is(err, core.ErrBudgetExceeded):
		return "budget"
	case errors.Is(err, core.ErrInfeasible):
		return "infeasible"
	case errors.Is(err, core.ErrInvalidProblem):
		return "invalid"
	default:
		return "other"
	}
}

// Table is one full experiment table (paper Tables II-VIII).
type Table struct {
	City       string
	WeightType roadnet.WeightType
	Cells      []Cell
	Units      int
	Summary    metrics.GraphSummary
}

// Cell returns the cell for (alg, ct), or nil.
func (t *Table) Cell(alg core.Algorithm, ct roadnet.CostType) *Cell {
	for i := range t.Cells {
		if t.Cells[i].Algorithm == alg && t.Cells[i].CostType == ct {
			return &t.Cells[i]
		}
	}
	return nil
}

// runCell computes one (algorithm, cost type) cell over the units on one
// worker's clone, attacking the units in order, so a cell's bits do not
// depend on which worker ran it or how many workers there were. Units
// found in spec.Checkpoint are replayed instead of recomputed; freshly
// computed units are journaled. A dead ctx stops the loop: the partial cell
// is returned with ErrInterrupted wrapping the context's cause.
func runCell(ctx context.Context, wk *worker, city string, alg core.Algorithm, ct roadnet.CostType, units []Unit, spec Spec) (Cell, error) {
	cell := Cell{Algorithm: alg, CostType: ct}
	wt := spec.WeightType.String()
	interrupted := func() (Cell, error) {
		cell.finalize()
		return cell, fmt.Errorf("%w: %w", ErrInterrupted, context.Cause(ctx))
	}
	for i, u := range units {
		if rec, ok := spec.Checkpoint.Lookup(city, wt, alg.String(), ct.String(), i); ok {
			cell.replay(rec)
			continue
		}
		if ctx.Err() != nil {
			return interrupted()
		}
		p := core.Problem{
			G:         wk.net.Graph(),
			Source:    u.Source,
			Dest:      u.Dest,
			PStar:     u.PStar,
			Weight:    wk.weight,
			Cost:      wk.costs[ct],
			Budget:    spec.Budget,
			Snapshot:  wk.snap,
			Potential: wk.potential(ctx, u.Dest),
			Router:    wk.router,
		}
		opts := spec.Options
		opts.Seed = spec.Seed
		res, err := attackUnit(ctx, alg, p, opts)
		if err != nil && ctx.Err() != nil &&
			(errors.Is(err, core.ErrCancelled) || errors.Is(err, core.ErrTimeout)) {
			// The run context died mid-attack. That outcome describes the
			// run, not the unit — journaling it would poison a resume with
			// a spurious failure, so it is recomputed instead.
			return interrupted()
		}
		rec := Record{
			City: city, Weight: wt, Algorithm: alg.String(), CostType: ct.String(), Unit: i,
		}
		if err != nil {
			rec.FailKind = FailureKind(err)
		} else {
			rec.OK = true
			rec.RuntimeS = res.Runtime.Seconds()
			rec.Edges = len(res.Removed)
			rec.Cost = res.TotalCost
			rec.Degraded = res.Degraded
		}
		if err := spec.Checkpoint.Append(rec); err != nil {
			cell.finalize()
			return cell, err
		}
		if spec.Audit != nil {
			spec.Audit(rec)
		}
		cell.replay(rec)
	}
	cell.finalize()
	return cell, nil
}

// attackUnit runs one attack, recovering panics that escape core.RunCtx's
// own recovery (i.e. panics in this harness layer) into per-unit ErrPanic
// failures so one poisoned unit never kills a table run or a parallel
// worker.
func attackUnit(ctx context.Context, alg core.Algorithm, p core.Problem, opts core.Options) (res core.Result, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			res = core.Result{}
			err = fmt.Errorf("%w: %v\n%s", core.ErrPanic, rec, debug.Stack())
		}
	}()
	if faultinject.Fires(ctx, faultinject.PointWorkerPanic) {
		panic(fmt.Sprintf("injected panic at %s", faultinject.PointWorkerPanic))
	}
	return core.RunCtx(ctx, alg, p, opts)
}

// CityAverage is one Table IX row: ANER and ACRE averaged over every cost
// type and algorithm for a (city, weight type) pair.
type CityAverage struct {
	City string
	// ANER and ACRE per weight type.
	ANER map[roadnet.WeightType]float64
	ACRE map[roadnet.WeightType]float64
}

// Aggregate builds Table IX rows from per-weight-type tables of the same
// city.
func Aggregate(tables []Table) []CityAverage {
	byCity := map[string]*CityAverage{}
	counts := map[string]map[roadnet.WeightType]int{}
	var order []string
	for _, t := range tables {
		ca := byCity[t.City]
		if ca == nil {
			ca = &CityAverage{
				City: t.City,
				ANER: map[roadnet.WeightType]float64{},
				ACRE: map[roadnet.WeightType]float64{},
			}
			byCity[t.City] = ca
			counts[t.City] = map[roadnet.WeightType]int{}
			order = append(order, t.City)
		}
		for _, c := range t.Cells {
			if c.Runs == 0 {
				continue
			}
			ca.ANER[t.WeightType] += c.ANER
			ca.ACRE[t.WeightType] += c.ACRE
			counts[t.City][t.WeightType]++
		}
	}
	out := make([]CityAverage, 0, len(order))
	for _, city := range order {
		ca := byCity[city]
		for wt, cnt := range counts[city] {
			if cnt > 0 {
				ca.ANER[wt] /= float64(cnt)
				ca.ACRE[wt] /= float64(cnt)
			}
		}
		out = append(out, *ca)
	}
	return out
}

// ThresholdRow is one Table X row.
type ThresholdRow struct {
	City      string
	AvgInc100 float64
	AvgInc200 float64
	Pairs     int
}

// RunThreshold reproduces Table X: the average percentage increase in TIME
// length from the shortest path to the 100th and 200th shortest paths,
// over the spec's sampled source/hospital pairs. Spec.PathRank scales the
// two ranks (rank and 2*rank) so reduced-size runs stay feasible; the
// paper's values are 100 and 200.
func RunThreshold(spec Spec) (ThresholdRow, error) {
	spec.fill()
	net, err := buildNetwork(&spec)
	if err != nil {
		return ThresholdRow{}, err
	}
	hospitals := net.POIsOfKind(citygen.KindHospital)
	if len(hospitals) == 0 {
		return ThresholdRow{}, ErrNoHospitals
	}
	n := net.NumIntersections()
	rng := rand.New(rand.NewSource(spec.Seed ^ 0x7ea))
	var pairs []metrics.Endpoint
	for _, h := range hospitals {
		for i := 0; i < spec.SourcesPerHospital; i++ {
			src := graph.NodeID(rng.Intn(n))
			if src == h.Node {
				continue
			}
			pairs = append(pairs, metrics.Endpoint{Source: src, Dest: h.Node})
		}
	}
	rank1, rank2 := spec.PathRank, 2*spec.PathRank
	res := metrics.PathRankGap(net, pairs, []int{rank1, rank2}, net.Weight(roadnet.WeightTime))
	return ThresholdRow{
		City:      net.Name(),
		AvgInc100: res.AvgIncreasePct[rank1],
		AvgInc200: res.AvgIncreasePct[rank2],
		Pairs:     res.Pairs - res.Skipped,
	}, nil
}
