package experiment

import (
	"context"
	"runtime"
	"slices"
	"sync"

	"altroute/internal/core"
	"altroute/internal/graph"
	"altroute/internal/metrics"
	"altroute/internal/roadnet"
)

// RunTableOnUnitsParallelCtx executes the algorithm × cost grid over
// prepared units (see SampleUnits) under ctx, spreading the (algorithm,
// cost type) cells across workers. Every worker runs on its own clone of
// the network (the attack algorithms disable edges transactionally, which
// must not race), so the table is bit-for-bit the same for every worker
// count, cell order included. The clones share the network's frozen
// snapshot arrays and potential memo, so no worker freezes the city or
// sweeps a hospital's potential that another run already has. workers <= 0
// uses GOMAXPROCS.
//
// A worker panic is recovered into that unit's failure (counted in
// Cell.FailuresByKind under "panic"); the other workers and cells are
// unaffected. When ctx dies, each worker finishes its poll interval and
// the partial table is returned with ErrInterrupted wrapping the
// context's cause. It lists every cell in job order: finished cells,
// plus whatever the interrupted and unstarted cells replayed from the
// checkpoint or accumulated. With Spec.Checkpoint set, every completed
// unit is journaled (safely from concurrent workers) and replayed on the
// next run, so interrupt-and-rerun converges on the table an
// uninterrupted run produces.
func RunTableOnUnitsParallelCtx(ctx context.Context, net *roadnet.Network, units []Unit, spec Spec, workers int) (Table, error) {
	spec.fill()
	if ctx == nil {
		ctx = context.Background()
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	type cellJob struct {
		idx int
		alg core.Algorithm
		ct  roadnet.CostType
	}
	var jobs []cellJob
	for _, alg := range spec.Algorithms {
		for _, ct := range spec.CostTypes {
			jobs = append(jobs, cellJob{idx: len(jobs), alg: alg, ct: ct})
		}
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}

	// Freeze on the master before cloning, so every clone shares its
	// snapshot and potential memo instead of freezing its own. GreedyEig's
	// one-time eigen solve is filled here too, into the memo the clones
	// share: solved inside the first GreedyEig attack, it would land in
	// that unit's timed Runtime.
	net.Snapshot(spec.WeightType)
	if slices.Contains(spec.Algorithms, core.AlgGreedyEig) {
		graph.SharedEdgeEigenScores(net.Graph())
	}

	results := make([]Cell, len(jobs))
	cellErrs := make([]error, len(jobs))
	jobCh := make(chan cellJob)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			local := net.Clone()
			// Weight and cost functions, the snapshot, the Router and the
			// hospital potentials are derived once per worker, not per job
			// or per unit: jobs repeat the same few cost types and hospitals
			// on the same cloned graph, and every attack of the worker runs
			// on the one Router's scratch.
			w := worker{
				net:    local,
				wt:     spec.WeightType,
				snap:   local.Snapshot(spec.WeightType),
				router: graph.NewRouter(local.Graph()),
				weight: local.Weight(spec.WeightType),
				costs:  make(map[roadnet.CostType]graph.WeightFunc, len(spec.CostTypes)),
				pots:   make(map[graph.NodeID]*graph.Potential),
			}
			for _, ct := range spec.CostTypes {
				w.costs[ct] = local.Cost(ct)
			}
			for job := range jobCh {
				cell, err := runCell(ctx, &w, net.Name(), job.alg, job.ct, units, spec)
				results[job.idx] = cell
				cellErrs[job.idx] = err
			}
		}()
	}
	for _, job := range jobs {
		jobCh <- job
	}
	close(jobCh)
	wg.Wait()

	table := Table{
		City:       net.Name(),
		WeightType: spec.WeightType,
		Cells:      results,
		Units:      len(units),
		Summary:    metrics.Summarize(net),
	}
	for _, err := range cellErrs {
		if err != nil {
			return table, err
		}
	}
	return table, nil
}

// worker is one table worker's attack state on its own network clone.
type worker struct {
	net    *roadnet.Network
	wt     roadnet.WeightType
	snap   *graph.Snapshot
	router *graph.Router
	weight graph.WeightFunc
	costs  map[roadnet.CostType]graph.WeightFunc
	pots   map[graph.NodeID]*graph.Potential
}

// potential returns dest's reverse potential, looked up in the network's
// memo on the worker's first attack toward dest. A lookup cut short by
// ctx is not kept.
func (w *worker) potential(ctx context.Context, dest graph.NodeID) *graph.Potential {
	pot := w.pots[dest]
	if pot == nil {
		pot = w.net.Potential(ctx, w.wt, dest)
		if pot != nil {
			w.pots[dest] = pot
		}
	}
	return pot
}
