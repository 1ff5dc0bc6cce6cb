package experiment

import (
	"context"
	"runtime"
	"sync"

	"altroute/internal/core"
	"altroute/internal/graph"
	"altroute/internal/metrics"
	"altroute/internal/roadnet"
)

// RunTableOnUnitsParallel computes the same table as RunTableOnUnits but
// spreads the (algorithm, cost type) cells across workers. It is a thin
// context.Background() wrapper over RunTableOnUnitsParallelCtx.
func RunTableOnUnitsParallel(net *roadnet.Network, units []Unit, spec Spec, workers int) (Table, error) {
	return RunTableOnUnitsParallelCtx(context.Background(), net, units, spec, workers)
}

// RunTableOnUnitsParallelCtx is the parallel grid runner under a context.
// Every worker runs on its own clone of the network (the attack algorithms
// disable edges transactionally, which must not race), so results are
// bit-for-bit identical to the serial runner, cell order included.
// workers <= 0 uses GOMAXPROCS.
//
// A worker panic is recovered into that unit's failure (counted in
// Cell.FailuresByKind under "panic"); the other workers and cells are
// unaffected. When ctx dies, each worker finishes its poll interval and the
// partial table — fully-computed cells plus whatever the interrupted cells
// accumulated — is returned with ErrInterrupted. Spec.Checkpoint journaling
// is safe for concurrent workers.
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

	results := make([]Cell, len(jobs))
	cellErrs := make([]error, len(jobs))
	jobCh := make(chan cellJob)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			local := net.Clone()
			// Weight and cost functions — and the frozen snapshot, overlay
			// metric and Querier — are derived once per worker, not per job
			// or per unit: jobs repeat the same few cost types on the same
			// cloned graph. Each worker owns its metric (built over its own
			// clone's snapshot), so customization never races across workers.
			weight := local.Weight(spec.WeightType)
			snap := local.Snapshot(spec.WeightType)
			q := newQuerier(ctx, snap, spec.Seed)
			costs := make(map[roadnet.CostType]graph.WeightFunc, len(spec.CostTypes))
			for _, ct := range spec.CostTypes {
				costs[ct] = local.Cost(ct)
			}
			for job := range jobCh {
				cell, err := runCell(ctx, local.Graph(), snap, q, weight, costs[job.ct], net.Name(), job.alg, job.ct, units, spec)
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
