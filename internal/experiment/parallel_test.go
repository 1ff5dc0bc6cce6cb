package experiment

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"testing"

	"altroute/internal/citygen"
	"altroute/internal/core"
	"altroute/internal/graph"
	"altroute/internal/roadnet"
)

// TestParallelMatchesSerial verifies the runner gives bit-for-bit the same
// table on one worker (serial) as on four, on fresh networks and on
// networks whose memo another run already built (run with -race to
// exercise the clone-based isolation).
func TestParallelMatchesSerial(t *testing.T) {
	spec := smallSpec()
	build := func() *roadnet.Network {
		net, err := citygen.Build(spec.City, spec.Scale, spec.Seed)
		if err != nil {
			t.Fatal(err)
		}
		return net
	}
	serialNet, parallelNet := build(), build()
	units, err := SampleUnits(serialNet, spec)
	if err != nil {
		t.Fatal(err)
	}
	enabledBefore := serialNet.Graph().NumEnabledEdges()
	run := func(net *roadnet.Network, workers int) Table {
		t.Helper()
		table, err := RunTableOnUnitsParallelCtx(context.Background(), net, units, spec, workers)
		if err != nil {
			t.Fatalf("%d workers: %v", workers, err)
		}
		return zeroRuntimes(table)
	}
	serial := run(serialNet, 1)
	for name, got := range map[string]Table{
		"4 workers, fresh network":  run(parallelNet, 4),
		"1 worker, warmed network":  run(parallelNet, 1),
		"4 workers, warmed network": run(serialNet, 4),
	} {
		if !reflect.DeepEqual(got, serial) {
			t.Errorf("%s: table differs from 1 worker on a fresh network:\n%+v\nwant\n%+v", name, got, serial)
		}
	}
	// The original network must be untouched (POI attachment leaves some
	// permanently removed edges, so compare against the pre-run count).
	if serialNet.Graph().NumEnabledEdges() != enabledBefore {
		t.Error("a run mutated the shared network")
	}

	// Degenerate worker counts.
	for _, workers := range []int{0, -1, 99} {
		if got := run(serialNet, workers); !reflect.DeepEqual(got, serial) {
			t.Errorf("workers=%d: table differs from 1 worker", workers)
		}
	}
}

// eigenSolveBytes reports the bytes SharedEdgeEigenScores allocates on g:
// none once g's eigenscore memo is filled, and at least the 8-byte-per-edge
// score slice when the call has to solve. No other goroutine of the package
// runs meanwhile, so the reading is the call's own.
func eigenSolveBytes(g *graph.Graph) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	graph.SharedEdgeEigenScores(g)
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestTableFillsEigenMemoBeforeWorkers: a table with GreedyEig solves the
// eigenscores on the master before any worker starts, so the first
// GreedyEig unit's Runtime measures the attack, not the one-time solve.
// With the run context dead on entry no worker attacks at all, yet the
// memo must be filled; a table without GreedyEig must leave it empty.
// (TestRunnerMatchesPerUnitRuns holds the records, GreedyEig's included,
// to per-unit runs whose memo fills inside their first attack.)
func TestTableFillsEigenMemoBeforeWorkers(t *testing.T) {
	_, units, spec := oracleFixture(t)
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct {
		alg    core.Algorithm
		filled bool
	}{{core.AlgGreedyEig, true}, {core.AlgGreedyEdge, false}} {
		s := spec
		s.Algorithms = []core.Algorithm{tc.alg}
		attacks := 0
		s.Audit = func(Record) { attacks++ }
		net, err := citygen.Build(spec.City, spec.Scale, spec.Seed)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := RunTableOnUnitsParallelCtx(dead, net, units, s, 2); !errors.Is(err, ErrInterrupted) {
			t.Fatalf("%s: run on a dead context = %v, want ErrInterrupted", tc.alg, err)
		}
		if attacks != 0 {
			t.Fatalf("%s: %d attacks ran on a dead context", tc.alg, attacks)
		}
		solve := uint64(8 * net.Graph().NumEdges())
		if got := eigenSolveBytes(net.Graph()); (got < solve) != tc.filled {
			t.Fatalf("%s: SharedEdgeEigenScores allocated %d bytes after the run (a solve takes >= %d); want memo filled = %v",
				tc.alg, got, solve, tc.filled)
		}
	}
}
