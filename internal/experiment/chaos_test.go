package experiment

import (
	"context"
	"errors"
	"slices"
	"testing"
	"time"

	"altroute/internal/citygen"
	"altroute/internal/core"
	"altroute/internal/faultinject"
	"altroute/internal/roadnet"
)

// buildSmall builds the smallSpec network once per test.
func buildSmall(t *testing.T) (*roadnet.Network, Spec) {
	t.Helper()
	spec := smallSpec()
	net, err := citygen.Build(spec.City, spec.Scale, spec.Seed)
	if err != nil {
		t.Fatal(err)
	}
	spec.Net = net
	return net, spec
}

func injectedCtx(seed int64, p faultinject.Point, r faultinject.Rule) context.Context {
	return faultinject.With(context.Background(), faultinject.New(seed).Arm(p, r))
}

func TestChaosWorkerPanicIsolatedInParallelTable(t *testing.T) {
	net, spec := buildSmall(t)
	spec.Algorithms = []core.Algorithm{core.AlgGreedyEdge}
	units, err := SampleUnits(net, spec)
	if err != nil {
		t.Fatal(err)
	}
	ctx := injectedCtx(1, faultinject.PointWorkerPanic, faultinject.Rule{OnHit: 1})
	table, err := RunTableOnUnitsParallelCtx(ctx, net, units, spec, 3)
	if err != nil {
		t.Fatalf("table run died with a worker panic: %v", err)
	}
	panics, total := 0, 0
	for _, c := range table.Cells {
		panics += c.FailuresByKind["panic"]
		total += c.Runs + c.Failures
	}
	if panics != 1 {
		t.Errorf("panic failures = %d, want exactly 1", panics)
	}
	if want := len(units) * len(table.Cells); total != want {
		t.Errorf("runs+failures = %d, want %d (every unit accounted for)", total, want)
	}
}

func TestChaosWorkerPanicEveryUnitStillCompletes(t *testing.T) {
	net, spec := buildSmall(t)
	spec.Algorithms = []core.Algorithm{core.AlgGreedyEdge}
	spec.CostTypes = []roadnet.CostType{roadnet.CostUniform}
	units, err := SampleUnits(net, spec)
	if err != nil {
		t.Fatal(err)
	}
	ctx := injectedCtx(1, faultinject.PointWorkerPanic, faultinject.Rule{Every: 1})
	table, err := RunTableOnUnitsParallelCtx(ctx, net, units, spec, 1)
	if err != nil {
		t.Fatalf("run err = %v", err)
	}
	c := table.Cells[0]
	if c.Runs != 0 || c.Failures != len(units) || c.FailuresByKind["panic"] != len(units) {
		t.Errorf("cell = %+v, want all %d units failed as panics", c, len(units))
	}
}

func TestChaosPerAttackTimeoutCountedByKind(t *testing.T) {
	net, spec := buildSmall(t)
	spec.Algorithms = []core.Algorithm{core.AlgGreedyEdge}
	spec.CostTypes = []roadnet.CostType{roadnet.CostUniform}
	// An already-expired per-attack deadline: every unit fails fast with
	// ErrTimeout while the run context stays alive, so the failures are
	// journaled per-unit rather than treated as an interruption.
	spec.Options.Timeout = time.Nanosecond
	units, err := SampleUnits(net, spec)
	if err != nil {
		t.Fatal(err)
	}
	table, err := RunTableOnUnitsParallelCtx(context.Background(), net, units, spec, 1)
	if err != nil {
		t.Fatalf("run err = %v", err)
	}
	c := table.Cells[0]
	if c.FailuresByKind["timeout"] != len(units) {
		t.Errorf("timeout failures = %v, want %d", c.FailuresByKind, len(units))
	}
}

func TestChaosLPFailuresProduceDegradedCells(t *testing.T) {
	net, spec := buildSmall(t)
	spec.Algorithms = []core.Algorithm{core.AlgLPPathCover}
	spec.CostTypes = []roadnet.CostType{roadnet.CostUniform}
	units, err := SampleUnits(net, spec)
	if err != nil {
		t.Fatal(err)
	}
	ctx := injectedCtx(1, faultinject.PointLPSolve, faultinject.Rule{Every: 1})
	table, err := RunTableOnUnitsParallelCtx(ctx, net, units, spec, 1)
	if err != nil {
		t.Fatalf("run err = %v", err)
	}
	c := table.Cells[0]
	if c.Failures != 0 {
		t.Errorf("failures = %d (%v), want 0: LP breakdown must degrade, not fail", c.Failures, c.FailuresByKind)
	}
	if c.Degraded != c.Runs || c.Runs == 0 {
		t.Errorf("degraded = %d of %d runs, want all", c.Degraded, c.Runs)
	}
}

// TestRunTableInterruptedReturnsPartialTable: a run whose context died
// returns ErrInterrupted wrapping the cause, with a table that lists every
// cell in job order, on one worker and on two.
func TestRunTableInterruptedReturnsPartialTable(t *testing.T) {
	net, spec := buildSmall(t)
	spec.Algorithms = []core.Algorithm{core.AlgGreedyEdge, core.AlgGreedyEig}
	units, err := SampleUnits(net, spec)
	if err != nil {
		t.Fatal(err)
	}
	type job struct {
		alg core.Algorithm
		ct  roadnet.CostType
	}
	var want []job
	for _, alg := range spec.Algorithms {
		for _, ct := range roadnet.CostTypes() {
			want = append(want, job{alg, ct})
		}
	}
	cause := errors.New("operator abort")
	ctx, cancel := context.WithCancelCause(context.Background())
	cancel(cause)
	for _, workers := range []int{1, 2} {
		table, err := RunTableOnUnitsParallelCtx(ctx, net, units, spec, workers)
		if !errors.Is(err, ErrInterrupted) {
			t.Fatalf("%d workers: err = %v, want ErrInterrupted", workers, err)
		}
		if !errors.Is(err, cause) {
			t.Errorf("%d workers: err = %v does not wrap the cancellation cause", workers, err)
		}
		var got []job
		for _, c := range table.Cells {
			got = append(got, job{c.Algorithm, c.CostType})
		}
		if !slices.Equal(got, want) {
			t.Errorf("%d workers: partial table cells %v, want %v", workers, got, want)
		}
	}
}
