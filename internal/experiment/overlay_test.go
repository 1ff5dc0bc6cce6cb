package experiment

// The table runner always answers oracle rounds through the partition
// overlay. These tests hold it to the CSR oracle: every (algorithm, cost
// type, unit) attack must match core.RunCtx on a Problem without a
// querier, including after a reused Querier saw a cancelled attack, and a
// run whose context is dead before the overlay is built must fall back
// instead of failing.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"
	"time"

	"altroute/internal/citygen"
	"altroute/internal/core"
	"altroute/internal/faultinject"
	"altroute/internal/graph"
	"altroute/internal/overlay"
	"altroute/internal/roadnet"
)

type attackKey struct {
	alg  core.Algorithm
	ct   roadnet.CostType
	unit int
}

type attackOutcome struct {
	res core.Result
	err error
}

// oracleFixture is the small city, its units, and the full spec.
func oracleFixture(t *testing.T) (*roadnet.Network, []Unit, Spec) {
	t.Helper()
	spec := smallSpec()
	spec.fill()
	net, err := citygen.Build(spec.City, spec.Scale, spec.Seed)
	if err != nil {
		t.Fatal(err)
	}
	units, err := SampleUnits(net, spec)
	if err != nil {
		t.Fatal(err)
	}
	return net, units, spec
}

// unitProblem is the Problem the runner builds for unit u on net.
func unitProblem(net *roadnet.Network, snap *graph.Snapshot, u Unit, ct roadnet.CostType, spec Spec, q *overlay.Querier) core.Problem {
	return core.Problem{
		G: net.Graph(), Source: u.Source, Dest: u.Dest, PStar: u.PStar,
		Weight: net.Weight(spec.WeightType), Cost: net.Cost(ct), Budget: spec.Budget,
		Snapshot: snap, Overlay: q,
	}
}

func unitOptions(spec Spec) core.Options {
	opts := spec.Options
	opts.Seed = spec.Seed
	return opts
}

// runAll attacks every (algorithm, cost type, unit) of spec on one clone
// of net, all through q (nil: the CSR oracle).
func runAll(t *testing.T, net *roadnet.Network, snap *graph.Snapshot, units []Unit, spec Spec, q *overlay.Querier) map[attackKey]attackOutcome {
	t.Helper()
	out := make(map[attackKey]attackOutcome)
	for _, alg := range spec.Algorithms {
		for _, ct := range spec.CostTypes {
			for i, u := range units {
				res, err := core.RunCtx(context.Background(), alg, unitProblem(net, snap, u, ct, spec, q), unitOptions(spec))
				out[attackKey{alg, ct, i}] = attackOutcome{res, err}
			}
		}
	}
	return out
}

// csrReference is every attack of the grid on the CSR oracle.
func csrReference(t *testing.T, net *roadnet.Network, units []Unit, spec Spec) map[attackKey]attackOutcome {
	t.Helper()
	ref := net.Clone()
	return runAll(t, ref, ref.Snapshot(spec.WeightType), units, spec, nil)
}

func sameOutcome(t *testing.T, label string, k attackKey, want, got attackOutcome) {
	t.Helper()
	if (want.err == nil) != (got.err == nil) {
		t.Fatalf("%s %s/%s unit %d: CSR err=%v, overlay err=%v", label, k.alg, k.ct, k.unit, want.err, got.err)
	}
	if want.err != nil {
		return
	}
	if !slices.Equal(want.res.Removed, got.res.Removed) {
		t.Fatalf("%s %s/%s unit %d: removed %v, CSR oracle %v", label, k.alg, k.ct, k.unit, got.res.Removed, want.res.Removed)
	}
	if math.Float64bits(want.res.TotalCost) != math.Float64bits(got.res.TotalCost) {
		t.Fatalf("%s %s/%s unit %d: total cost %v, CSR oracle %v", label, k.alg, k.ct, k.unit, got.res.TotalCost, want.res.TotalCost)
	}
	if want.res.Rounds != got.res.Rounds {
		t.Fatalf("%s %s/%s unit %d: %d rounds, CSR oracle %d", label, k.alg, k.ct, k.unit, got.res.Rounds, want.res.Rounds)
	}
}

// TestRunnersMatchCSROracle checks the runner's records on one worker
// (serial) and on two, each on a fresh network, against the CSR
// reference: outcome, failure kind, edge count and the exact cost bits of
// every attack.
func TestRunnersMatchCSROracle(t *testing.T) {
	net, units, spec := oracleFixture(t)
	ref := csrReference(t, net, units, spec)
	succeeded := 0
	for _, o := range ref {
		if o.err == nil {
			succeeded++
		}
	}
	if succeeded == 0 {
		t.Fatal("no attack of the fixture succeeds: the comparison would be vacuous")
	}
	for _, workers := range []int{1, 2} {
		fresh, err := citygen.Build(spec.City, spec.Scale, spec.Seed)
		if err != nil {
			t.Fatal(err)
		}
		matchCSRRecords(t, fmt.Sprintf("%d workers", workers), spec, ref, func(s Spec) (Table, error) {
			return RunTableOnUnitsParallelCtx(context.Background(), fresh, units, s, workers)
		})
	}
}

// matchCSRRecords runs one table through run, collecting its records
// through Spec.Audit, and holds every record to the CSR reference:
// outcome, failure kind, edge count and the exact cost bits. It returns
// the table.
func matchCSRRecords(t *testing.T, name string, spec Spec, ref map[attackKey]attackOutcome, run func(Spec) (Table, error)) Table {
	t.Helper()
	var mu sync.Mutex
	recs := make(map[attackKey]Record)
	s := spec
	s.Audit = func(rec Record) {
		alg, err := core.ParseAlgorithm(rec.Algorithm)
		if err != nil {
			t.Errorf("%s: record algorithm %q: %v", name, rec.Algorithm, err)
			return
		}
		ct, err := roadnet.ParseCostType(rec.CostType)
		if err != nil {
			t.Errorf("%s: record cost type %q: %v", name, rec.CostType, err)
			return
		}
		mu.Lock()
		recs[attackKey{alg, ct, rec.Unit}] = rec
		mu.Unlock()
	}
	table, err := run(s)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if len(recs) != len(ref) {
		t.Fatalf("%s: %d records, want %d", name, len(recs), len(ref))
	}
	for k, want := range ref {
		rec, ok := recs[k]
		switch {
		case !ok:
			t.Fatalf("%s %s/%s unit %d: no record", name, k.alg, k.ct, k.unit)
		case rec.OK != (want.err == nil):
			t.Fatalf("%s %s/%s unit %d: ok=%v, CSR oracle err=%v", name, k.alg, k.ct, k.unit, rec.OK, want.err)
		case !rec.OK && rec.FailKind != FailureKind(want.err):
			t.Fatalf("%s %s/%s unit %d: fail kind %q, CSR oracle %q", name, k.alg, k.ct, k.unit, rec.FailKind, FailureKind(want.err))
		case rec.OK && (rec.Edges != len(want.res.Removed) || math.Float64bits(rec.Cost) != math.Float64bits(want.res.TotalCost)):
			t.Fatalf("%s %s/%s unit %d: %d edges cost %v, CSR oracle %d edges cost %v",
				name, k.alg, k.ct, k.unit, rec.Edges, rec.Cost, len(want.res.Removed), want.res.TotalCost)
		}
	}
	return table
}

// TestReusedQuerierAfterCancelledAttack reuses one Querier the way a
// runner worker does: first for an attack cancelled after its first cut,
// then for the whole grid, whose Removed sets, costs and round counts
// must equal the CSR oracle's.
func TestReusedQuerierAfterCancelledAttack(t *testing.T) {
	net, units, spec := oracleFixture(t)
	ref := csrReference(t, net, units, spec)

	// An attack that cuts at least twice stalls at its second round.
	victim := attackKey{core.AlgGreedyEdge, roadnet.CostUniform, -1}
	for i := range units {
		if o := ref[attackKey{victim.alg, victim.ct, i}]; o.err == nil && len(o.res.Removed) >= 2 {
			victim.unit = i
			break
		}
	}
	if victim.unit < 0 {
		t.Fatal("fixture has no GreedyEdge attack with two cuts")
	}

	local := net.Clone()
	snap := local.Snapshot(spec.WeightType)
	q := local.Querier(context.Background(), spec.WeightType)
	if q == nil {
		t.Fatal("Querier returned nil on a live context")
	}
	enabled := local.Graph().NumEnabledEdges()
	inj := faultinject.New(1).Arm(faultinject.PointAttackStall, faultinject.Rule{OnHit: 2})
	ctx, cancel := context.WithTimeout(faultinject.With(context.Background(), inj), 20*time.Millisecond)
	_, err := core.RunCtx(ctx, victim.alg, unitProblem(local, snap, units[victim.unit], victim.ct, spec, q), unitOptions(spec))
	cancel()
	if !errors.Is(err, core.ErrTimeout) && !errors.Is(err, core.ErrCancelled) {
		t.Fatalf("stalled attack: err = %v, want a timeout or cancellation", err)
	}
	if got := local.Graph().NumEnabledEdges(); got != enabled {
		t.Fatalf("cancelled attack left %d edges enabled, want %d", got, enabled)
	}

	got := runAll(t, local, snap, units, spec, q)
	for k, want := range ref {
		sameOutcome(t, "reused querier", k, want, got[k])
	}
}

// TestDeadContextAtBuildFallsBack: with the context dead before the
// overlay is built, Querier yields no querier, the runner returns
// ErrInterrupted instead of failing, and a Problem without a querier runs
// the CSR oracle. The dead build leaves nothing memoized: a later call
// with a live context gets the overlay again, on the network and on its
// clone.
func TestDeadContextAtBuildFallsBack(t *testing.T) {
	net, units, spec := oracleFixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	local := net.Clone()
	snap := local.Snapshot(spec.WeightType)
	if q := local.Querier(ctx, spec.WeightType); q != nil {
		t.Fatal("Querier built a querier on a dead context")
	}
	for _, workers := range []int{1, 2} {
		if _, err := RunTableOnUnitsParallelCtx(ctx, net, units, spec, workers); !errors.Is(err, ErrInterrupted) {
			t.Fatalf("%d workers on a dead context: err = %v, want ErrInterrupted", workers, err)
		}
	}

	ref := csrReference(t, net, units, spec)
	k := attackKey{core.AlgGreedyPathCover, roadnet.CostUniform, 0}
	res, err := core.RunCtx(context.Background(), k.alg, unitProblem(local, snap, units[0], k.ct, spec, nil), unitOptions(spec))
	sameOutcome(t, "nil querier", k, ref[k], attackOutcome{res, err})

	for name, n := range map[string]*roadnet.Network{"network": net, "clone": local} {
		if q := n.Querier(context.Background(), spec.WeightType); q == nil {
			t.Fatalf("%s: Querier on a live context after a dead-context build returned nil", name)
		}
	}
	q := local.Querier(context.Background(), spec.WeightType)
	res, err = core.RunCtx(context.Background(), k.alg, unitProblem(local, snap, units[0], k.ct, spec, q), unitOptions(spec))
	sameOutcome(t, "querier after a dead build", k, ref[k], attackOutcome{res, err})
}
