package experiment

// The table runner gives each worker one Router and looks each hospital's
// potential up once in the network's memo. These tests hold it to
// per-unit runs that pass neither: every (algorithm, cost type, unit)
// attack must match core.RunCtx on a Problem without them, including
// after a reused Router saw a cancelled attack.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"
	"time"

	"altroute/internal/citygen"
	"altroute/internal/core"
	"altroute/internal/faultinject"
	"altroute/internal/graph"
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

// unitProblem is the Problem for unit u on net, with no Potential and no
// Router.
func unitProblem(net *roadnet.Network, u Unit, ct roadnet.CostType, spec Spec) core.Problem {
	return core.Problem{
		G: net.Graph(), Source: u.Source, Dest: u.Dest, PStar: u.PStar,
		Weight: net.Weight(spec.WeightType), Cost: net.Cost(ct), Budget: spec.Budget,
		Snapshot: net.Snapshot(spec.WeightType),
	}
}

func unitOptions(spec Spec) core.Options {
	opts := spec.Options
	opts.Seed = spec.Seed
	return opts
}

// runAll attacks every (algorithm, cost type, unit) of spec on net. With
// a Router every attack runs on it and on the memo's potentials, as a
// runner worker's do; with nil each attack gets neither.
func runAll(t *testing.T, net *roadnet.Network, units []Unit, spec Spec, r *graph.Router) map[attackKey]attackOutcome {
	t.Helper()
	out := make(map[attackKey]attackOutcome)
	for _, alg := range spec.Algorithms {
		for _, ct := range spec.CostTypes {
			for i, u := range units {
				p := unitProblem(net, u, ct, spec)
				if r != nil {
					p.Router = r
					p.Potential = net.Potential(context.Background(), spec.WeightType, u.Dest)
				}
				res, err := core.RunCtx(context.Background(), alg, p, unitOptions(spec))
				out[attackKey{alg, ct, i}] = attackOutcome{res, err}
			}
		}
	}
	return out
}

// perUnitReference is every attack of the grid, each on a clone of net
// with no Potential and no Router.
func perUnitReference(t *testing.T, net *roadnet.Network, units []Unit, spec Spec) map[attackKey]attackOutcome {
	t.Helper()
	return runAll(t, net.Clone(), units, spec, nil)
}

func sameOutcome(t *testing.T, label string, k attackKey, want, got attackOutcome) {
	t.Helper()
	if (want.err == nil) != (got.err == nil) {
		t.Fatalf("%s %s/%s unit %d: err=%v, reference err=%v", label, k.alg, k.ct, k.unit, got.err, want.err)
	}
	if want.err != nil {
		return
	}
	w, g := want.res, got.res
	w.Runtime, g.Runtime = 0, 0
	if !reflect.DeepEqual(w, g) {
		t.Fatalf("%s %s/%s unit %d: result %+v, reference %+v", label, k.alg, k.ct, k.unit, g, w)
	}
}

// TestRunnerMatchesPerUnitRuns checks the runner's records on one worker
// and on two, each on a fresh network, against per-unit core.Run calls
// that pass no Potential and no Router: outcome, failure kind, edge count
// and the exact cost bits of every attack.
func TestRunnerMatchesPerUnitRuns(t *testing.T) {
	net, units, spec := oracleFixture(t)
	ref := perUnitReference(t, net, units, spec)
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
		matchRecords(t, fmt.Sprintf("%d workers", workers), spec, ref, func(s Spec) (Table, error) {
			return RunTableOnUnitsParallelCtx(context.Background(), fresh, units, s, workers)
		})
	}
}

// matchRecords runs one table through run, collecting its records
// through Spec.Audit, and holds every record to the per-unit reference:
// outcome, failure kind, edge count and the exact cost bits. It returns
// the table.
func matchRecords(t *testing.T, name string, spec Spec, ref map[attackKey]attackOutcome, run func(Spec) (Table, error)) Table {
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
			t.Fatalf("%s %s/%s unit %d: ok=%v, reference err=%v", name, k.alg, k.ct, k.unit, rec.OK, want.err)
		case !rec.OK && rec.FailKind != FailureKind(want.err):
			t.Fatalf("%s %s/%s unit %d: fail kind %q, reference %q", name, k.alg, k.ct, k.unit, rec.FailKind, FailureKind(want.err))
		case rec.OK && (rec.Edges != len(want.res.Removed) || math.Float64bits(rec.Cost) != math.Float64bits(want.res.TotalCost)):
			t.Fatalf("%s %s/%s unit %d: %d edges cost %v, reference %d edges cost %v",
				name, k.alg, k.ct, k.unit, rec.Edges, rec.Cost, len(want.res.Removed), want.res.TotalCost)
		}
	}
	return table
}

// TestReusedRouterAfterCancelledAttack reuses one Router and the memo's
// potentials the way a runner worker does: first for an attack cancelled
// after its first cut, then for the whole grid, whose Results must equal
// those of a fresh Router per attack.
func TestReusedRouterAfterCancelledAttack(t *testing.T) {
	net, units, spec := oracleFixture(t)
	ref := perUnitReference(t, net, units, spec)

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
	r := graph.NewRouter(local.Graph())
	enabled := local.Graph().NumEnabledEdges()
	inj := faultinject.New(1).Arm(faultinject.PointAttackStall, faultinject.Rule{OnHit: 2})
	ctx, cancel := context.WithTimeout(faultinject.With(context.Background(), inj), 20*time.Millisecond)
	p := unitProblem(local, units[victim.unit], victim.ct, spec)
	p.Router = r
	_, err := core.RunCtx(ctx, victim.alg, p, unitOptions(spec))
	cancel()
	if !errors.Is(err, core.ErrTimeout) && !errors.Is(err, core.ErrCancelled) {
		t.Fatalf("stalled attack: err = %v, want a timeout or cancellation", err)
	}
	if got := local.Graph().NumEnabledEdges(); got != enabled {
		t.Fatalf("cancelled attack left %d edges enabled, want %d", got, enabled)
	}

	got := runAll(t, local, units, spec, r)
	for k, want := range ref {
		sameOutcome(t, "reused router", k, want, got[k])
	}
}
