package experiment

// Table runs share one potential memo per network and weight type: the
// hospitals' reverse potentials are computed by the first run and reused
// by every later run and worker clone. These tests hold the reuse to the
// results of fresh computations.

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"altroute/internal/citygen"
	"altroute/internal/graph"
	"altroute/internal/roadnet"
)

// TestRepeatedParallelTablesMatchSerialAndCSR runs three successive
// tables on one network at GOMAXPROCS 2 and 4, each on all cores: every
// one must equal the first table, run on one worker (serial) while the
// network's memo was still empty, and match the per-unit reference attack
// for attack.
func TestRepeatedParallelTablesMatchSerialAndCSR(t *testing.T) {
	net, units, spec := oracleFixture(t)
	ref := perUnitReference(t, net, units, spec)
	serial := zeroRuntimes(matchRecords(t, "serial", spec, ref, func(s Spec) (Table, error) {
		return RunTableOnUnitsParallelCtx(context.Background(), net, units, s, 1)
	}))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{2, 4} {
		runtime.GOMAXPROCS(procs)
		for call := 1; call <= 3; call++ {
			name := fmt.Sprintf("GOMAXPROCS %d, call %d", procs, call)
			got := matchRecords(t, name, spec, ref, func(s Spec) (Table, error) {
				return RunTableOnUnitsParallelCtx(context.Background(), net, units, s, 0)
			})
			if got = zeroRuntimes(got); !reflect.DeepEqual(got, serial) {
				t.Fatalf("%s: table differs from the serial runner's:\n%+v\nwant\n%+v", name, got, serial)
			}
		}
	}
}

// TestTableAfterSetRoadMatchesFreshNetwork warms a network's memo, speeds
// up every road on one unit's p* with SetRoad, and checks that sampling
// and the runner on 1 and 2 workers then give what a freshly built network
// with the same change gives. Faster roads make the old potentials
// overestimates, so a memo that survived SetRoad would show.
func TestTableAfterSetRoadMatchesFreshNetwork(t *testing.T) {
	spec := smallSpec()
	spec.fill()
	build := func() *roadnet.Network {
		net, err := citygen.Build(spec.City, spec.Scale, spec.Seed)
		if err != nil {
			t.Fatal(err)
		}
		return net
	}
	net := build()
	units, err := SampleUnits(net, spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunTableOnUnitsParallelCtx(context.Background(), net, units, spec, 2); err != nil {
		t.Fatal(err)
	}
	speedUp := func(n *roadnet.Network) {
		for _, e := range units[0].PStar.Edges {
			r := n.Road(e)
			r.SpeedMS *= 3
			if err := n.SetRoad(e, r); err != nil {
				t.Fatal(err)
			}
		}
	}
	fresh := build()
	speedUp(net)
	speedUp(fresh)

	got, gotErr := SampleUnits(net, spec)
	want, wantErr := SampleUnits(fresh, spec)
	sameSampling(t, "after SetRoad", got, gotErr, want, wantErr)
	for _, workers := range []int{1, 2} {
		g, err := RunTableOnUnitsParallelCtx(context.Background(), net, want, spec, workers)
		if err != nil {
			t.Fatalf("%d workers on the mutated network: %v", workers, err)
		}
		w, err := RunTableOnUnitsParallelCtx(context.Background(), fresh, want, spec, workers)
		if err != nil {
			t.Fatalf("%d workers on the fresh network: %v", workers, err)
		}
		if g, w = zeroRuntimes(g), zeroRuntimes(w); !reflect.DeepEqual(g, w) {
			t.Fatalf("%d workers after SetRoad: table differs from a fresh network's:\n%+v\nwant\n%+v", workers, g, w)
		}
	}
}

// TestClonesAttackConcurrentlySharingLabels attacks the whole grid on two
// clones at once, each through its own Router and the memo's hospital
// potentials: every attack must match the per-unit reference, and both
// clones (and the network they were cut from) must be served one
// potential per hospital.
func TestClonesAttackConcurrentlySharingLabels(t *testing.T) {
	net, units, spec := oracleFixture(t)
	ref := perUnitReference(t, net, units, spec)
	var (
		clones [2]*roadnet.Network
		got    [2]map[attackKey]attackOutcome
		wg     sync.WaitGroup
	)
	for i := range clones {
		clones[i] = net.Clone()
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = runAll(t, clones[i], units, spec, graph.NewRouter(clones[i].Graph()))
		}()
	}
	wg.Wait()
	for i := range clones {
		for k, want := range ref {
			sameOutcome(t, fmt.Sprintf("clone %d", i), k, want, got[i][k])
		}
	}
	ctx := context.Background()
	for _, u := range units {
		pot := net.Potential(ctx, spec.WeightType, u.Dest)
		for i, c := range clones {
			if c.Potential(ctx, spec.WeightType, u.Dest) != pot {
				t.Fatalf("clone %d holds its own potential for hospital %s", i, u.Hospital)
			}
		}
	}
}
