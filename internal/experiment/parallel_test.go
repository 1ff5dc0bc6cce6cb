package experiment

import (
	"context"
	"reflect"
	"testing"

	"altroute/internal/citygen"
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
