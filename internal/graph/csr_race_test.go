package graph

import (
	"sync"
	"testing"
)

// Race coverage for the places a frozen snapshot is deliberately shared
// across goroutines: routers serving concurrent queries on one snapshot
// (as the serving shards and the parallel sampler run them) and the
// parallel Brandes workers. Run with -race in CI; the assertions double
// as determinism checks under real concurrency.

// TestFrozenSharedSnapshotConcurrentRouters: many routers, one snapshot,
// concurrent mixed queries (with per-router ban overlays in play) — no
// races, and every goroutine sees the reference kernel's answer.
func TestFrozenSharedSnapshotConcurrentRouters(t *testing.T) {
	g, w := gridGraph(6, 6)
	snap := Freeze(g, w)

	want, ok := newRefRouter(g, w).shortest(0, 35)
	if !ok {
		t.Fatal("grid corner unreachable")
	}

	var wg sync.WaitGroup
	errs := make(chan string, 16)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r := NewRouter(g)
			r.UseSnapshot(snap)
			for iter := 0; iter < 30; iter++ {
				got, ok := r.ShortestPath(0, 35, w)
				if !ok || got.Length != want.Length || !got.SameEdges(want) {
					errs <- "ShortestPath diverged under concurrency"
					return
				}
				// Exercise the ban overlay: it must stay router-local.
				r.ShortestPathAvoiding(0, 35, w, []NodeID{want.Nodes[1]})
				r.ReversePotential(35, w)
				r.KShortest(0, 35, 3, w)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Error(msg)
	}
}

// TestFrozenParallelYenRace: rank-40 Yen queries on a tied lattice run in
// parallel, one router per goroutine, all on one shared snapshot and one
// shared potential; every path list must match the reference engine
// exactly.
func TestFrozenParallelYenRace(t *testing.T) {
	g, w := gridGraph(5, 5)
	want := refKShortest(g, w, 0, 24, 40, nil)
	snap := Freeze(g, w)
	pot := NewRouter(g).ReversePotential(24, w)

	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := NewRouter(g)
			r.UseSnapshot(snap)
			for rep := 0; rep < 3; rep++ {
				if err := samePathList(r.KShortestWithPotential(0, 24, 40, w, pot), want); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestBetweennessParallelRace: full-graph parallel Brandes on a shared
// snapshot, repeated, must be race-free and reproduce the serial reference
// scores bit for bit every time.
func TestBetweennessParallelRace(t *testing.T) {
	g, w := gridGraph(6, 6)
	snap := Freeze(g, w)
	opts := BetweennessOptions{Normalize: true}
	want := EdgeBetweenness(g, w, opts)

	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := BetweennessParallel(t.Context(), snap, opts, 4)
			if err != nil {
				errs <- err.Error()
				return
			}
			for e := range want {
				if got[e] != want[e] {
					errs <- "parallel Brandes diverged from serial"
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Error(msg)
	}
}

// TestConcurrentRouters verifies the documented concurrency contract: one
// Router per goroutine over a shared immutable graph is race-free (run
// with -race), including the per-call freeze each unattached router makes.
func TestConcurrentRouters(t *testing.T) {
	g, w := gridGraph(10, 10)
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for k := 0; k < 8; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			r := NewRouter(g)
			for i := 0; i < 50; i++ {
				s := NodeID((i*k + 3) % 100)
				d := NodeID((i + k*13) % 100)
				if _, ok := r.ShortestPath(s, d, w); !ok {
					errs <- "grid query failed"
					return
				}
				if paths := r.KShortest(s, d, 2, w); len(paths) == 0 {
					errs <- "grid k-shortest query failed"
					return
				}
			}
		}(k)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
