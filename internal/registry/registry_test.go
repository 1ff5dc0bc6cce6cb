package registry

import (
	"context"
	"sync"
	"testing"

	"altroute/internal/citygen"
	"altroute/internal/geo"
	"altroute/internal/graph"
	"altroute/internal/roadnet"
)

// testNetwork builds a deterministic dim×dim street grid with two-way
// residential roads and one hospital in the far corner.
func testNetwork(t testing.TB, name string, dim int) *roadnet.Network {
	t.Helper()
	net := roadnet.NewNetwork(name)
	ids := make([]graph.NodeID, dim*dim)
	for r := 0; r < dim; r++ {
		for c := 0; c < dim; c++ {
			ids[r*dim+c] = net.AddIntersection(geo.Point{
				Lat: 42.0 + float64(r)*0.001,
				Lon: -71.0 + float64(c)*0.001,
			})
		}
	}
	road := roadnet.Road{LengthM: 111, SpeedMS: 10, Lanes: 2, WidthM: 7, Class: roadnet.ClassResidential}
	for r := 0; r < dim; r++ {
		for c := 0; c < dim; c++ {
			if c+1 < dim {
				if _, _, err := net.AddTwoWayRoad(ids[r*dim+c], ids[r*dim+c+1], road); err != nil {
					t.Fatalf("AddTwoWayRoad: %v", err)
				}
			}
			if r+1 < dim {
				if _, _, err := net.AddTwoWayRoad(ids[r*dim+c], ids[(r+1)*dim+c], road); err != nil {
					t.Fatalf("AddTwoWayRoad: %v", err)
				}
			}
		}
	}
	if _, err := net.AttachPOI("Test General", citygen.KindHospital, net.Point(ids[dim*dim-1])); err != nil {
		t.Fatalf("AttachPOI: %v", err)
	}
	return net
}

func testShard(t testing.TB, name string, dim int) *Shard {
	t.Helper()
	s, err := NewShard(context.Background(), name, testNetwork(t, name, dim), 2)
	if err != nil {
		t.Fatalf("NewShard: %v", err)
	}
	return s
}

func TestNewShardPreloadsArtifacts(t *testing.T) {
	s := testShard(t, "boston", 4)
	st := s.Stats()
	wantSnaps := len(roadnet.WeightTypes())
	if st.Snapshots != wantSnaps {
		t.Errorf("preloaded %d snapshots, want one per weight type (%d)", st.Snapshots, wantSnaps)
	}
	// One POI (the hospital) × every weight type.
	if st.Potentials != wantSnaps {
		t.Errorf("preloaded %d potentials, want %d", st.Potentials, wantSnaps)
	}
	if st.Generation != 0 {
		t.Errorf("fresh shard at generation %d, want 0", st.Generation)
	}

	hospital := s.Net().POIs()[0].Node
	for _, wt := range roadnet.WeightTypes() {
		snap := s.Snapshot(wt)
		if snap == nil || !snap.Valid() {
			t.Fatalf("Snapshot(%v) invalid", wt)
		}
		pot := s.Potential(context.Background(), wt, hospital)
		if pot == nil || pot.Target() != hospital {
			t.Fatalf("Potential(%v, hospital) = %v, want preloaded table", wt, pot)
		}
		// The preloaded table must be bit-identical to a fresh sweep.
		fresh := graph.NewRouter(s.Net().Graph()).ReversePotential(hospital, s.Net().Weight(wt))
		for v := 0; v < s.Net().NumIntersections(); v++ {
			if pot.At(graph.NodeID(v)) != fresh.At(graph.NodeID(v)) {
				t.Fatalf("Potential(%v) differs from fresh sweep at node %d: %v vs %v",
					wt, v, pot.At(graph.NodeID(v)), fresh.At(graph.NodeID(v)))
			}
		}
	}
}

// TestShardPotentialIsTheNetworksTable: the shard serves the network's
// memoized table, so the master, the shard and a pooled clone read one
// table per (weight type, hospital), not one each.
func TestShardPotentialIsTheNetworksTable(t *testing.T) {
	s := testShard(t, "shared", 4)
	ctx := context.Background()
	hospital := s.Net().POIs()[0].Node
	clone, gen := s.AcquireClone()
	defer s.ReleaseClone(clone, gen)
	for _, wt := range roadnet.WeightTypes() {
		pot := s.Potential(ctx, wt, hospital)
		if pot == nil {
			t.Fatalf("Potential(%v, hospital) = nil", wt)
		}
		if net := s.Net().Potential(ctx, wt, hospital); net != pot {
			t.Errorf("%v: the shard and its network hold separate tables", wt)
		}
		if c := clone.Potential(ctx, wt, hospital); c != pot {
			t.Errorf("%v: a pooled clone holds its own table", wt)
		}
		if s.Snapshot(wt) != s.Net().Snapshot(wt) {
			t.Errorf("%v: the shard and its network hold separate snapshots", wt)
		}
	}
	if st := s.Stats(); st.Potentials != len(roadnet.WeightTypes()) {
		t.Errorf("after serving clones, %d potentials held, want %d", st.Potentials, len(roadnet.WeightTypes()))
	}
}

// sweepHookCtx is a live context that runs hook the first time a sweep
// polls it.
type sweepHookCtx struct {
	context.Context
	once sync.Once
	hook func()
}

func (c *sweepHookCtx) Err() error {
	c.once.Do(c.hook)
	return c.Context.Err()
}

// TestShardPotentialSetRoadDuringSweep: a table swept while a SetRoad
// lands matches neither generation's weights for sure, so it is not
// served; the next call sweeps the new weights.
func TestShardPotentialSetRoadDuringSweep(t *testing.T) {
	s := testShard(t, "racing", 4)
	hospital := s.Net().POIs()[0].Node
	road := s.Net().Road(0)
	road.LengthM *= 3
	if err := s.SetRoad(0, road); err != nil { // drop the preloaded table
		t.Fatalf("SetRoad: %v", err)
	}
	road.LengthM *= 3
	ctx := &sweepHookCtx{Context: context.Background(), hook: func() {
		if err := s.SetRoad(0, road); err != nil {
			t.Errorf("SetRoad during the sweep: %v", err)
		}
	}}
	if pot := s.Potential(ctx, roadnet.WeightLength, hospital); pot != nil {
		t.Fatal("Potential served a table swept across a SetRoad")
	}
	pot := s.Potential(context.Background(), roadnet.WeightLength, hospital)
	fresh := graph.NewRouter(s.Net().Graph()).ReversePotential(hospital, s.Net().Weight(roadnet.WeightLength))
	for v := 0; v < s.Net().NumIntersections(); v++ {
		if pot.At(graph.NodeID(v)) != fresh.At(graph.NodeID(v)) {
			t.Fatalf("potential after the racing SetRoad differs from a fresh sweep at node %d", v)
		}
	}
}

// TestShardConcurrentReadersAndSetRoad reads potentials, snapshots,
// stats and clones from several goroutines while SetRoad re-weights the
// master (run with -race), then holds the served table to a fresh sweep.
func TestShardConcurrentReadersAndSetRoad(t *testing.T) {
	s := testShard(t, "busy", 5)
	ctx := context.Background()
	hospital := s.Net().POIs()[0].Node
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, wt := range roadnet.WeightTypes() {
					s.Potential(ctx, wt, hospital)
					s.Snapshot(wt)
				}
				s.Stats()
				c, gen := s.AcquireClone()
				c.Potential(ctx, roadnet.WeightTime, hospital)
				s.ReleaseClone(c, gen)
			}
		}()
	}
	road := s.Net().Road(0)
	for i := 0; i < 20; i++ {
		road.LengthM += 10
		if err := s.SetRoad(0, road); err != nil {
			t.Errorf("SetRoad: %v", err)
		}
	}
	close(stop)
	wg.Wait()
	for _, wt := range roadnet.WeightTypes() {
		pot := s.Potential(ctx, wt, hospital)
		fresh := graph.NewRouter(s.Net().Graph()).ReversePotential(hospital, s.Net().Weight(wt))
		for v := 0; v < s.Net().NumIntersections(); v++ {
			if pot.At(graph.NodeID(v)) != fresh.At(graph.NodeID(v)) {
				t.Fatalf("%v: potential after concurrent SetRoads differs from a fresh sweep at node %d", wt, v)
			}
		}
	}
}

func TestShardPotentialAdHocDestination(t *testing.T) {
	s := testShard(t, "adhoc", 3)
	// Node 0 is a plain intersection, not a POI: the shard must not spend
	// memory caching potentials for arbitrary destinations.
	if pot := s.Potential(context.Background(), roadnet.WeightLength, 0); pot != nil {
		t.Errorf("Potential(non-POI) = %v, want nil (caller computes its own)", pot)
	}
}

func TestShardSetRoadAdvancesGeneration(t *testing.T) {
	s := testShard(t, "mutating", 4)
	oldSnap := s.Snapshot(roadnet.WeightLength)
	hospital := s.Net().POIs()[0].Node
	oldPot := s.Potential(context.Background(), roadnet.WeightLength, hospital)

	road := s.Net().Road(0)
	road.LengthM *= 3
	if err := s.SetRoad(0, road); err != nil {
		t.Fatalf("SetRoad: %v", err)
	}
	if got := s.Generation(); got != 1 {
		t.Fatalf("generation = %d after SetRoad, want 1", got)
	}

	newSnap := s.Snapshot(roadnet.WeightLength)
	if newSnap == oldSnap {
		t.Error("Snapshot not rebuilt after SetRoad")
	}
	newPot := s.Potential(context.Background(), roadnet.WeightLength, hospital)
	if newPot == oldPot {
		t.Error("Potential not recomputed after SetRoad")
	}
	// The rebuilt table must match a fresh sweep over the mutated weights.
	fresh := graph.NewRouter(s.Net().Graph()).ReversePotential(hospital, s.Net().Weight(roadnet.WeightLength))
	for v := 0; v < s.Net().NumIntersections(); v++ {
		if newPot.At(graph.NodeID(v)) != fresh.At(graph.NodeID(v)) {
			t.Fatalf("post-SetRoad potential differs from fresh sweep at node %d", v)
		}
	}
}

func TestClonePoolRecyclesAndFlushes(t *testing.T) {
	s := testShard(t, "pooled", 3)

	c1, g1 := s.AcquireClone()
	if g1 != 0 {
		t.Fatalf("clone generation = %d, want 0", g1)
	}
	if c1 == s.Net() {
		t.Fatal("AcquireClone returned the master network")
	}
	s.ReleaseClone(c1, g1)
	c2, g2 := s.AcquireClone()
	if c2 != c1 {
		t.Error("released clone was not recycled at the same generation")
	}
	if st := s.Stats(); st.PoolHits != 1 || st.PoolMisses != 1 {
		t.Errorf("stats = %+v, want 1 hit (recycle), 1 miss (first cut)", st)
	}

	// A mutation makes the held clone stale: releasing it must drop it,
	// and the next acquire must cut a fresh clone with the new weights.
	road := s.Net().Road(0)
	road.LengthM *= 2
	if err := s.SetRoad(0, road); err != nil {
		t.Fatalf("SetRoad: %v", err)
	}
	s.ReleaseClone(c2, g2)
	c3, g3 := s.AcquireClone()
	if c3 == c2 {
		t.Error("stale clone recycled across a generation bump")
	}
	if g3 != 1 {
		t.Errorf("post-mutation clone at generation %d, want 1", g3)
	}
	if c3.Road(0).LengthM != road.LengthM {
		t.Errorf("fresh clone carries stale road: %v, want %v", c3.Road(0).LengthM, road.LengthM)
	}
	if st := s.Stats(); st.PoolStale == 0 {
		t.Errorf("stats = %+v, want stale drops recorded", st)
	}
}

func TestCloneDisabledEdgesSanitizedOnRelease(t *testing.T) {
	s := testShard(t, "sanitize", 3)
	c, gen := s.AcquireClone()
	c.Graph().DisableEdge(0) // simulate an attack that did not unwind
	s.ReleaseClone(c, gen)
	c2, _ := s.AcquireClone()
	if c2.Graph().EdgeDisabled(0) {
		t.Error("recycled clone still carries disabled edges from the previous attack")
	}
}

func TestRegistryLookup(t *testing.T) {
	r := NewRegistry()
	boston := testShard(t, "Boston", 3)
	providence := testShard(t, "providence", 3)
	if err := r.Add(boston); err != nil {
		t.Fatalf("Add(boston): %v", err)
	}
	if err := r.Add(providence); err != nil {
		t.Fatalf("Add(providence): %v", err)
	}

	// Names normalize: the shard registered from "Boston" answers to any
	// casing and space/hyphen spelling.
	for _, name := range []string{"boston", "Boston", "BOSTON", " boston "} {
		if s, ok := r.Get(name); !ok || s != boston {
			t.Errorf("Get(%q) = %v, %v; want the boston shard", name, s, ok)
		}
	}
	// Empty name falls through to the default (first added).
	if s, ok := r.Get(""); !ok || s != boston {
		t.Errorf("Get(\"\") = %v, %v; want default shard boston", s, ok)
	}
	if err := r.SetDefault("providence"); err != nil {
		t.Fatalf("SetDefault: %v", err)
	}
	if s, _ := r.Get(""); s != providence {
		t.Error("SetDefault did not change the default shard")
	}
	if _, ok := r.Get("gotham"); ok {
		t.Error("Get(unknown) must report false")
	}
	if err := r.SetDefault("gotham"); err == nil {
		t.Error("SetDefault(unknown) must fail")
	}
	if err := r.Add(testShard(t, "BOSTON", 3)); err == nil {
		t.Error("Add must reject duplicate (normalized) names")
	}
	if got := r.Names(); len(got) != 2 || got[0] != "boston" || got[1] != "providence" {
		t.Errorf("Names() = %v, want [boston providence]", got)
	}
	if got := r.Shards(); len(got) != 2 || got[0] != boston || got[1] != providence {
		t.Errorf("Shards() out of registration order")
	}
}

func TestNewShardCancelledPreload(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := NewShard(ctx, "late", testNetwork(t, "late", 3), 1); err == nil {
		t.Error("NewShard under a dead context must fail, not preload partial tables")
	}
}
