package roadnet

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"altroute/internal/graph"
)

// sameArrays reports whether two snapshots read the same CSR arrays.
func sameArrays(a, b *graph.Snapshot) bool {
	va, vb := reflect.ValueOf(a).Elem(), reflect.ValueOf(b).Elem()
	for _, f := range []string{"fwdW", "revOff", "w"} {
		if va.FieldByName(f).Pointer() != vb.FieldByName(f).Pointer() {
			return false
		}
	}
	return true
}

// TestCloneSharesFrozenImage: a clone reads its source's CSR arrays
// through a snapshot bound to its own graph and disabled flags, and
// shares the potential memo, until either side's SetRoad drops its own.
func TestCloneSharesFrozenImage(t *testing.T) {
	n, _ := testNet(t)
	snap := n.Snapshot(WeightTime)
	c := n.Clone()
	cs := c.Snapshot(WeightTime)
	if cs == snap || cs.Graph() != c.Graph() || !cs.Valid() {
		t.Fatal("clone snapshot is not bound to the clone's graph")
	}
	if !sameArrays(snap, cs) {
		t.Fatal("clone froze its own arrays instead of sharing its source's")
	}
	if n.snaps[WeightTime].memo != c.snaps[WeightTime].memo {
		t.Fatal("clone does not share its source's potential memo")
	}

	c.Graph().DisableEdge(0)
	if !cs.Disabled()[0] || snap.Disabled()[0] {
		t.Fatal("a cut on the clone is not confined to the clone's snapshot")
	}
	c.Graph().EnableEdge(0)

	// A weight type the source never froze is frozen by the clone itself.
	if sameArrays(n.Snapshot(WeightLength), c.Snapshot(WeightLength)) {
		t.Fatal("clone shares a snapshot its source froze after the clone was cut")
	}

	memo := c.snaps[WeightTime].memo
	r := n.Road(0)
	r.SpeedMS *= 2
	if err := n.SetRoad(0, r); err != nil {
		t.Fatal(err)
	}
	if after := n.Snapshot(WeightTime); after == snap || sameArrays(after, snap) || n.snaps[WeightTime].memo == memo {
		t.Fatal("SetRoad kept the source's frozen image or memo")
	}
	if c.Snapshot(WeightTime) != cs || c.snaps[WeightTime].memo != memo {
		t.Fatal("SetRoad on the source dropped the clone's frozen image")
	}
}

// TestPotentialMemo: a destination's potential is computed once per
// frozen image while the caller is at the image's disabled state, and
// fresh (unshared) in any other state.
func TestPotentialMemo(t *testing.T) {
	n, nodes := testNet(t)
	c := n.Clone() // no snapshot yet: the clone freezes its own image
	d := nodes[3]
	ctx := context.Background()
	fresh := func(net *Network) *graph.Potential {
		r := graph.NewRouter(net.Graph())
		return r.ReversePotential(d, net.Weight(WeightTime))
	}
	samePot := func(label string, got, want *graph.Potential) {
		t.Helper()
		for v := 0; v < n.NumIntersections(); v++ {
			if g, w := got.At(graph.NodeID(v)), want.At(graph.NodeID(v)); math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("%s: potential at %d is %v, want %v", label, v, g, w)
			}
		}
	}

	p := n.Potential(ctx, WeightTime, d)
	samePot("memoized", p, fresh(n))
	if n.Potential(ctx, WeightTime, d) != p {
		t.Fatal("a second call recomputed the potential")
	}
	if c.Potential(ctx, WeightTime, d) == p {
		t.Fatal("a clone cut before the freeze shares its source's potentials")
	}
	shared := n.Clone()
	if shared.Potential(ctx, WeightTime, d) != p {
		t.Fatal("a clone cut after the freeze recomputed the potential")
	}

	e := shared.Graph().OutEdges(nodes[1])[0]
	shared.Graph().DisableEdge(e)
	cut := shared.Potential(ctx, WeightTime, d)
	if cut == p {
		t.Fatal("a clone off the base state was served the shared potential")
	}
	samePot("cut", cut, fresh(shared))
	shared.Graph().EnableEdge(e)
	if shared.Potential(ctx, WeightTime, d) != p {
		t.Fatal("a clone back at the base state was not served the shared potential")
	}

	r := n.Road(e)
	r.SpeedMS *= 2
	if err := n.SetRoad(e, r); err != nil {
		t.Fatal(err)
	}
	after := n.Potential(ctx, WeightTime, d)
	if after == p {
		t.Fatal("SetRoad kept the memoized potential")
	}
	samePot("after SetRoad", after, fresh(n))
}

// TestPotentialDeadContext: a sweep under a dead context yields no
// table and memoizes nothing, so the next caller sweeps afresh.
func TestPotentialDeadContext(t *testing.T) {
	n, nodes := testNet(t)
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	if pot := n.Potential(dead, WeightTime, nodes[3]); pot != nil {
		t.Fatal("a sweep under a dead context returned a table")
	}
	if _, pots, _ := n.MemoStats(); pots != 0 {
		t.Fatalf("a dead sweep memoized %d potentials", pots)
	}
	p := n.Potential(context.Background(), WeightTime, nodes[3])
	if p == nil || math.IsInf(p.At(nodes[0]), 1) {
		t.Fatal("a live sweep after a dead one did not give a full table")
	}
	if snaps, pots, _ := n.MemoStats(); snaps != 1 || pots != 1 {
		t.Fatalf("memo holds %d images and %d potentials, want 1 and 1", snaps, pots)
	}
}

// TestClonesBuildMemoConcurrently cuts clones of one network and asks
// each, concurrently, for a potential: under -race this covers the memo's
// locking, and every clone must end up with the same potential.
func TestClonesBuildMemoConcurrently(t *testing.T) {
	n, nodes := testNet(t)
	n.Snapshot(WeightTime)
	const clones = 4
	pots := make([]*graph.Potential, clones)
	var wg sync.WaitGroup
	for i := 0; i < clones; i++ {
		c := n.Clone()
		wg.Add(1)
		go func() {
			defer wg.Done()
			pots[i] = c.Potential(context.Background(), WeightTime, nodes[2])
		}()
	}
	wg.Wait()
	for i := 1; i < clones; i++ {
		if pots[i] != pots[0] {
			t.Fatalf("clone %d got its own potential", i)
		}
	}
}

// TestSameFlags checks the chunked flag comparison against an element
// loop, with one flag flipped at every position of slices around the
// chunk size.
func TestSameFlags(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{0, 1, 1023, 1024, 1025, 2048, 3001} {
		a := make([]bool, n)
		for i := range a {
			a[i] = rng.Intn(7) == 0
		}
		b := append([]bool(nil), a...)
		if !sameFlags(a, b) {
			t.Fatalf("n=%d: equal slices reported different", n)
		}
		for i := 0; i < n; i++ {
			b[i] = !b[i]
			if sameFlags(a, b) {
				t.Fatalf("n=%d: flag %d flipped, reported equal", n, i)
			}
			b[i] = !b[i]
		}
		if n > 0 && sameFlags(a, b[:n-1]) {
			t.Fatalf("n=%d: slices of different lengths reported equal", n)
		}
	}
}
