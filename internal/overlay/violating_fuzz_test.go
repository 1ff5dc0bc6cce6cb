package overlay

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"altroute/internal/graph"
)

// fuzzInput hands out the fuzz input one byte at a time, zeros once it
// runs out, so every input decodes to some case.
type fuzzInput []byte

func (b *fuzzInput) next() int {
	if len(*b) == 0 {
		return 0
	}
	x := (*b)[0]
	*b = (*b)[1:]
	return int(x)
}

// fuzzLattice decodes a two-way lattice of 72 to 240 nodes, more than
// one cell holds, plus up to seven one-way shortcuts. Shape bytes come
// from the input; weights and shortcut ends from rng. The first byte
// picks the weights: tenths (ties everywhere, and float sums that depend
// on where a path is split into root and spur) or values in [0.5, 1.5)
// plus a per-edge offset (ties are rare). It reports which.
func fuzzLattice(b *fuzzInput, rng *rand.Rand) (g *graph.Graph, w graph.WeightFunc, tenths bool) {
	tenths = b.next()%2 == 0
	rows, cols := 8+b.next()%8, 9+b.next()%8
	g = graph.New(rows * cols)
	var weights []float64
	add := func(u, v int) {
		g.MustAddEdge(graph.NodeID(u), graph.NodeID(v))
		if tenths {
			weights = append(weights, float64(1+rng.Intn(3))/10)
		} else {
			weights = append(weights, 0.5+rng.Float64()+float64(len(weights))*1e-7)
		}
	}
	id := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				add(id(r, c), id(r, c+1))
				add(id(r, c+1), id(r, c))
			}
			if r+1 < rows {
				add(id(r, c), id(r+1, c))
				add(id(r+1, c), id(r, c))
			}
		}
	}
	for k := b.next() % 8; k > 0; k-- {
		add(rng.Intn(rows*cols), rng.Intn(rows*cols))
	}
	return g, func(e graph.EdgeID) float64 { return weights[e] }, tenths
}

// FuzzViolatingMatchesCSR decodes a lattice, a query with a p* of rank
// one to four, and up to sixteen cuts, each an edge off p* drawn from the
// CSR oracle's current witness, as the greedy attacks cut. A base built on the intact
// master graph is bound to a clone (graph.Snapshot.Rebind, Base.Metric)
// whose labels are built before the cuts, as a table worker's are. After
// every cut on the clone its Violating must give the witness of a metric
// built fresh on the cut clone, edge for edge, and the verdict of the CSR
// oracle (BestAlternativeWithPotential with a pre-cut potential). On the
// tie-free weights the witness Length bits must match the CSR oracle's
// too; on tenths they need not: when a path other than p* ties p*'s
// float length, the corridor and A* may return different ones first (see
// Violating). The clone's clique repairs must leave the shared base
// cliques untouched.
func FuzzViolatingMatchesCSR(f *testing.F) {
	f.Add([]byte{0, 1, 0, 3, 4, 2, 20, 200, 1, 5, 16})
	f.Add([]byte{7, 9, 1, 7, 7, 5, 60, 90, 3, 11, 16})
	f.Fuzz(func(t *testing.T, data []byte) {
		b := fuzzInput(data)
		rng := rand.New(rand.NewSource(int64(b.next()<<8 | b.next())))
		g, w, tenths := fuzzLattice(&b, rng)
		n := g.NumNodes()
		s, dst := graph.NodeID(b.next()*n/256), graph.NodeID(n-1-b.next()*n/256)
		rank := 1 + b.next()%4
		seed := int64(b.next())
		if s == dst {
			return
		}
		snap := graph.Freeze(g, w)
		r := graph.NewRouter(g)
		r.UseSnapshot(snap)
		paths := r.KShortest(s, dst, rank, w)
		if len(paths) < rank {
			return
		}
		pstar := paths[rank-1]
		tieEps := 1e-9 * math.Max(1, pstar.Length)
		onPStar := pstar.EdgeSet()

		ctx := context.Background()
		ov, err := Build(ctx, snap, seed)
		if err != nil {
			t.Fatal(err)
		}
		base, err := NewBase(ctx, ov, snap)
		if err != nil {
			t.Fatal(err)
		}
		baseClique := append([]float64(nil), base.clique...)

		gc := g.Clone()
		csnap := snap.Rebind(gc, w)
		if csnap == nil {
			t.Fatal("Rebind refused a fresh clone")
		}
		q := NewQuerier(base.Metric(csnap))
		tl := q.BuildTargetLabels(dst)
		rc := graph.NewRouter(gc)
		rc.UseSnapshot(csnap)
		pot := rc.ReversePotential(dst, w)

		for cuts := b.next() % 17; cuts >= 0; cuts-- {
			fsnap := graph.Freeze(gc, w)
			fov, err := Build(ctx, fsnap, seed)
			if err != nil {
				t.Fatal(err)
			}
			fm, err := NewMetric(ctx, fov, fsnap)
			if err != nil {
				t.Fatal(err)
			}
			fq := NewQuerier(fm)
			fresh, freshOK := fq.Violating(s, dst, pstar, tieEps, fq.BuildTargetLabels(dst))
			got, gotOK := q.Violating(s, dst, pstar, tieEps, tl)
			if gotOK != freshOK || gotOK && (!got.SameEdges(fresh) || math.Float64bits(got.Length) != math.Float64bits(fresh.Length)) {
				t.Fatalf("rebound metric: witness %v (%v, %v), fresh metric %v (%v, %v)", gotOK, got.Length, got.Edges, freshOK, fresh.Length, fresh.Edges)
			}

			want, wantOK := rc.BestAlternativeWithPotential(s, dst, w, pstar, pot)
			wantOK = wantOK && want.Length <= pstar.Length+tieEps
			if wantOK != gotOK {
				t.Fatalf("CSR oracle verdict %v, overlay %v", wantOK, gotOK)
			}
			if wantOK && !tenths && math.Float64bits(want.Length) != math.Float64bits(got.Length) {
				t.Fatalf("witness length %v, CSR oracle %v", got.Length, want.Length)
			}
			if !wantOK {
				break
			}
			var off []graph.EdgeID
			for _, e := range want.Edges {
				if _, on := onPStar[e]; !on {
					off = append(off, e)
				}
			}
			if len(off) == 0 {
				break
			}
			e := off[rng.Intn(len(off))]
			gc.DisableEdge(e)
			q.Metric().MarkStale(e)
		}

		// Labels off the base state repair the clone's cliques first: the
		// repair must copy them, never write into the shared base.
		q.BuildTargetLabels(dst)
		for i, x := range base.clique {
			if math.Float64bits(x) != math.Float64bits(baseClique[i]) {
				t.Fatalf("base clique entry %d changed from %v to %v after the clone's repairs", i, baseClique[i], x)
			}
		}
	})
}
