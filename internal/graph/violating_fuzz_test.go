package graph

import (
	"math"
	"math/rand"
	"testing"
)

// fuzzLattice decodes a two-way lattice of 72 to 240 nodes plus up to
// seven one-way shortcuts. Shape bytes come from the input; weights and
// shortcut ends from rng. The first byte picks the weights: tenths (ties
// everywhere, and float sums that depend on where a path is split into
// root and spur) or values in [0.5, 1.5) plus a per-edge offset (ties
// are rare). It reports which.
func fuzzLattice(b *fuzzBytes, rng *rand.Rand) (g *Graph, w WeightFunc, tenths bool) {
	tenths = b.next()%2 == 0
	rows, cols := 8+b.next()%8, 9+b.next()%8
	g = New(rows * cols)
	var weights []float64
	add := func(u, v int) {
		g.MustAddEdge(NodeID(u), NodeID(v))
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
	return g, func(e EdgeID) float64 { return weights[e] }, tenths
}

// FuzzViolatingMatchesReference decodes a lattice, a query with a p* of
// rank one to four, and one to three cut sequences of up to sixteen cuts
// each. Every cut is an edge off p* drawn from the reference's current
// witness, as the greedy attacks cut, and each sequence is rolled back
// before the next. One Router answers every round of every sequence with
// a potential taken before the cuts, as a table worker's Router does
// across its attacks. After every cut its Violating verdict must equal
// the reference A* oracle's (refBestAlternativeWithPotential, then the
// tie check). On the tie-free weights the witness must match bit for bit;
// on tenths it need not: when a path other than p* ties p*'s float
// length, the bounded Dijkstra and A* may return different ones first.
func FuzzViolatingMatchesReference(f *testing.F) {
	f.Add([]byte{0, 1, 0, 3, 4, 2, 20, 200, 1, 0, 16})
	f.Add([]byte{7, 9, 1, 7, 7, 5, 60, 90, 3, 2, 16})
	f.Fuzz(func(t *testing.T, data []byte) {
		b := fuzzBytes(data)
		rng := rand.New(rand.NewSource(int64(b.next()<<8 | b.next())))
		g, w, tenths := fuzzLattice(&b, rng)
		n := g.NumNodes()
		s, dst := NodeID(b.next()*n/256), NodeID(n-1-b.next()*n/256)
		rank := 1 + b.next()%4
		sequences := 1 + b.next()%3
		if s == dst {
			return
		}
		r := NewRouter(g)
		r.UseSnapshot(Freeze(g, w))
		paths := r.KShortest(s, dst, rank, w)
		if len(paths) < rank {
			return
		}
		pstar := paths[rank-1]
		bound := pstar.Length + 1e-9*math.Max(1, pstar.Length)
		onPStar := pstar.EdgeSet()
		pot := r.ReversePotential(dst, w)
		refPot := newRefRouter(g, w).reversePotential(dst)

		maxCuts := b.next() % 17
		for seq := 0; seq < sequences; seq++ {
			tx := g.Begin()
			for cuts := maxCuts; cuts >= 0; cuts-- {
				want, wantOK := refViolating(g, w, s, dst, pstar, bound, refPot)
				got, gotOK := r.Violating(s, dst, w, pstar, bound, pot)
				if gotOK != wantOK {
					t.Fatalf("sequence %d: verdict %v (%v), reference %v (%v)", seq, gotOK, got.Edges, wantOK, want.Edges)
				}
				if !tenths && !samePath(got, want, gotOK, wantOK) {
					t.Fatalf("sequence %d: witness %v %v, reference %v %v", seq, got.Length, got.Edges, want.Length, want.Edges)
				}
				if !wantOK {
					break
				}
				var off []EdgeID
				for _, e := range want.Edges {
					if _, on := onPStar[e]; !on {
						off = append(off, e)
					}
				}
				if len(off) == 0 {
					break
				}
				tx.Disable(off[rng.Intn(len(off))])
			}
			tx.Rollback()
		}
	})
}
