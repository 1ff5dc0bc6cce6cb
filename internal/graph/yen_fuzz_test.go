package graph

import (
	"fmt"
	"testing"
)

// fuzzBytes hands out the fuzz input one byte at a time, zeros once it
// runs out, so every input decodes to some graph.
type fuzzBytes []byte

func (b *fuzzBytes) next() int {
	if len(*b) == 0 {
		return 0
	}
	x := (*b)[0]
	*b = (*b)[1:]
	return int(x)
}

// fuzzGraph decodes a small directed graph. The first byte picks the
// shape: a random graph whose weights come from two input bytes each plus
// a per-edge offset (ties are rare), or a two-way lattice whose weights
// are tenths (ties everywhere, and float sums that depend on where a path
// is split into root and spur).
func fuzzGraph(b *fuzzBytes) (*Graph, WeightFunc) {
	var weights []float64
	var g *Graph
	if b.next()%2 == 0 {
		n := 3 + b.next()%12
		g = New(n)
		add := func(u, v NodeID) {
			g.MustAddEdge(u, v)
			hi, lo := b.next(), b.next()
			weights = append(weights, 0.5+float64(hi<<8|lo)/6553.5+float64(len(weights))*1e-7)
		}
		if b.next()%4 > 0 {
			for i := 1; i < n; i++ {
				add(NodeID(i-1), NodeID(i))
			}
		}
		for m := b.next() % (3 * n); m > 0; m-- {
			add(NodeID(b.next()%n), NodeID(b.next()%n))
		}
	} else {
		rows, cols := 2+b.next()%4, 2+b.next()%5
		g = New(rows * cols)
		add := func(u, v NodeID) {
			g.MustAddEdge(u, v)
			weights = append(weights, float64(1+b.next()%3)/10)
		}
		id := func(r, c int) NodeID { return NodeID(r*cols + c) }
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
	}
	return g, func(e EdgeID) float64 { return weights[e] }
}

// FuzzKShortestMatchesReference decodes a small graph, a query, and a set
// of edges to disable, and checks the lazy engine bit for bit against
// refKShortest (eager Yen with Lawler's skip on the reference kernels):
// KShortest on the cut graph; KShortestWithPotential with a potential
// computed before the cut (stale, as the serving cache holds it); and a
// second KShortest on the same router after one more edge is disabled.
// The exclusivity oracle has its own target, FuzzViolatingMatchesReference.
func FuzzKShortestMatchesReference(f *testing.F) {
	f.Add([]byte{0, 9, 1, 7})
	f.Add([]byte{1, 3, 4, 2, 1, 0, 2, 1, 2, 0, 1, 1, 2, 2, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		b := fuzzBytes(data)
		g, w := fuzzGraph(&b)
		n := g.NumNodes()
		s, tgt, k := NodeID(b.next()%n), NodeID(b.next()%n), 1+b.next()%30

		r := NewRouter(g)
		stale := r.ReversePotential(tgt, w)
		refStale := newRefRouter(g, w).reversePotential(tgt)
		var cut []EdgeID
		for e := 0; e < g.NumEdges(); e++ {
			if b.next()%8 == 1 {
				cut = append(cut, EdgeID(e))
			}
		}
		tx := g.Begin()
		for _, e := range cut {
			tx.Disable(e)
		}
		defer tx.Rollback()

		want := refKShortest(g, w, s, tgt, k, nil)
		if err := samePathList(r.KShortest(s, tgt, k, w), want); err != nil {
			t.Fatalf("KShortest(%d, %d, %d): %v", s, tgt, k, err)
		}
		wantStale := refKShortest(g, w, s, tgt, k, refStale)
		if err := samePathList(r.KShortestWithPotential(s, tgt, k, w, stale), wantStale); err != nil {
			t.Fatalf("KShortestWithPotential(%d, %d, %d), stale potential: %v", s, tgt, k, err)
		}
		if len(want) > 0 && len(want[0].Edges) > 0 {
			tx.Disable(want[0].Edges[b.next()%len(want[0].Edges)])
			if err := samePathList(r.KShortest(s, tgt, k, w), refKShortest(g, w, s, tgt, k, nil)); err != nil {
				t.Fatal(fmt.Errorf("KShortest after a further cut: %w", err))
			}
		}
	})
}
