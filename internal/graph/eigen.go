package graph

import (
	"math"
	"sync"
)

// EigenDirection selects which adjacency direction eigenvector centrality
// propagates along.
type EigenDirection int

const (
	// EigenIn scores a node by the scores of nodes with edges INTO it
	// (x = Aᵀx): prestige / authority flavor.
	EigenIn EigenDirection = iota + 1
	// EigenOut scores a node by the scores of nodes it points AT
	// (x = Ax): hub flavor.
	EigenOut
)

// EigenOptions configures EigenvectorCentrality.
type EigenOptions struct {
	// MaxIterations bounds the power iteration. Default 200.
	MaxIterations int
	// Tolerance is the L1 convergence threshold. Default 1e-9.
	Tolerance float64
	// Shift is a uniform additive teleport applied each iteration, which
	// keeps the iteration well-defined on reducible/periodic directed
	// graphs (road networks have sources, sinks, and long cycles).
	// Default 1e-3.
	Shift float64
}

func (o *EigenOptions) fill() {
	if o.MaxIterations <= 0 {
		o.MaxIterations = 200
	}
	if o.Tolerance <= 0 {
		o.Tolerance = 1e-9
	}
	if o.Shift <= 0 {
		o.Shift = 1e-3
	}
}

// EigenvectorCentrality computes eigenvector centrality scores over enabled
// edges by shifted power iteration, L2-normalized. The returned slice has
// one non-negative entry per node.
//
// GreedyEig (paper §III-A, adapted from PATHATTACK) scores a directed edge
// u→v as out[u]·in[v], the directed analogue of the undirected uᵢ·uⱼ
// eigenscore, and cuts the edge with the highest score-to-cost ratio.
func EigenvectorCentrality(g *Graph, dir EigenDirection, opts EigenOptions) []float64 {
	opts.fill()
	n := g.NumNodes()
	x := make([]float64, n)
	if n == 0 {
		return x
	}
	next := make([]float64, n)
	inv := 1 / math.Sqrt(float64(n))
	for i := range x {
		x[i] = inv
	}

	for iter := 0; iter < opts.MaxIterations; iter++ {
		for i := range next {
			next[i] = opts.Shift * inv
		}
		for e, arc := range g.arcs {
			if g.disabled[e] {
				continue
			}
			if dir == EigenIn {
				next[arc.To] += x[arc.From]
			} else {
				next[arc.From] += x[arc.To]
			}
		}
		norm := 0.0
		for _, v := range next {
			norm += v * v
		}
		norm = math.Sqrt(norm)
		if norm == 0 { //lint:allow floateq exact zero test: a sum of squares is zero iff every component is
			return x
		}
		diff := 0.0
		for i := range next {
			next[i] /= norm
			diff += math.Abs(next[i] - x[i])
		}
		x, next = next, x
		if diff < opts.Tolerance {
			break
		}
	}
	return x
}

// EdgeEigenScores returns the per-edge eigenscore out[from]·in[to] used by
// GreedyEig. Disabled edges score 0.
func EdgeEigenScores(g *Graph, opts EigenOptions) []float64 {
	in := EigenvectorCentrality(g, EigenIn, opts)
	out := EigenvectorCentrality(g, EigenOut, opts)
	scores := make([]float64, g.NumEdges())
	for e, arc := range g.arcs {
		if g.disabled[e] {
			continue
		}
		scores[e] = out[arc.From] * in[arc.To]
	}
	return scores
}

// SharedEdgeEigenScores returns the scores EdgeEigenScores(g,
// EigenOptions{}) would. In g's base state, where every disabled edge is
// a permanently removed one, they are computed once and the same
// read-only slice goes to g and every clone at the same topology and lock
// state; callers must not modify it. Scores depend on topology only, not
// weights, so the memo outlives weight changes. In any other state the
// scores are computed fresh, exactly as EdgeEigenScores does, and the memo
// is neither read nor written.
func SharedEdgeEigenScores(g *Graph) []float64 {
	if g.nDown != g.nLocked {
		return EdgeEigenScores(g, EigenOptions{})
	}
	m := g.eigenMemo()
	m.once.Do(func() { m.scores = EdgeEigenScores(g, EigenOptions{}) })
	return m.scores
}

// eigenMemo holds one base-state EdgeEigenScores result, filled on first
// use. Every graph pointing at it has the same arcs, node count and locked
// set, so whichever of them fills it computes the same bits.
type eigenMemo struct {
	once   sync.Once
	scores []float64
}

// eigenMemo returns g's memo, installing an empty one on first use.
// Concurrent callers (clones cut from one master) agree on one memo.
func (g *Graph) eigenMemo() *eigenMemo {
	if m := g.eig.Load(); m != nil {
		return m
	}
	m := &eigenMemo{}
	if g.eig.CompareAndSwap(nil, m) {
		return m
	}
	return g.eig.Load()
}
