// Package graph implements the directed weighted multigraph and the graph
// algorithms the attack framework is built on: Dijkstra shortest paths with
// temporary node/edge bans, Yen's k-shortest loopless paths, Brandes edge
// betweenness centrality, eigenvector centrality by power iteration, and
// Tarjan strongly connected components.
//
// The representation is edge-indexed: every directed edge has a stable
// EdgeID, and per-edge attributes (weights, removal costs, road metadata)
// live in parallel slices owned by higher layers. Edges can be disabled and
// re-enabled in O(1), which is how attack algorithms simulate blocking road
// segments without rebuilding the graph.
package graph

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"
)

// NodeID identifies a node (road intersection).
type NodeID int32

// EdgeID identifies a directed edge (road segment direction).
type EdgeID int32

// Invalid sentinel IDs returned by lookups that find nothing.
const (
	InvalidNode NodeID = -1
	InvalidEdge EdgeID = -1
)

// Arc is the endpoint pair of a directed edge.
type Arc struct {
	From NodeID
	To   NodeID
}

// WeightFunc returns the traversal weight of an edge. Weights must be
// non-negative; Dijkstra's correctness depends on it.
type WeightFunc func(EdgeID) float64

// ErrBadGraph is the umbrella sentinel for structurally unusable graph
// data: NaN, infinite, or negative edge weights. Loaders reject such data
// at load time and servers re-check it at startup, because a single NaN
// weight poisons every shortest-path result silently instead of failing.
var ErrBadGraph = errors.New("graph: invalid graph data")

// ErrNegativeWeight is returned by validation helpers when a WeightFunc
// produces a negative value. It wraps ErrBadGraph.
var ErrNegativeWeight = fmt.Errorf("%w: negative edge weight", ErrBadGraph)

// Graph is a directed multigraph. The zero value is an empty graph ready to
// use. Graph is not safe for concurrent mutation; concurrent read-only use
// (including the Router) is safe as long as no edges are added, disabled, or
// enabled.
type Graph struct {
	arcs     []Arc
	out      [][]EdgeID
	in       [][]EdgeID
	disabled []bool
	locked   []bool
	nDown    int
	// nLocked counts permanently removed edges. A locked edge is always
	// disabled, so nDown == nLocked exactly when the graph is in its base
	// state: no edge is down except the permanently removed ones.
	nLocked int

	// gen counts topology mutations (nodes or edges added). Frozen CSR
	// snapshots record the generation they were built at and refuse to
	// serve a graph whose generation moved on (see Freeze). Disabling and
	// enabling edges deliberately does NOT bump the generation: snapshots
	// observe the disabled flags live, which is what lets attack rounds
	// toggle edges thousands of times without a rebuild.
	gen uint64

	// eig points at the base-state eigenscore memo this graph shares with
	// its clones (see SharedEdgeEigenScores). Topology and lock changes
	// store nil here, which detaches only this graph and allocates
	// nothing; the memo itself is never cleared, so a master and its
	// clones never invalidate each other's. The next use installs a new one.
	eig atomic.Pointer[eigenMemo]
}

// New returns a graph with n nodes and no edges.
func New(n int) *Graph {
	g := &Graph{}
	g.Grow(n)
	return g
}

// Grow ensures the graph has at least n nodes.
func (g *Graph) Grow(n int) {
	if len(g.out) >= n {
		return
	}
	for len(g.out) < n {
		g.out = append(g.out, nil)
		g.in = append(g.in, nil)
	}
	g.gen++
	g.eig.Store(nil)
}

// AddNode adds a node and returns its ID.
func (g *Graph) AddNode() NodeID {
	g.out = append(g.out, nil)
	g.in = append(g.in, nil)
	g.gen++
	g.eig.Store(nil)
	return NodeID(len(g.out) - 1)
}

// Generation returns the topology-mutation counter. It advances whenever
// nodes or edges are added (never on disable/enable), so a cached frozen
// snapshot is exactly as fresh as a matching generation says it is.
func (g *Graph) Generation() uint64 { return g.gen }

// AddEdge adds a directed edge from -> to and returns its ID. Parallel edges
// and self-loops are permitted (OSM data contains both).
func (g *Graph) AddEdge(from, to NodeID) (EdgeID, error) {
	if !g.validNode(from) || !g.validNode(to) {
		return InvalidEdge, fmt.Errorf("graph: AddEdge(%d, %d): node out of range [0, %d)", from, to, len(g.out))
	}
	id := EdgeID(len(g.arcs))
	g.arcs = append(g.arcs, Arc{From: from, To: to})
	g.disabled = append(g.disabled, false)
	g.locked = append(g.locked, false)
	g.out[from] = append(g.out[from], id)
	g.in[to] = append(g.in[to], id)
	g.gen++
	g.eig.Store(nil)
	return id, nil
}

// MustAddEdge is AddEdge for construction code where the endpoints are known
// valid (e.g. generators); it panics on invalid input.
func (g *Graph) MustAddEdge(from, to NodeID) EdgeID {
	id, err := g.AddEdge(from, to)
	if err != nil {
		panic(err)
	}
	return id
}

func (g *Graph) validNode(n NodeID) bool { return n >= 0 && int(n) < len(g.out) }

func (g *Graph) validEdge(e EdgeID) bool { return e >= 0 && int(e) < len(g.arcs) }

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return len(g.out) }

// NumEdges returns the total number of edges, enabled or not.
func (g *Graph) NumEdges() int { return len(g.arcs) }

// NumEnabledEdges returns the number of currently enabled edges.
func (g *Graph) NumEnabledEdges() int { return len(g.arcs) - g.nDown }

// Arc returns the endpoints of edge e.
func (g *Graph) Arc(e EdgeID) Arc { return g.arcs[e] }

// From returns the tail of edge e.
func (g *Graph) From(e EdgeID) NodeID { return g.arcs[e].From }

// To returns the head of edge e.
func (g *Graph) To(e EdgeID) NodeID { return g.arcs[e].To }

// OutEdges returns the IDs of edges leaving n, including disabled ones.
// The returned slice is owned by the graph; callers must not modify it.
func (g *Graph) OutEdges(n NodeID) []EdgeID { return g.out[n] }

// InEdges returns the IDs of edges entering n, including disabled ones.
// The returned slice is owned by the graph; callers must not modify it.
func (g *Graph) InEdges(n NodeID) []EdgeID { return g.in[n] }

// OutDegree returns the number of enabled edges leaving n.
func (g *Graph) OutDegree(n NodeID) int {
	d := 0
	for _, e := range g.out[n] {
		if !g.disabled[e] {
			d++
		}
	}
	return d
}

// InDegree returns the number of enabled edges entering n.
func (g *Graph) InDegree(n NodeID) int {
	d := 0
	for _, e := range g.in[n] {
		if !g.disabled[e] {
			d++
		}
	}
	return d
}

// DisableEdge marks edge e as removed. Disabling an already-disabled edge is
// a no-op.
func (g *Graph) DisableEdge(e EdgeID) {
	if g.validEdge(e) && !g.disabled[e] {
		g.disabled[e] = true
		g.nDown++
	}
}

// EnableEdge restores a disabled edge. Enabling an enabled or permanently
// removed edge is a no-op.
func (g *Graph) EnableEdge(e EdgeID) {
	if g.validEdge(e) && g.disabled[e] && !g.locked[e] {
		g.disabled[e] = false
		g.nDown--
	}
}

// RemoveEdgePermanently disables e and locks it so that neither EnableEdge
// nor ResetDisabled can bring it back. The road layer uses this when it
// splits an edge to attach a point of interest: the original unsplit edge
// must never resurface mid-experiment.
func (g *Graph) RemoveEdgePermanently(e EdgeID) {
	if !g.validEdge(e) || g.locked[e] {
		return
	}
	g.DisableEdge(e)
	g.locked[e] = true
	g.nLocked++
	g.eig.Store(nil)
}

// EdgeRemoved reports whether e was permanently removed.
func (g *Graph) EdgeRemoved(e EdgeID) bool { return g.validEdge(e) && g.locked[e] }

// EdgeDisabled reports whether edge e is currently disabled.
func (g *Graph) EdgeDisabled(e EdgeID) bool { return g.disabled[e] }

// DisabledEdges returns the IDs of all currently disabled edges.
func (g *Graph) DisabledEdges() []EdgeID {
	if g.nDown == 0 {
		return nil
	}
	ids := make([]EdgeID, 0, g.nDown)
	for e, down := range g.disabled {
		if down {
			ids = append(ids, EdgeID(e))
		}
	}
	return ids
}

// ResetDisabled re-enables every edge except permanently removed ones.
func (g *Graph) ResetDisabled() {
	if g.nDown == 0 {
		return
	}
	g.nDown = 0
	for e := range g.disabled {
		if g.locked[e] {
			g.disabled[e] = true
			g.nDown++
		} else {
			g.disabled[e] = false
		}
	}
}

// Transaction captures the set of edges disabled through it so the caller
// can roll all of them back at once. It is how attack algorithms try a cut
// set and restore the graph afterwards.
type Transaction struct {
	g        *Graph
	disabled []EdgeID
}

// Begin starts a transaction on g.
func (g *Graph) Begin() *Transaction { return &Transaction{g: g} }

// Disable disables e and records it for rollback. Edges already disabled
// before the transaction are not recorded (and thus not re-enabled by
// Rollback).
func (t *Transaction) Disable(e EdgeID) {
	if !t.g.EdgeDisabled(e) {
		t.g.DisableEdge(e)
		t.disabled = append(t.disabled, e)
	}
}

// Disabled returns the edges disabled through this transaction, in order.
func (t *Transaction) Disabled() []EdgeID {
	out := make([]EdgeID, len(t.disabled))
	copy(out, t.disabled)
	return out
}

// Rollback re-enables every edge disabled through the transaction.
func (t *Transaction) Rollback() {
	for _, e := range t.disabled {
		t.g.EnableEdge(e)
	}
	t.disabled = t.disabled[:0]
}

// Clone returns a deep copy of the graph, including disabled state. The
// clone shares g's base-state eigenscore memo until either graph's
// topology or lock state changes.
func (g *Graph) Clone() *Graph {
	c := &Graph{
		arcs:     append([]Arc(nil), g.arcs...),
		out:      make([][]EdgeID, len(g.out)),
		in:       make([][]EdgeID, len(g.in)),
		disabled: append([]bool(nil), g.disabled...),
		locked:   append([]bool(nil), g.locked...),
		nDown:    g.nDown,
		nLocked:  g.nLocked,
		gen:      g.gen,
	}
	for i := range g.out {
		c.out[i] = append([]EdgeID(nil), g.out[i]...)
		c.in[i] = append([]EdgeID(nil), g.in[i]...)
	}
	c.eig.Store(g.eigenMemo())
	return c
}

// ValidateWeights checks w on every edge and returns an ErrBadGraph-class
// error (wrapped with the offending edge) when any weight is NaN, infinite,
// or negative — the three ways a weight function can silently break
// Dijkstra, A*, and every metric built on them.
func (g *Graph) ValidateWeights(w WeightFunc) error {
	for e := range g.arcs {
		v := w(EdgeID(e))
		switch {
		case math.IsNaN(v):
			return fmt.Errorf("edge %d: %w: weight is NaN", e, ErrBadGraph)
		case math.IsInf(v, 0):
			return fmt.Errorf("edge %d: %w: weight is %v", e, ErrBadGraph, v)
		case v < 0:
			return fmt.Errorf("edge %d: %w", e, ErrNegativeWeight)
		}
	}
	return nil
}

// FindEdge returns the first enabled edge from -> to, or InvalidEdge.
func (g *Graph) FindEdge(from, to NodeID) EdgeID {
	if !g.validNode(from) || !g.validNode(to) {
		return InvalidEdge
	}
	for _, e := range g.out[from] {
		if g.arcs[e].To == to && !g.disabled[e] {
			return e
		}
	}
	return InvalidEdge
}
