package main

import (
	"container/heap"
	"fmt"
	"math"

	"altroute/internal/graph"
)

var inf = math.Inf(1)

// certify checks one cut independently of the attack code: on g minus
// cut, p* must be the strictly shortest s→d path. It runs its own plain
// Dijkstra over the graph's public adjacency lists, so it shares nothing
// with core's oracle or the CSR kernels.
//
// Every s→d path other than p* leaves p* for the first time at some node
// p*[i] through an edge e off p*. One reverse Dijkstra from d gives a
// lower bound on the best such path for every (i, e); only a bound within
// the tie tolerance of len(p*) needs the exact search, which bans the
// nodes p*[0..i] so the path stays simple.
func certify(g *graph.Graph, w graph.WeightFunc, pstar graph.Path, cut []graph.EdgeID) error {
	if len(pstar.Edges) == 0 {
		return fmt.Errorf("empty p*")
	}
	removed := make(map[graph.EdgeID]bool, len(cut))
	for _, e := range cut {
		removed[e] = true
	}
	length := 0.0
	for _, e := range pstar.Edges {
		if removed[e] || g.EdgeDisabled(e) {
			return fmt.Errorf("cut removes p* edge %d", e)
		}
		length += w(e)
	}
	s, d := pstar.Source(), pstar.Target()
	eps := 1e-9 * math.Max(1, length)
	live := func(e graph.EdgeID) bool { return !removed[e] && !g.EdgeDisabled(e) }

	toD := dijkstra(g, w, d, true, live, nil)
	if toD[s] < length-eps {
		return fmt.Errorf("a %d→%d path of length %.9g is shorter than p* (%.9g)", s, d, toD[s], length)
	}
	root := make(map[graph.NodeID]bool, len(pstar.Nodes))
	prefix := 0.0
	for i, u := range pstar.Nodes[:len(pstar.Nodes)-1] {
		root[u] = true
		for _, e := range g.OutEdges(u) {
			v := g.To(e)
			if e == pstar.Edges[i] || !live(e) || root[v] {
				continue
			}
			if prefix+w(e)+toD[v] > length+eps {
				continue
			}
			fromV := dijkstra(g, w, v, false, live, root)
			if alt := prefix + w(e) + fromV[d]; alt <= length+eps {
				return fmt.Errorf("alternative leaving p* at node %d via edge %d has length %.9g, p* has %.9g", u, e, alt, length)
			}
		}
		prefix += w(pstar.Edges[i])
	}
	return nil
}

// dijkstra returns shortest distances from src over live edges, skipping
// banned nodes; reverse runs it over in-edges (distances to src).
func dijkstra(g *graph.Graph, w graph.WeightFunc, src graph.NodeID, reverse bool, live func(graph.EdgeID) bool, banned map[graph.NodeID]bool) []float64 {
	dist := make([]float64, g.NumNodes())
	for i := range dist {
		dist[i] = inf
	}
	dist[src] = 0
	h := &distHeap{{src, 0}}
	for h.Len() > 0 {
		it := heap.Pop(h).(distItem)
		if it.d > dist[it.n] {
			continue
		}
		edges := g.OutEdges(it.n)
		if reverse {
			edges = g.InEdges(it.n)
		}
		for _, e := range edges {
			if !live(e) {
				continue
			}
			next := g.To(e)
			if reverse {
				next = g.From(e)
			}
			if banned[next] {
				continue
			}
			if nd := it.d + w(e); nd < dist[next] {
				dist[next] = nd
				heap.Push(h, distItem{next, nd})
			}
		}
	}
	return dist
}

type distItem struct {
	n graph.NodeID
	d float64
}

type distHeap []distItem

func (h distHeap) Len() int           { return len(h) }
func (h distHeap) Less(i, j int) bool { return h[i].d < h[j].d }
func (h distHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *distHeap) Push(x any)        { *h = append(*h, x.(distItem)) }
func (h *distHeap) Pop() any {
	old := *h
	it := old[len(old)-1]
	*h = old[:len(old)-1]
	return it
}
