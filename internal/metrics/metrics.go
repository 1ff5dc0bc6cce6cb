// Package metrics computes the road-network statistics the paper reports:
// Table I graph summaries (node count, edge count, average node degree), a
// quantitative "latticeness" score (the street-orientation entropy measure
// the paper's city comparison implies), and the Table X path-rank gap (the
// average percentage increase in length from the shortest path to the k-th
// shortest path).
package metrics

import (
	"fmt"
	"math"

	"altroute/internal/geo"
	"altroute/internal/graph"
	"altroute/internal/roadnet"
)

// GraphSummary is one Table I row.
type GraphSummary struct {
	Name          string
	Nodes         int
	Edges         int
	AvgNodeDegree float64
}

// Summarize computes the Table I row for a network. Average node degree is
// in-degree plus out-degree averaged over nodes, the NetworkX DiGraph
// convention the paper uses. Disabled segments are not counted.
func Summarize(net *roadnet.Network) GraphSummary {
	n := net.NumIntersections()
	e := net.Graph().NumEnabledEdges()
	s := GraphSummary{Name: net.Name(), Nodes: n, Edges: e}
	if n > 0 {
		s.AvgNodeDegree = 2 * float64(e) / float64(n)
	}
	return s
}

// String renders the summary as a Table I style row.
func (s GraphSummary) String() string {
	return fmt.Sprintf("%-15s %7d %8d %9.2f", s.Name, s.Nodes, s.Edges, s.AvgNodeDegree)
}

// OrientationEntropy returns the Shannon entropy (nats) of the distribution
// of street bearings across the given number of bins, weighting each
// segment by its length. Artificial and disabled segments are excluded.
// A perfect rectangular grid concentrates bearings in 4 bins; an organic
// city spreads them nearly uniformly.
func OrientationEntropy(net *roadnet.Network, bins int) float64 {
	if bins <= 0 {
		bins = 36
	}
	g := net.Graph()
	hist := make([]float64, bins)
	total := 0.0
	for e := 0; e < g.NumEdges(); e++ {
		id := graph.EdgeID(e)
		if g.EdgeDisabled(id) || net.Road(id).Artificial {
			continue
		}
		arc := g.Arc(id)
		b := geo.Bearing(net.Point(arc.From), net.Point(arc.To))
		idx := int(b / 360 * float64(bins))
		if idx >= bins {
			idx = bins - 1
		}
		w := net.Road(id).LengthM
		hist[idx] += w
		total += w
	}
	if total == 0 { //lint:allow floateq exact zero sentinel: a sum of nonnegative lengths is zero iff empty
		return 0
	}
	h := 0.0
	for _, v := range hist {
		if v > 0 {
			p := v / total
			h -= p * math.Log(p)
		}
	}
	return h
}

// Latticeness maps orientation entropy to [0, 1] following Boeing's
// street-network orientation order: 1 for a perfect 4-direction grid, 0
// for uniformly distributed bearings. Uses 36 bins.
func Latticeness(net *roadnet.Network) float64 {
	const bins = 36
	h := OrientationEntropy(net, bins)
	hGrid := math.Log(4)
	hMax := math.Log(bins)
	if h <= hGrid {
		return 1
	}
	x := (h - hGrid) / (hMax - hGrid)
	v := 1 - x*x
	if v < 0 {
		return 0
	}
	return v
}

// RankGapResult reports the Table X statistics for one endpoint set.
type RankGapResult struct {
	// AvgIncreasePct[k] is the average percentage increase of the k-th
	// shortest path's length over the shortest path's, across the sampled
	// endpoint pairs that have at least k simple paths.
	AvgIncreasePct map[int]float64
	// Pairs is the number of endpoint pairs sampled.
	Pairs int
	// Skipped counts pairs dropped because they lacked enough paths or
	// were disconnected.
	Skipped int
}

// Endpoint is an (source, destination) query pair.
type Endpoint struct {
	Source graph.NodeID
	Dest   graph.NodeID
}

// PathRankGap computes Table X: for every endpoint pair, enumerate the
// max(ranks) shortest simple paths under w and record the percentage length
// increase of each requested rank over rank 1. Pairs without enough paths
// are skipped.
func PathRankGap(net *roadnet.Network, pairs []Endpoint, ranks []int, w graph.WeightFunc) RankGapResult {
	maxRank := 0
	for _, k := range ranks {
		if k > maxRank {
			maxRank = k
		}
	}
	res := RankGapResult{AvgIncreasePct: make(map[int]float64, len(ranks)), Pairs: len(pairs)}
	if maxRank < 1 || len(pairs) == 0 {
		return res
	}

	counts := make(map[int]int, len(ranks))
	r := net.Router()
	r.UseSnapshot(graph.Freeze(net.Graph(), w)) // one freeze for every pair
	for _, pair := range pairs {
		paths := r.KShortest(pair.Source, pair.Dest, maxRank, w)
		if len(paths) == 0 || paths[0].Length <= 0 {
			res.Skipped++
			continue
		}
		base := paths[0].Length
		usable := false
		for _, k := range ranks {
			if k <= len(paths) {
				res.AvgIncreasePct[k] += (paths[k-1].Length - base) / base * 100
				counts[k]++
				usable = true
			}
		}
		if !usable {
			res.Skipped++
		}
	}
	for k := range res.AvgIncreasePct {
		if counts[k] > 0 {
			res.AvgIncreasePct[k] /= float64(counts[k])
		}
	}
	return res
}
