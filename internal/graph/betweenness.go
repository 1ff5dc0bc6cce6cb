package graph

// BetweennessOptions configures BetweennessParallel.
type BetweennessOptions struct {
	// Sources restricts the accumulation to shortest-path trees rooted at
	// these nodes. Nil means every node, which is exact Brandes; a sample
	// gives the standard unbiased approximation and is what the experiment
	// harness uses on full-size city graphs.
	Sources []NodeID
	// Normalize divides the scores by n*(n-1), the number of ordered node
	// pairs, yielding the fraction-of-shortest-paths definition from the
	// paper's attacker-objective discussion.
	Normalize bool
}

// TopEdgesByScore returns the indices of the k highest-scoring enabled
// edges, in descending score order (ties broken by lower edge ID).
func TopEdgesByScore(g *Graph, score []float64, k int) []EdgeID {
	if k <= 0 {
		return nil
	}
	type es struct {
		e EdgeID
		s float64
	}
	all := make([]es, 0, len(score))
	for e, s := range score {
		if !g.disabled[e] {
			all = append(all, es{e: EdgeID(e), s: s})
		}
	}
	// Partial selection sort is fine for small k; use full sort otherwise.
	if k > len(all) {
		k = len(all)
	}
	for i := 0; i < k; i++ {
		best := i
		for j := i + 1; j < len(all); j++ {
			if all[j].s > all[best].s || (all[j].s == all[best].s && all[j].e < all[best].e) { //lint:allow floateq deterministic tie-break: exact ties fall back to edge ID
				best = j
			}
		}
		all[i], all[best] = all[best], all[i]
	}
	out := make([]EdgeID, k)
	for i := 0; i < k; i++ {
		out[i] = all[i].e
	}
	return out
}
