package graph

// Violating is the attack loops' exclusivity oracle: it returns a live
// s->t path other than pstar whose length is at most bound, or false when
// there is none. The attacks ask it with bound = len(p*) + a tie epsilon,
// so false means p* is the exclusive shortest path.
//
// It runs the bounded round of PATHATTACK's constraint generation on the
// router's own bans. One bounded search from s returns the shortest path;
// if that is not pstar it is the witness. Otherwise one Yen deviation round
// over pstar runs a bounded search from each spur node, with pstar's root
// nodes and next edge banned, skipping a spur whose root length plus
// pot(spur) already exceeds the bound. The witness is the least candidate
// in the Yen engine's path order (pathLess). Every search prunes offers
// that cannot fit the bound (see shortest), so a round touches only the
// corridor of paths near p*'s length.
//
// pot must come from ReversePotential(t, w) on this graph in a state whose
// enabled-edge set contained every currently enabled edge: edges may have
// been disabled since, never enabled. The attack loops rely on this: they
// take one potential on the intact graph (the network's memoized table)
// and reuse it while cuts only disable edges. A nil, mismatched-target or
// wrong-size pot is recomputed.
func (r *Router) Violating(s, t NodeID, w WeightFunc, pstar Path, bound float64, pot *Potential) (Path, bool) {
	if r.interrupted() {
		return Path{}, false // cancelled (see SetContext)
	}
	r.grow()
	r.clearBans()
	c := r.csr(w)
	if pot == nil || pot.Target() != t || len(pot.h) != c.n {
		pot = r.reversePotential(c, t)
	}
	first, ok := r.shortest(c, s, t, 0, bound, pot)
	if !ok {
		return Path{}, false
	}
	if !first.SameEdges(pstar) {
		if first.Length <= bound {
			return first, true
		}
		return Path{}, false
	}

	// rootLen sums the materialized weights left to right, as the Yen
	// engine does, so candidate Lengths carry the same bits.
	lim := bound + 1e-9*bound
	var best Path
	haveBest := false
	rootLen := 0.0
	for i, e := range pstar.Edges {
		if r.interrupted() {
			break // cancelled mid-round: candidates so far are still valid
		}
		spurNode := pstar.Nodes[i]
		if rootLen+pot.h[spurNode] <= lim {
			r.clearBans()
			r.banEdge(e)
			for _, v := range pstar.Nodes[:i] {
				r.banNode(v)
			}
			if spur, ok := r.shortest(c, spurNode, t, rootLen, bound, pot); ok {
				total := concatSpur(pstar, i, rootLen, spur)
				if !haveBest || pathLess(total, best) {
					best, haveBest = total, true
				}
			}
		}
		rootLen += c.w[e]
	}
	r.clearBans()
	if haveBest && best.Length <= bound {
		return best, true
	}
	return Path{}, false
}
