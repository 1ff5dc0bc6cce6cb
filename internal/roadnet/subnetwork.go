package roadnet

import (
	"altroute/internal/geo"
	"altroute/internal/graph"
)

// Subnetwork returns a new network containing only the given nodes and the
// enabled road segments whose both endpoints are kept. Node IDs are
// remapped compactly; the returned mapping translates old node IDs to new
// ones (absent keys were dropped). POIs are not carried over — attach them
// to the subnetwork as needed.
//
// Generators use this to restrict synthetic cities to their largest
// strongly connected component, the same preprocessing the paper's OSMnx
// pipeline applies so every source can reach every destination.
func (n *Network) Subnetwork(keep []graph.NodeID) (*Network, map[graph.NodeID]graph.NodeID) {
	sub := NewNetwork(n.name)
	remap := make(map[graph.NodeID]graph.NodeID, len(keep))
	for _, old := range keep {
		if _, dup := remap[old]; dup {
			continue
		}
		remap[old] = sub.AddIntersection(n.coords[old])
	}
	for e := 0; e < n.g.NumEdges(); e++ {
		id := graph.EdgeID(e)
		if n.g.EdgeDisabled(id) {
			continue
		}
		arc := n.g.Arc(id)
		from, okF := remap[arc.From]
		to, okT := remap[arc.To]
		if !okF || !okT {
			continue
		}
		// AddRoad cannot fail here: both endpoints exist.
		if _, err := sub.AddRoad(from, to, n.roads[e]); err != nil {
			panic("roadnet: Subnetwork: " + err.Error())
		}
	}
	return sub, remap
}

// LargestComponent returns the subnetwork induced by the largest strongly
// connected component.
func (n *Network) LargestComponent() (*Network, map[graph.NodeID]graph.NodeID) {
	return n.Subnetwork(graph.LargestSCC(n.g))
}

// Clone returns a deep copy of the network (graph, roads, coordinates,
// POIs). Parallel experiment workers each run on their own clone so
// transactional edge disabling never races. The road attributes are copied
// under the same critical section SetRoad publishes in, so a clone taken
// concurrently with a SetRoad observes either the old or the new
// attributes, never a torn mix; the clone's weight generation matches what
// it copied.
//
// The clone does not freeze again: for every weight type whose snapshot
// n holds, the clone gets a snapshot sharing its CSR arrays, bound to the
// clone's own disabled flags (graph.Snapshot.Rebind), and shares its
// potential memo, so the reverse potentials computed by any of them serve
// all of them.
func (n *Network) Clone() *Network {
	n.snapMu.Lock()
	defer n.snapMu.Unlock()
	c := &Network{
		g:      n.g.Clone(),
		roads:  append([]Road(nil), n.roads...),
		coords: append([]geo.Point(nil), n.coords...),
		pois:   append([]POI(nil), n.pois...),
		name:   n.name,
		wgen:   n.wgen,
	}
	for t, f := range n.snaps {
		if !f.snap.Valid() {
			continue
		}
		if c.snaps == nil {
			c.snaps = make(map[WeightType]*frozen, len(n.snaps))
		}
		c.snaps[t] = &frozen{snap: f.snap.Rebind(c.g, c.Weight(t)), memo: f.memo}
	}
	return c
}
