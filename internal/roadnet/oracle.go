package roadnet

import (
	"context"
	"sync"

	"altroute/internal/graph"
)

// frozen is one weight type's frozen CSR image of a network and the
// potential memo over it.
type frozen struct {
	snap *graph.Snapshot
	memo *potMemo
}

// potMemo holds one reverse potential per destination sampled toward (the
// hospitals), shared by every table run, worker clone and pooled clone on
// one frozen image. It lives as long as the image: SetRoad and topology
// changes drop both together, and a clone cut while the image is current
// shares both (Network.Clone).
type potMemo struct {
	// disabled is the disabled state the image was frozen in. Potentials
	// are memoized only for callers whose flags equal it, so every memo
	// entry holds the bits a fresh reverse Dijkstra would give them.
	disabled []bool
	mu       sync.Mutex
	pots     map[graph.NodeID]*graph.Potential
}

func newFrozen(snap *graph.Snapshot) *frozen {
	return &frozen{snap: snap, memo: &potMemo{
		disabled: append([]bool(nil), snap.Disabled()...),
		pots:     make(map[graph.NodeID]*graph.Potential),
	}}
}

// Potential returns the reverse potential toward dest under weight type
// t: graph.Router.ReversePotential on n's snapshot, under ctx. While n's
// disabled flags equal those its snapshot was frozen in, each
// destination's table is computed once per frozen image and shared with
// every network sharing the image; in any other state it is computed for
// this call only. A sweep cut short by ctx returns nil and memoizes
// nothing. The table is read-only.
func (n *Network) Potential(ctx context.Context, t WeightType, dest graph.NodeID) *graph.Potential {
	f := n.frozenFor(t)
	m := f.memo
	shared := sameFlags(f.snap.Disabled(), m.disabled)
	if shared {
		m.mu.Lock()
		pot := m.pots[dest]
		m.mu.Unlock()
		if pot != nil {
			return pot
		}
	}
	r := graph.NewRouter(n.g)
	r.SetContext(ctx)
	r.UseSnapshot(f.snap)
	pot := r.ReversePotential(dest, n.Weight(t))
	if ctx.Err() != nil {
		return nil // unsettled nodes were left at +Inf: not an A* bound
	}
	if shared {
		m.mu.Lock()
		if cached := m.pots[dest]; cached != nil {
			pot = cached
		} else {
			m.pots[dest] = pot
		}
		m.mu.Unlock()
	}
	return pot
}

// sameFlags reports whether two flag slices are equal. A cold attack
// request makes this check over every edge of the city twice (for its
// path set and for its attack); comparing fixed-size array chunks
// compiles to a memory compare, which on full-size Chicago (78k edges)
// takes about 2 µs where an element loop took about 100 µs.
func sameFlags(a, b []bool) bool {
	if len(a) != len(b) {
		return false
	}
	const chunk = 1024
	i := 0
	for ; i+chunk <= len(a); i += chunk {
		if *(*[chunk]bool)(a[i : i+chunk]) != *(*[chunk]bool)(b[i : i+chunk]) {
			return false
		}
	}
	for ; i < len(a); i++ {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// MemoStats counts what n's memo holds: its frozen images (at most one
// per weight type), the reverse potentials memoized over them, and the
// summed wall time the images took to freeze, in nanoseconds.
func (n *Network) MemoStats() (snapshots, potentials int, freezeNS int64) {
	n.snapMu.Lock()
	defer n.snapMu.Unlock()
	for _, f := range n.snaps {
		f.memo.mu.Lock()
		potentials += len(f.memo.pots)
		f.memo.mu.Unlock()
		freezeNS += f.snap.FreezeNanos()
	}
	return len(n.snaps), potentials, freezeNS
}
