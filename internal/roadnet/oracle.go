package roadnet

import (
	"context"
	"slices"
	"sync"

	"altroute/internal/graph"
	"altroute/internal/overlay"
)

// partitionSeed seeds the overlay's recursive bisection. The partition
// only decides how much of the city a corridor search may skip: the
// search settles the same bits whatever it prunes, so oracle results are
// the same under every partition. The seed is therefore fixed instead of
// taken from a run's inputs, and every run on one frozen image can share
// one partition.
const partitionSeed = 1

// frozen is one weight type's frozen CSR image of a network and the
// oracle memo over it.
type frozen struct {
	snap *graph.Snapshot
	memo *oracleMemo
}

// oracleMemo is the oracle state every table run and worker clone on one
// frozen image shares: the partition overlay with its base-state cliques
// and target labels (overlay.Base), and a reverse potential per
// destination sampled toward (the hospitals). It lives as long as the
// image: SetRoad and topology changes drop both together, and a clone
// cut while the image is current shares both (Network.Clone).
type oracleMemo struct {
	// mu is held across the overlay build, so concurrent first callers
	// wait for one build instead of each running their own.
	mu   sync.Mutex
	base *overlay.Base

	// disabled is the disabled state the image was frozen in. Potentials
	// are memoized only for callers whose flags equal it, so every memo
	// entry holds the bits a fresh reverse Dijkstra would give them.
	disabled []bool
	potMu    sync.Mutex
	pots     map[graph.NodeID]*graph.Potential
}

func newFrozen(snap *graph.Snapshot) *frozen {
	return &frozen{snap: snap, memo: &oracleMemo{
		disabled: append([]bool(nil), snap.View().Disabled...),
		pots:     make(map[graph.NodeID]*graph.Potential),
	}}
}

// overlayBase returns the memo's overlay base, building it over snap
// under ctx on first use. A build cut short by ctx returns its error and
// leaves nothing behind, so the next caller builds afresh.
func (m *oracleMemo) overlayBase(ctx context.Context, snap *graph.Snapshot) (*overlay.Base, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.base != nil {
		return m.base, nil
	}
	ov, err := overlay.Build(ctx, snap, partitionSeed)
	if err != nil {
		return nil, err
	}
	b, err := overlay.NewBase(ctx, ov, snap)
	if err != nil {
		return nil, err
	}
	m.base = b
	return b, nil
}

// Querier returns a new overlay Querier for attacks on n under weight
// type t: a metric bound to n's snapshot over the partition and base
// cliques memoized with that snapshot. The first call on a frozen image,
// on n or on any network sharing it through Clone, builds the memo under
// ctx; later calls only bind a metric, which copies nothing until its
// first clique repair. Returns nil when ctx dies during that build
// (nothing is memoized then); attacks given no Querier run the CSR
// oracle.
func (n *Network) Querier(ctx context.Context, t WeightType) *overlay.Querier {
	f := n.frozenFor(t)
	b, err := f.memo.overlayBase(ctx, f.snap)
	if err != nil {
		return nil
	}
	return overlay.NewQuerier(b.Metric(f.snap))
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
	shared := slices.Equal(f.snap.View().Disabled, m.disabled)
	if shared {
		m.potMu.Lock()
		pot := m.pots[dest]
		m.potMu.Unlock()
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
		m.potMu.Lock()
		if cached := m.pots[dest]; cached != nil {
			pot = cached
		} else {
			m.pots[dest] = pot
		}
		m.potMu.Unlock()
	}
	return pot
}

// MemoStats counts what n's memo holds: its frozen images (at most one
// per weight type), the reverse potentials memoized over them, and the
// summed wall time the images took to freeze, in nanoseconds.
func (n *Network) MemoStats() (snapshots, potentials int, freezeNS int64) {
	n.snapMu.Lock()
	defer n.snapMu.Unlock()
	for _, f := range n.snaps {
		f.memo.potMu.Lock()
		potentials += len(f.memo.pots)
		f.memo.potMu.Unlock()
		freezeNS += f.snap.FreezeNanos()
	}
	return len(n.snaps), potentials, freezeNS
}
