// Package registry holds the serving-side read path of the attack
// service: a registry of preloaded city shards, each wrapping one street
// network. The network itself memoizes the frozen artifacts that make
// repeated attack queries cheap (roadnet.Network.Snapshot and Potential),
// and a shard preloads them and adds the serving rules around them —
//
//   - one immutable CSR snapshot per weight type (graph.Freeze), shared
//     read-only by every worker: read-only queries (p* generation, oracle
//     probes) run straight on the shard snapshot and never touch a pooled
//     network clone;
//   - one reverse potential per (weight type, POI destination), computed
//     once on the intact network and reused as the exact A* heuristic by
//     every Yen search against that hospital, on the master and on every
//     pooled clone that shares its frozen image;
//   - a generation counter that advances on every weight mutation
//     (SetRoad), keying result caches: anything computed against
//     generation g is correct forever *for generation g*, so a cache
//     entry keyed (g, request) can never serve stale data — it simply
//     stops being looked up once the generation moves on;
//   - a bounded pool of network clones for the mutation-bearing part of
//     an attack (the algorithms disable edges transactionally and must
//     not share a graph); clones are generation-stamped so a mutation
//     flushes stale clones instead of recycling them.
//
// The package also provides the two building blocks the server composes
// on top of shards: a memory-bounded generation-keyed LRU cache (Cache)
// and a singleflight coalescing group with per-waiter cancellation
// (Group).
package registry

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"altroute/internal/graph"
	"altroute/internal/roadnet"
)

// NormalizeCity canonicalizes a city name for lookup: lower-case, spaces
// collapsed to hyphens ("San Francisco" == "san-francisco").
func NormalizeCity(name string) string {
	return strings.ReplaceAll(strings.ToLower(strings.TrimSpace(name)), " ", "-")
}

// pooledClone is one pool entry: a private network clone stamped with the
// shard generation it was cloned at, so a post-mutation release can
// discard it instead of recycling stale weights.
type pooledClone struct {
	net *roadnet.Network
	gen uint64
}

// Shard is one served city: the master network, whose memo holds the
// frozen read-path artifacts, and the clone pool for mutation-bearing
// attack computations.
//
// Concurrency contract: the master network is never mutated except
// through SetRoad, which synchronizes against every reader here. All
// read methods (Snapshot, Potential, AcquireClone, ...) are safe for
// arbitrary concurrency.
type Shard struct {
	name string
	net  *roadnet.Network

	// gen is the shard generation: it advances on every SetRoad and keys
	// every cache built over this shard. Reads are atomic so the hot path
	// never takes the mutex; writes happen under mu.
	gen atomic.Uint64

	// mu orders SetRoad (write) against clone creation and the
	// generation check of Potential (read): a clone cut under RLock is
	// always consistent with the generation read under the same RLock.
	mu  sync.RWMutex
	poi map[graph.NodeID]bool // destinations served a preloaded potential; fixed at NewShard

	clones  chan pooledClone
	routers sync.Pool // *graph.Router over the master graph, for read-only queries

	poolHits   atomic.Int64
	poolMisses atomic.Int64
	poolStale  atomic.Int64
}

// ShardStats is a point-in-time snapshot of one shard's counters for
// /healthz.
type ShardStats struct {
	City       string `json:"city"`
	Generation uint64 `json:"generation"`
	Snapshots  int    `json:"snapshots"`
	Potentials int    `json:"potentials"`
	PoolHits   int64  `json:"pool_hits"`
	PoolMisses int64  `json:"pool_misses"`
	PoolStale  int64  `json:"pool_stale"`
	// FreezeNS is the cumulative wall-clock time (ns) the currently-held
	// CSR snapshots took to freeze — how much preload/rebuild work the
	// shard's read path amortizes.
	FreezeNS int64 `json:"freeze_ns"`
}

// NewShard builds a preloaded shard for net under ctx: it has the network
// freeze one CSR snapshot per weight type and memoize one reverse
// potential per (weight type, attached POI) — the artifacts every later
// request shares.
// The name defaults to the network's own name. poolSize bounds the clone
// pool (0 picks a small default). Preloading a metropolitan network runs
// several full Dijkstra sweeps; ctx cancellation aborts it cleanly.
func NewShard(ctx context.Context, name string, net *roadnet.Network, poolSize int) (*Shard, error) {
	if net == nil {
		return nil, fmt.Errorf("registry: nil network")
	}
	if name == "" {
		name = net.Name()
	}
	name = NormalizeCity(name)
	if name == "" {
		return nil, fmt.Errorf("registry: shard needs a name (network has none)")
	}
	if poolSize <= 0 {
		poolSize = 8
	}
	s := &Shard{
		name:   name,
		net:    net,
		poi:    make(map[graph.NodeID]bool),
		clones: make(chan pooledClone, poolSize),
	}
	s.routers.New = func() any { return graph.NewRouter(net.Graph()) }
	for _, p := range net.POIs() {
		if p.Node != graph.InvalidNode {
			s.poi[p.Node] = true
		}
	}
	// Preload order is fixed (weight types in paper order, POIs in
	// attachment order) so startup work is deterministic.
	cancelled := func() error {
		return fmt.Errorf("registry: preloading shard %s: %w", name, context.Cause(ctx))
	}
	for _, wt := range roadnet.WeightTypes() {
		if ctx.Err() != nil {
			return nil, cancelled()
		}
		net.Snapshot(wt)
		for _, p := range net.POIs() {
			// A cancelled sweep yields nil and memoizes nothing.
			if p.Node != graph.InvalidNode && net.Potential(ctx, wt, p.Node) == nil {
				return nil, cancelled()
			}
		}
	}
	return s, nil
}

// putRouter detaches per-use state and returns the router to the pool.
func (s *Shard) putRouter(r *graph.Router) {
	r.SetContext(nil)
	r.UseSnapshot(nil)
	s.routers.Put(r)
}

// Name returns the shard's normalized city name.
func (s *Shard) Name() string { return s.name }

// Net returns the master network. Callers must treat it as read-only;
// mutations go through SetRoad.
func (s *Shard) Net() *roadnet.Network { return s.net }

// Generation returns the shard generation. It advances on every SetRoad;
// results computed against an older generation must not be served as
// current.
func (s *Shard) Generation() uint64 { return s.gen.Load() }

// Snapshot returns the shared frozen CSR snapshot for wt at the current
// generation: the network's (roadnet.Network.Snapshot), refrozen lazily
// after a mutation dropped it. The snapshot is safe for any number of
// concurrent readers.
func (s *Shard) Snapshot(wt roadnet.WeightType) *graph.Snapshot {
	return s.net.Snapshot(wt)
}

// Potential returns the reverse potential for dest under wt from the
// network's memo (roadnet.Network.Potential), or nil when dest is not a
// POI destination (ad-hoc destinations compute their potential inside the
// attack, as before). After a mutation the entry is recomputed lazily on
// first use. It also returns nil when ctx cuts the sweep short or a
// SetRoad lands during the call: a table swept over the old weights may
// overestimate under the new ones (no longer a valid A* bound), and the
// caller's generation re-check retries at the new generation.
func (s *Shard) Potential(ctx context.Context, wt roadnet.WeightType, dest graph.NodeID) *graph.Potential {
	if !s.poi[dest] {
		return nil
	}
	gen := s.gen.Load()
	pot := s.net.Potential(ctx, wt, dest)
	// SetRoad changes the weights and the generation under mu: reading
	// the generation under RLock sees both or neither.
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.gen.Load() != gen {
		return nil
	}
	return pot
}

// SetRoad replaces the attributes of segment e on the master network and
// advances the shard generation: the network drops its frozen snapshots
// and potentials (rebuilt lazily at the new generation) and pooled clones
// from the old generation are flushed. Results computed against the old
// generation stay correct for their generation key; they just stop being
// current.
func (s *Shard) SetRoad(e graph.EdgeID, r roadnet.Road) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.net.SetRoad(e, r); err != nil {
		return err
	}
	s.gen.Add(1)
	for {
		select {
		case <-s.clones:
			s.poolStale.Add(1)
		default:
			return nil
		}
	}
}

// AcquireClone returns a private network clone at the current generation
// for a mutation-bearing computation (attack algorithms disable edges
// transactionally). Clones come from the pool when one of the right
// generation is available; otherwise a fresh clone is cut (counted in
// PoolMisses — the pool warms up as clones are released).
func (s *Shard) AcquireClone() (*roadnet.Network, uint64) {
	// Drain stale pool entries first; the loop is bounded by the channel
	// capacity (each iteration pops one clone or exits).
drain:
	for {
		select {
		case pc := <-s.clones:
			if pc.gen == s.Generation() {
				s.poolHits.Add(1)
				return pc.net, pc.gen
			}
			s.poolStale.Add(1)
		default:
			break drain
		}
	}
	s.poolMisses.Add(1)
	// RLock pairs the generation read with the clone so a racing
	// SetRoad cannot produce a new-weights clone stamped with the
	// old generation.
	s.mu.RLock()
	gen := s.Generation()
	clone := s.net.Clone()
	s.mu.RUnlock()
	return clone, gen
}

// ReleaseClone sanitizes a clone (disabled edges from an unwound attack
// are reset) and returns it to the pool, unless the generation moved on —
// stale clones are dropped so a post-mutation request can never see old
// weights.
func (s *Shard) ReleaseClone(n *roadnet.Network, gen uint64) {
	if n == nil {
		return
	}
	n.Graph().ResetDisabled()
	if gen != s.Generation() {
		s.poolStale.Add(1)
		return
	}
	select {
	case s.clones <- pooledClone{net: n, gen: gen}:
	default:
	}
}

// AcquireRouter returns a pooled router over the master graph for a
// read-only query (p* generation). Callers attach their own context and
// snapshot; ReleaseRouter detaches both.
func (s *Shard) AcquireRouter() *graph.Router {
	return s.routers.Get().(*graph.Router)
}

// ReleaseRouter returns a router taken with AcquireRouter.
func (s *Shard) ReleaseRouter(r *graph.Router) { s.putRouter(r) }

// Stats returns the shard's counters.
func (s *Shard) Stats() ShardStats {
	snaps, pots, freezeNS := s.net.MemoStats()
	return ShardStats{
		City:       s.name,
		Generation: s.Generation(),
		Snapshots:  snaps,
		Potentials: pots,
		PoolHits:   s.poolHits.Load(),
		PoolMisses: s.poolMisses.Load(),
		PoolStale:  s.poolStale.Load(),
		FreezeNS:   freezeNS,
	}
}

// Registry maps city names to shards. Build it at startup with Add;
// lookups afterwards are read-only and safe for any concurrency.
type Registry struct {
	shards map[string]*Shard
	order  []string
	def    *Shard
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{shards: make(map[string]*Shard)}
}

// Add registers a shard. The first shard added becomes the default city
// (overridable with SetDefault); duplicate names are rejected.
func (r *Registry) Add(s *Shard) error {
	if s == nil {
		return fmt.Errorf("registry: nil shard")
	}
	if _, dup := r.shards[s.name]; dup {
		return fmt.Errorf("registry: duplicate city %q", s.name)
	}
	r.shards[s.name] = s
	r.order = append(r.order, s.name)
	if r.def == nil {
		r.def = s
	}
	return nil
}

// SetDefault selects the city served when a request names none.
func (r *Registry) SetDefault(name string) error {
	s, ok := r.shards[NormalizeCity(name)]
	if !ok {
		return fmt.Errorf("registry: unknown city %q (have %s)", name, strings.Join(r.Names(), ", "))
	}
	r.def = s
	return nil
}

// Get resolves a city name to its shard; the empty name resolves to the
// default city.
func (r *Registry) Get(name string) (*Shard, bool) {
	if name == "" {
		return r.def, r.def != nil
	}
	s, ok := r.shards[NormalizeCity(name)]
	return s, ok
}

// Names returns the registered city names, sorted.
func (r *Registry) Names() []string {
	names := append([]string(nil), r.order...)
	sort.Strings(names)
	return names
}

// Shards returns the shards in registration order.
func (r *Registry) Shards() []*Shard {
	out := make([]*Shard, 0, len(r.order))
	for _, name := range r.order {
		out = append(out, r.shards[name])
	}
	return out
}
