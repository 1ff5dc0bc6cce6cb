package traffic

import (
	"container/heap"
	"math"
	"math/rand"
	"testing"

	"altroute/internal/citygen"
	"altroute/internal/graph"
	"altroute/internal/roadnet"
)

// The reference below assigns traffic without any snapshot: a textbook
// Dijkstra over the adjacency lists that calls the congested WeightFunc on
// every relaxation, so it always sees the volume accumulated so far. It
// shares no search code with internal/graph. The production assignment
// freezes once and re-reads the loaded path's weights after every load
// (Snapshot.Reweight); the two must agree bit for bit.

type refItem struct {
	dist float64
	node graph.NodeID
}

// refQueue is a container/heap min-queue in (dist, node) order — the
// total order graph's kernels use, so ties resolve identically.
type refQueue []refItem

func (q refQueue) Len() int { return len(q) }

func (q refQueue) Less(i, j int) bool {
	if q[i].dist != q[j].dist {
		return q[i].dist < q[j].dist
	}
	return q[i].node < q[j].node
}

func (q refQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }

func (q *refQueue) Push(x any) { *q = append(*q, x.(refItem)) }

func (q *refQueue) Pop() any {
	old := *q
	it := old[len(old)-1]
	*q = old[:len(old)-1]
	return it
}

// refSweep runs Dijkstra from src over enabled edges under w — forward
// along out-edges, or backward along in-edges — until stop pops (pass
// graph.InvalidNode for a full sweep). It returns the distances (+Inf
// where unreached) and the edge each node was reached by.
func refSweep(g *graph.Graph, src, stop graph.NodeID, w graph.WeightFunc, backward bool) ([]float64, []graph.EdgeID) {
	n := g.NumNodes()
	dist := make([]float64, n)
	prev := make([]graph.EdgeID, n)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[src] = 0
	q := refQueue{{0, src}}
	for q.Len() > 0 {
		it := heap.Pop(&q).(refItem)
		u := it.node
		if it.dist > dist[u] {
			continue
		}
		if u == stop {
			break
		}
		adj := g.OutEdges(u)
		if backward {
			adj = g.InEdges(u)
		}
		for _, e := range adj {
			if g.EdgeDisabled(e) {
				continue
			}
			v := g.To(e)
			if backward {
				v = g.From(e)
			}
			if nd := it.dist + w(e); nd < dist[v] {
				dist[v] = nd
				prev[v] = e
				heap.Push(&q, refItem{nd, v})
			}
		}
	}
	return dist, prev
}

// refShortestEdges returns the edges of the reference shortest s->t path.
func refShortestEdges(g *graph.Graph, s, t graph.NodeID, w graph.WeightFunc) ([]graph.EdgeID, bool) {
	dist, prev := refSweep(g, s, t, w, false)
	if math.IsInf(dist[t], 1) {
		return nil, false
	}
	var edges []graph.EdgeID
	for n := t; n != s; n = g.From(prev[n]) {
		edges = append(edges, prev[n])
	}
	return edges, true
}

// refAssign is AssignIncremental over the reference search.
func refAssign(net *roadnet.Network, demands []Demand, slices int) Assignment {
	g := net.Graph()
	a := Assignment{Volumes: make([]float64, g.NumEdges())}
	w := a.Weight(net)
	for s := 0; s < slices; s++ {
		for _, d := range demands {
			rate := d.VehiclesPerHour / float64(slices)
			if rate == 0 {
				continue
			}
			edges, ok := refShortestEdges(g, d.Source, d.Dest, w)
			if !ok {
				a.Unrouted += rate
				continue
			}
			for _, e := range edges {
				a.Volumes[e] += rate
			}
		}
	}
	return a
}

// referenceCity builds a small calibrated city with congesting demand:
// every other hospital sends 3000 veh/h to the first, plus a few seeded
// random pairs.
func referenceCity(t *testing.T, c citygen.City) (*roadnet.Network, []Demand) {
	t.Helper()
	net, err := citygen.Build(c, 0.03, 1)
	if err != nil {
		t.Fatal(err)
	}
	pois := net.POIsOfKind(citygen.KindHospital)
	var demands []Demand
	for _, p := range pois[1:] {
		demands = append(demands, Demand{Source: p.Node, Dest: pois[0].Node, VehiclesPerHour: 3000})
	}
	rng := rand.New(rand.NewSource(int64(c) + 7))
	n := net.NumIntersections()
	for i := 0; i < 4; i++ {
		demands = append(demands, Demand{
			Source:          graph.NodeID(rng.Intn(n)),
			Dest:            graph.NodeID(rng.Intn(n)),
			VehiclesPerHour: 1800,
		})
	}
	return net, demands
}

func sameAssignment(t *testing.T, what string, got, want Assignment) {
	t.Helper()
	if got.Unrouted != want.Unrouted {
		t.Fatalf("%s: Unrouted %v, reference %v", what, got.Unrouted, want.Unrouted)
	}
	if len(got.Volumes) != len(want.Volumes) {
		t.Fatalf("%s: %d volumes, reference %d", what, len(got.Volumes), len(want.Volumes))
	}
	for e := range want.Volumes {
		if got.Volumes[e] != want.Volumes[e] {
			t.Fatalf("%s: edge %d volume %v, reference %v (bit-identical required)", what, e, got.Volumes[e], want.Volumes[e])
		}
	}
}

// TestAssignIncrementalMatchesReference: on three calibrated cities,
// with and without a cut, AssignIncremental and AttackImpact match the
// reference assignment bit for bit — volumes, unrouted demand, and the
// extra vehicle-seconds.
func TestAssignIncrementalMatchesReference(t *testing.T) {
	const slices = 6
	for _, city := range []citygen.City{citygen.Boston, citygen.Chicago, citygen.LosAngeles} {
		t.Run(city.String(), func(t *testing.T) {
			net, demands := referenceCity(t, city)
			got, err := AssignIncremental(net, demands, slices)
			if err != nil {
				t.Fatal(err)
			}
			want := refAssign(net, demands, slices)
			sameAssignment(t, "intact", got, want)

			// The demand must congest, or Reweight would go untested: some
			// pair has to leave its free-flow route in a later slice.
			free := refAssign(net, demands, 1)
			rerouted := false
			for e := range want.Volumes {
				if (want.Volumes[e] > 0) != (free.Volumes[e] > 0) {
					rerouted = true
					break
				}
			}
			if !rerouted {
				t.Fatal("no demand rerouted under congestion; raise the demand")
			}

			// Cut the three most loaded edges, plus every exit of one
			// random-pair source so part of the demand is stranded.
			var cut []graph.EdgeID
			for k := 0; k < 3; k++ {
				best := graph.InvalidEdge
				for e, v := range want.Volumes {
					if v > 0 && !containsEdge(cut, graph.EdgeID(e)) && (best == graph.InvalidEdge || v > want.Volumes[best]) {
						best = graph.EdgeID(e)
					}
				}
				cut = append(cut, best)
			}
			stranded := demands[len(demands)-1].Source
			cut = append(cut, net.Graph().OutEdges(stranded)...)

			before, after, extra, strandedVPH, err := AttackImpact(net, demands, cut, slices)
			if err != nil {
				t.Fatal(err)
			}
			tx := net.Graph().Begin()
			for _, e := range cut {
				tx.Disable(e)
			}
			wantAfter := refAssign(net, demands, slices)
			tx.Rollback()
			sameAssignment(t, "before cut", before, want)
			sameAssignment(t, "after cut", after, wantAfter)
			if wantExtra := wantAfter.TotalVehicleSeconds(net) - want.TotalVehicleSeconds(net); extra != wantExtra {
				t.Fatalf("extraVehSeconds %v, reference %v", extra, wantExtra)
			}
			if wantStranded := wantAfter.Unrouted - want.Unrouted; strandedVPH != wantStranded || strandedVPH <= 0 {
				t.Fatalf("strandedVPH %v, reference %v (want > 0)", strandedVPH, wantStranded)
			}
		})
	}
}

// TestReweightedSnapshotMatchesLiveWeights replays AssignIncremental's
// freeze-once, Reweight-per-load loop and checks, after every load, that
// the patched snapshot answers forward and reverse sweeps exactly as the
// live congested weights do. Assignment itself only runs forward queries;
// the reverse check keeps Reweight's reverse-slot patch honest for the
// potentials a congestion-aware attack oracle would compute.
func TestReweightedSnapshotMatchesLiveWeights(t *testing.T) {
	for _, city := range []citygen.City{citygen.Boston, citygen.Chicago, citygen.LosAngeles} {
		t.Run(city.String(), func(t *testing.T) {
			net, demands := referenceCity(t, city)
			g := net.Graph()
			a := Assignment{Volumes: make([]float64, g.NumEdges())}
			w := a.Weight(net)
			snap := graph.Freeze(g, w)
			r := graph.NewRouter(g)
			r.UseSnapshot(snap)
			for s := 0; s < 3; s++ {
				for i, d := range demands {
					path, ok := r.ShortestPath(d.Source, d.Dest, w)
					if !ok {
						continue
					}
					for _, e := range path.Edges {
						a.Volumes[e] += d.VehiclesPerHour / 3
					}
					snap.Reweight(path.Edges)

					wantTo, _ := refSweep(g, d.Dest, graph.InvalidNode, w, true)
					pot := r.ReversePotential(d.Dest, w)
					wantFrom, _ := refSweep(g, d.Source, graph.InvalidNode, w, false)
					gotFrom := r.DistancesFrom(d.Source, w)
					for v := range wantTo {
						if got := pot.At(graph.NodeID(v)); got != wantTo[v] {
							t.Fatalf("slice %d demand %d: distance %d->dest %v, live weights give %v", s, i, v, got, wantTo[v])
						}
						if gotFrom[v] != wantFrom[v] {
							t.Fatalf("slice %d demand %d: distance source->%d %v, live weights give %v", s, i, v, gotFrom[v], wantFrom[v])
						}
					}
					for _, e := range path.Edges {
						if snap.Weight(e) != w(e) {
							t.Fatalf("edge %d: snapshot weight %v, live %v", e, snap.Weight(e), w(e))
						}
					}
				}
			}
		})
	}
}

func containsEdge(edges []graph.EdgeID, e graph.EdgeID) bool {
	for _, x := range edges {
		if x == e {
			return true
		}
	}
	return false
}
