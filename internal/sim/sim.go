// Package sim is a small event-driven traffic simulator that demonstrates
// the attack end to end: vehicles travel from source to destination along
// live shortest-TIME paths, re-routing at intersections whenever a road
// ahead has been blocked — exactly the "driving direction applications that
// dynamically account for live traffic updates" behavior the paper's
// introduction motivates. The attacker's scheduled blockages are the edge
// cuts computed by the core algorithms.
//
// The simulator lets examples and tests quantify the victim-facing effect
// of an attack plan: how much travel time the forced alternative route
// inflicts, how many vehicles get stranded, and how many times drivers are
// re-routed.
package sim

import (
	"container/heap"
	"errors"
	"fmt"
	"sort"

	"altroute/internal/graph"
	"altroute/internal/roadnet"
)

// Vehicle is one victim driver.
type Vehicle struct {
	// ID identifies the vehicle in results.
	ID int
	// Source and Dest are the trip endpoints.
	Source graph.NodeID
	Dest   graph.NodeID
	// DepartS is the departure time in simulation seconds.
	DepartS float64
}

// Blockage schedules an attacker road closure.
type Blockage struct {
	// Edge is the road segment to block.
	Edge graph.EdgeID
	// AtS is the closure time in simulation seconds.
	AtS float64
}

// Config describes one simulation run.
type Config struct {
	Net       *roadnet.Network
	Vehicles  []Vehicle
	Blockages []Blockage
	// HorizonS caps the simulation clock; vehicles still traveling then
	// are reported as not arrived. Default 86400 (one day).
	HorizonS float64
}

// VehicleResult is the outcome for one vehicle.
type VehicleResult struct {
	ID          int
	Arrived     bool
	TravelTimeS float64
	Hops        int
	Reroutes    int
	// Stranded is true when the vehicle had no remaining route to its
	// destination after a blockage.
	Stranded bool
}

// Result is the outcome of a run.
type Result struct {
	Vehicles []VehicleResult
	// ArrivedCount is the number of vehicles that reached their
	// destination within the horizon.
	ArrivedCount int
}

// TotalTravelTimeS sums the travel time of arrived vehicles.
func (r Result) TotalTravelTimeS() float64 {
	total := 0.0
	for _, v := range r.Vehicles {
		if v.Arrived {
			total += v.TravelTimeS
		}
	}
	return total
}

// ErrNoVehicles is returned when the config has no vehicles.
var ErrNoVehicles = errors.New("sim: no vehicles to simulate")

// event is a vehicle arriving at a node.
type event struct {
	timeS   float64
	vehicle int // index into cfg.Vehicles
	node    graph.NodeID
	seq     int // tiebreaker for deterministic ordering
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].timeS != h[j].timeS { //lint:allow floateq deterministic event order relies on exact time bits; ties are broken by seq below
		return h[i].timeS < h[j].timeS
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// Run executes the simulation. The network's graph is mutated while the
// simulation runs (blockages disable edges) and restored before returning.
func Run(cfg Config) (Result, error) {
	if cfg.Net == nil {
		return Result{}, errors.New("sim: nil network")
	}
	if len(cfg.Vehicles) == 0 {
		return Result{}, ErrNoVehicles
	}
	if cfg.HorizonS <= 0 {
		cfg.HorizonS = 86400
	}
	g := cfg.Net.Graph()
	w := cfg.Net.Weight(roadnet.WeightTime)
	router := graph.NewRouter(g)
	router.UseSnapshot(cfg.Net.Snapshot(roadnet.WeightTime))

	for _, v := range cfg.Vehicles {
		if v.Source < 0 || int(v.Source) >= g.NumNodes() || v.Dest < 0 || int(v.Dest) >= g.NumNodes() {
			return Result{}, fmt.Errorf("sim: vehicle %d has invalid endpoints %d -> %d", v.ID, v.Source, v.Dest)
		}
	}

	blockages := append([]Blockage(nil), cfg.Blockages...)
	sort.Slice(blockages, func(i, j int) bool { return blockages[i].AtS < blockages[j].AtS })
	nextBlock := 0

	tx := g.Begin()
	defer tx.Rollback()

	// Per-vehicle state.
	type state struct {
		res      VehicleResult
		plan     []graph.EdgeID // remaining edges to destination
		departed float64
		done     bool
	}
	states := make([]state, len(cfg.Vehicles))

	var events eventHeap
	seq := 0
	for i, v := range cfg.Vehicles {
		states[i].res = VehicleResult{ID: v.ID}
		states[i].departed = v.DepartS
		heap.Push(&events, event{timeS: v.DepartS, vehicle: i, node: v.Source, seq: seq})
		seq++
	}

	applyBlockages := func(now float64) {
		for nextBlock < len(blockages) && blockages[nextBlock].AtS <= now {
			tx.Disable(blockages[nextBlock].Edge)
			nextBlock++
		}
	}

	for events.Len() > 0 {
		ev := heap.Pop(&events).(event)
		if ev.timeS > cfg.HorizonS {
			continue // beyond horizon: vehicle never arrives
		}
		applyBlockages(ev.timeS)
		st := &states[ev.vehicle]
		if st.done {
			continue
		}
		v := cfg.Vehicles[ev.vehicle]

		if ev.node == v.Dest {
			st.res.Arrived = true
			st.res.TravelTimeS = ev.timeS - st.departed
			st.done = true
			continue
		}

		// Re-plan when there is no plan or the next planned edge is gone.
		needPlan := len(st.plan) == 0 || g.EdgeDisabled(st.plan[0]) || g.From(st.plan[0]) != ev.node
		if needPlan {
			if st.res.Hops > 0 || len(st.plan) > 0 {
				st.res.Reroutes++
			}
			p, ok := router.ShortestPath(ev.node, v.Dest, w)
			if !ok {
				st.res.Stranded = true
				st.done = true
				continue
			}
			st.plan = append(st.plan[:0], p.Edges...)
		}

		next := st.plan[0]
		st.plan = st.plan[1:]
		st.res.Hops++
		heap.Push(&events, event{
			timeS:   ev.timeS + w(next),
			vehicle: ev.vehicle,
			node:    g.To(next),
			seq:     seq,
		})
		seq++
	}

	out := Result{Vehicles: make([]VehicleResult, len(states))}
	for i, st := range states {
		out.Vehicles[i] = st.res
		if st.res.Arrived {
			out.ArrivedCount++
		}
	}
	return out, nil
}

// CompareAttack runs the fleet twice — once on the intact network and once
// with the attacker's blockages — and returns both results plus the total
// delay inflicted on vehicles that arrived in both runs.
func CompareAttack(cfg Config) (baseline, attacked Result, delayS float64, err error) {
	clean := cfg
	clean.Blockages = nil
	baseline, err = Run(clean)
	if err != nil {
		return Result{}, Result{}, 0, err
	}
	attacked, err = Run(cfg)
	if err != nil {
		return Result{}, Result{}, 0, err
	}
	for i := range baseline.Vehicles {
		b, a := baseline.Vehicles[i], attacked.Vehicles[i]
		if b.Arrived && a.Arrived {
			delayS += a.TravelTimeS - b.TravelTimeS
		}
	}
	return baseline, attacked, delayS, nil
}
