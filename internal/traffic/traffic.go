// Package traffic adds a congestion model to the road network: a BPR
// (Bureau of Public Roads) volume-delay function and an incremental
// traffic-assignment procedure that loads origin-destination demand onto
// congested shortest paths.
//
// The paper's attacker targets "driving direction applications that
// dynamically account for live traffic updates": with this package the
// attack's TIME weights can reflect congested rather than free-flow travel
// times, and an attack's city-wide spillover (total vehicle-hours added by
// the blockages) can be quantified. This is the substrate behind the
// congestion ablation benches.
package traffic

import (
	"errors"
	"fmt"
	"math"

	"altroute/internal/graph"
	"altroute/internal/roadnet"
)

// BPR volume-delay parameters (standard values).
const (
	// Alpha and Beta are the classic BPR coefficients.
	Alpha = 0.15
	Beta  = 4.0
	// LaneCapacityVPH is the saturation flow of one lane in vehicles/hour.
	LaneCapacityVPH = 1800.0
)

// Demand is one origin-destination flow.
type Demand struct {
	Source graph.NodeID
	Dest   graph.NodeID
	// VehiclesPerHour is the demand rate.
	VehiclesPerHour float64
}

// Assignment is the result of loading demand onto the network.
type Assignment struct {
	// Volumes holds vehicles/hour per edge.
	Volumes []float64
	// Unrouted sums the demand that had no route (disconnected pairs).
	Unrouted float64
}

// Errors returned by assignment.
var (
	ErrNoDemand = errors.New("traffic: no demand to assign")
)

// Capacity returns the hourly vehicle capacity of segment e.
func Capacity(net *roadnet.Network, e graph.EdgeID) float64 {
	return float64(net.Road(e).Lanes) * LaneCapacityVPH
}

// CongestedTime returns the BPR travel time of edge e in seconds given its
// current volume: freeflow * (1 + Alpha*(v/c)^Beta).
func CongestedTime(net *roadnet.Network, e graph.EdgeID, volume float64) float64 {
	free := net.Road(e).TravelTimeS()
	c := Capacity(net, e)
	if c <= 0 {
		return free
	}
	ratio := volume / c
	return free * (1 + Alpha*math.Pow(ratio, Beta))
}

// Weight returns a congestion-aware TIME weight function for the given
// assignment. With a zero-volume assignment it equals the free-flow TIME
// weight.
func (a Assignment) Weight(net *roadnet.Network) graph.WeightFunc {
	return func(e graph.EdgeID) float64 {
		v := 0.0
		if int(e) < len(a.Volumes) {
			v = a.Volumes[e]
		}
		return CongestedTime(net, e, v)
	}
}

// TotalVehicleSeconds returns the system travel time: the sum over edges
// of volume x congested time (vehicles/hour x seconds; a relative measure
// used to compare scenarios).
func (a Assignment) TotalVehicleSeconds(net *roadnet.Network) float64 {
	total := 0.0
	for e, v := range a.Volumes {
		if v > 0 {
			total += v * CongestedTime(net, graph.EdgeID(e), v)
		}
	}
	return total
}

// AssignIncremental loads the demands onto the network in the given number
// of equal slices: each slice of each demand takes the shortest path under
// the travel times produced by the volume accumulated so far. Incremental
// assignment is the classic fast approximation to user equilibrium and is
// deterministic.
//
// Disabled edges (e.g. an applied attack cut) carry no traffic, so
// assigning the same demand before and after Apply(cut) measures the
// congestion the attack causes city-wide.
//
// The graph is frozen once under the congested weight; loading a path
// changes the volume — hence the weight — of that path's edges only, so
// just those edges are re-read into the snapshot (Snapshot.Reweight)
// before the next query. Every query therefore sees exactly the weights
// the accumulated volume implies.
func AssignIncremental(net *roadnet.Network, demands []Demand, slices int) (Assignment, error) {
	if len(demands) == 0 {
		return Assignment{}, ErrNoDemand
	}
	if slices <= 0 {
		slices = 4
	}
	for i, d := range demands {
		if d.VehiclesPerHour < 0 {
			return Assignment{}, fmt.Errorf("traffic: demand %d has negative rate", i)
		}
	}

	g := net.Graph()
	a := Assignment{Volumes: make([]float64, g.NumEdges())}
	w := a.Weight(net)
	snap := graph.Freeze(g, w) // private to this call: Reweight patches it
	r := graph.NewRouter(g)
	r.UseSnapshot(snap)

	for s := 0; s < slices; s++ {
		for _, d := range demands {
			rate := d.VehiclesPerHour / float64(slices)
			if rate == 0 {
				continue
			}
			path, ok := r.ShortestPath(d.Source, d.Dest, w)
			if !ok {
				a.Unrouted += rate
				continue
			}
			for _, e := range path.Edges {
				a.Volumes[e] += rate
			}
			snap.Reweight(path.Edges)
		}
	}
	return a, nil
}

// AttackImpact quantifies an attack's congestion spillover: it assigns the
// demands on the intact network and on the network with the cut applied,
// and returns both assignments plus the increase in system travel time
// (vehicle-seconds) and the demand left unroutable by the cut.
func AttackImpact(net *roadnet.Network, demands []Demand, cut []graph.EdgeID, slices int) (before, after Assignment, extraVehSeconds, strandedVPH float64, err error) {
	before, err = AssignIncremental(net, demands, slices)
	if err != nil {
		return Assignment{}, Assignment{}, 0, 0, err
	}
	g := net.Graph()
	tx := g.Begin()
	for _, e := range cut {
		tx.Disable(e)
	}
	after, err = AssignIncremental(net, demands, slices)
	tx.Rollback()
	if err != nil {
		return Assignment{}, Assignment{}, 0, 0, err
	}
	extraVehSeconds = after.TotalVehicleSeconds(net) - before.TotalVehicleSeconds(net)
	strandedVPH = after.Unrouted - before.Unrouted
	return before, after, extraVehSeconds, strandedVPH, nil
}
