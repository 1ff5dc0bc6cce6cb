// Package altroute is a library for studying alternative route-based
// attacks in metropolitan traffic systems, reproducing La Fontaine et al.
// (DSN 2022). An attacker who knows a victim's source and destination picks
// a sub-optimal alternative route p* (e.g. the 100th-shortest path) and
// computes a minimum-cost set of road segments to block so that p* becomes
// the exclusive shortest path — forcing every optimally-routing vehicle
// onto the attacker's chosen route.
//
// The package is a facade over the implementation packages:
//
//   - road networks with LENGTH/TIME weights and UNIFORM/LANES/WIDTH
//     removal costs (internal/roadnet),
//   - the four Force Path Cut algorithms — LP-PathCover, GreedyPathCover,
//     GreedyEdge, GreedyEig (internal/core),
//   - synthetic city generators calibrated to the paper's Boston, San
//     Francisco, Chicago, and Los Angeles graphs (internal/citygen),
//   - OpenStreetMap XML import/export (internal/osm),
//   - the experiment harness regenerating the paper's Tables I-X
//     (internal/experiment),
//   - SVG visualization in the style of Figures 1-4 (internal/viz),
//   - the area-isolation min-cut attack (internal/partition), and
//   - a live-rerouting victim simulator (internal/sim).
//
// Quickstart:
//
//	net, _ := altroute.BuildCity(altroute.Chicago, 0.05, 1)
//	hospital := net.POIsOfKind(altroute.KindHospital)[0]
//	problem, _ := altroute.NewProblem(net, source, hospital.Node, 100,
//		altroute.WeightTime, altroute.CostLanes, 0)
//	result, _ := altroute.Attack(altroute.AlgGreedyPathCover, problem, altroute.Options{})
//	altroute.Apply(net.Graph(), result.Removed) // commit the cut
package altroute

import (
	"context"
	"io"

	"altroute/internal/citygen"
	"altroute/internal/core"
	"altroute/internal/defense"
	"altroute/internal/geo"
	"altroute/internal/graph"
	"altroute/internal/metrics"
	"altroute/internal/osm"
	"altroute/internal/partition"
	"altroute/internal/roadnet"
	"altroute/internal/sim"
	"altroute/internal/traffic"
	"altroute/internal/viz"
)

// Graph primitives.
type (
	// NodeID identifies a road intersection.
	NodeID = graph.NodeID
	// EdgeID identifies a directed road segment.
	EdgeID = graph.EdgeID
	// Path is a route through the network.
	Path = graph.Path
	// WeightFunc maps an edge to a weight or cost.
	WeightFunc = graph.WeightFunc
	// Graph is the directed street multigraph.
	Graph = graph.Graph
	// Router answers shortest-path and k-shortest-path queries.
	Router = graph.Router
)

// Road-network types.
type (
	// Network is a road network: graph + road attributes + POIs.
	Network = roadnet.Network
	// Road is the attribute bundle of one road segment.
	Road = roadnet.Road
	// POI is a point of interest (hospitals in the paper).
	POI = roadnet.POI
	// WeightType is the attacker objective (LENGTH or TIME).
	WeightType = roadnet.WeightType
	// CostType is the removal cost model (UNIFORM, LANES, WIDTH).
	CostType = roadnet.CostType
	// RoadClass is the coarse highway classification.
	RoadClass = roadnet.RoadClass
	// Point is a geographic coordinate.
	Point = geo.Point
)

// Weight and cost models (paper §II-B).
const (
	WeightLength = roadnet.WeightLength
	WeightTime   = roadnet.WeightTime
	CostUniform  = roadnet.CostUniform
	CostLanes    = roadnet.CostLanes
	CostWidth    = roadnet.CostWidth
)

// Attack types (paper §III-A).
type (
	// Problem is a Force Path Cut instance. Callers that attack one
	// graph many times in sequence may set its Router (NewRouter on the
	// problem's graph) so every run reuses one set of search scratch.
	Problem = core.Problem
	// Result is a computed attack plan.
	Result = core.Result
	// Options tunes the attack algorithms.
	Options = core.Options
	// Algorithm selects one of the paper's four algorithms.
	Algorithm = core.Algorithm
)

// The four algorithms evaluated in the paper.
const (
	AlgLPPathCover     = core.AlgLPPathCover
	AlgGreedyPathCover = core.AlgGreedyPathCover
	AlgGreedyEdge      = core.AlgGreedyEdge
	AlgGreedyEig       = core.AlgGreedyEig
)

// Attack errors.
var (
	ErrInvalidProblem  = core.ErrInvalidProblem
	ErrInfeasible      = core.ErrInfeasible
	ErrBudgetExceeded  = core.ErrBudgetExceeded
	ErrRankUnavailable = core.ErrRankUnavailable
	// ErrTimeout marks an attack that exceeded Options.Timeout or an
	// ancestor context deadline (LP-PathCover instead degrades to a greedy
	// cover when it already has constraints; see Result.Degraded).
	ErrTimeout = core.ErrTimeout
	// ErrCancelled marks an attack cancelled through its context.
	ErrCancelled = core.ErrCancelled
	// ErrPanic marks an attack that panicked; AttackCtx recovers the panic
	// into this error with the offending stack attached.
	ErrPanic = core.ErrPanic
)

// City presets (paper Table I).
type City = citygen.City

// The paper's four cities.
const (
	Boston       = citygen.Boston
	SanFrancisco = citygen.SanFrancisco
	Chicago      = citygen.Chicago
	LosAngeles   = citygen.LosAngeles
)

// KindHospital is the POI kind attack destinations use.
const KindHospital = citygen.KindHospital

// NewNetwork returns an empty road network.
func NewNetwork(name string) *Network { return roadnet.NewNetwork(name) }

// NewRouter returns a shortest-path router over g.
func NewRouter(g *Graph) *Router { return graph.NewRouter(g) }

// BuildCity generates a synthetic city calibrated to the paper's Table I
// (scale 1 = full size) with its four hospitals attached.
func BuildCity(c City, scale float64, seed int64) (*Network, error) {
	return citygen.Build(c, scale, seed)
}

// Cities lists the paper's four cities.
func Cities() []City { return citygen.Cities() }

// HospitalNames returns the four hospital names used for a city.
func HospitalNames(c City) []string { return citygen.HospitalNames(c) }

// NewProblem assembles a Force Path Cut instance: p* is the rank-th
// shortest path from s to d under wt, removal costs follow ct, and budget 0
// means unlimited.
func NewProblem(net *Network, s, d NodeID, rank int, wt WeightType, ct CostType, budget float64) (Problem, error) {
	return core.NewProblem(net, s, d, rank, wt, ct, budget)
}

// PStarByRank returns the rank-th shortest simple path (1-based).
func PStarByRank(g *Graph, s, d NodeID, rank int, w WeightFunc) (Path, error) {
	return core.PStarByRank(g, s, d, rank, w)
}

// BuildViaPath constructs the toll-road alternative route: the best simple
// s->d path traversing the chosen edge.
func BuildViaPath(g *Graph, s, d NodeID, via EdgeID, w WeightFunc) (Path, error) {
	return core.BuildViaPath(g, s, d, via, w)
}

// Attack runs the chosen algorithm on p, returning the edge cut that makes
// p.PStar the exclusive shortest path. The graph is left unchanged; commit
// with Apply.
func Attack(alg Algorithm, p Problem, opts Options) (Result, error) {
	return core.Run(alg, p, opts)
}

// AttackCtx is Attack under a context: cancellation and deadlines propagate
// cooperatively into the attack's search loops and LP pivots, panics are
// recovered into ErrPanic failures, and a timed-out LP-PathCover degrades to
// the greedy cover of its constraint pool (Result.Degraded).
func AttackCtx(ctx context.Context, alg Algorithm, p Problem, opts Options) (Result, error) {
	return core.RunCtx(ctx, alg, p, opts)
}

// Algorithms lists the paper's four algorithms in presentation order.
func Algorithms() []Algorithm { return core.Algorithms() }

// Multi-victim attack (§II-A: coerce multiple drivers at once).
type (
	// MultiProblem forces one shared edge cut across several victims.
	MultiProblem = core.MultiProblem
	// VictimSpec is one victim trip in a MultiProblem.
	VictimSpec = core.VictimSpec
)

// AttackMulti computes one cut forcing every victim onto its alternative
// route (GreedyPathCover or LP-PathCover only).
func AttackMulti(alg Algorithm, p MultiProblem, opts Options) (Result, error) {
	return core.RunMulti(alg, p, opts)
}

// AttackMultiCtx is AttackMulti under a context, with the same failure
// semantics as AttackCtx.
func AttackMultiCtx(ctx context.Context, alg Algorithm, p MultiProblem, opts Options) (Result, error) {
	return core.RunMultiCtx(ctx, alg, p, opts)
}

// ParseAlgorithm parses an algorithm name.
func ParseAlgorithm(s string) (Algorithm, error) { return core.ParseAlgorithm(s) }

// ParseWeightType parses LENGTH or TIME.
func ParseWeightType(s string) (WeightType, error) { return roadnet.ParseWeightType(s) }

// ParseCostType parses UNIFORM, LANES, or WIDTH.
func ParseCostType(s string) (CostType, error) { return roadnet.ParseCostType(s) }

// ParseCity parses a city name.
func ParseCity(s string) (City, error) { return citygen.ParseCity(s) }

// Apply disables every edge in cut on g (commits an attack plan).
func Apply(g *Graph, cut []EdgeID) { core.Apply(g, cut) }

// Restore re-enables every edge in cut on g.
func Restore(g *Graph, cut []EdgeID) { core.Restore(g, cut) }

// ParseOSM reads OpenStreetMap XML into a road network.
func ParseOSM(r io.Reader, opts OSMOptions) (*Network, error) { return osm.Parse(r, opts) }

// WriteOSM serializes a road network as OSM XML.
func WriteOSM(w io.Writer, net *Network) error { return osm.Write(w, net) }

// OSMOptions configures ParseOSM.
type OSMOptions = osm.ParseOptions

// Summary is a Table I style graph summary.
type Summary = metrics.GraphSummary

// Summarize computes the Table I row for a network.
func Summarize(net *Network) Summary { return metrics.Summarize(net) }

// Latticeness scores how grid-like a network is in [0, 1].
func Latticeness(net *Network) float64 { return metrics.Latticeness(net) }

// Area-isolation attack (paper §II-A).
type (
	// IsolationResult is an area-isolation cut.
	IsolationResult = partition.Result
	// IsolationDirection selects the severed traffic direction.
	IsolationDirection = partition.Direction
)

// Isolation directions.
const (
	Inbound  = partition.Inbound
	Outbound = partition.Outbound
	BothWays = partition.BothWays
)

// IsolateArea computes a minimum-cost cut disconnecting the target area.
func IsolateArea(g *Graph, area []NodeID, cost WeightFunc, dir IsolationDirection) (IsolationResult, error) {
	return partition.IsolateArea(g, area, cost, dir)
}

// AreaAround returns the nodes within a weight radius of center.
func AreaAround(g *Graph, center NodeID, radius float64, w WeightFunc) []NodeID {
	return partition.AreaAround(g, center, radius, w)
}

// CriticalRoads ranks road segments by betweenness centrality.
func CriticalRoads(net *Network, w WeightFunc, k, sampleSources int) []EdgeID {
	return partition.CriticalRoads(net, w, k, sampleSources)
}

// Defense analysis.
type (
	// HardeningPlan recommends segments to protect against denial.
	HardeningPlan = defense.HardeningPlan
	// TripExposure summarizes one trip's attack exposure.
	TripExposure = defense.TripExposure
)

// EdgeDisjointPaths counts edge-disjoint s->d paths (simultaneous
// blockages needed for full denial).
func EdgeDisjointPaths(g *Graph, s, d NodeID) (int, error) {
	return defense.EdgeDisjointPaths(g, s, d)
}

// AttackCost returns the strongest attacker's cheapest route-forcing cost
// for the trip.
func AttackCost(net *Network, s, d NodeID, rank int, wt WeightType, ct CostType) (float64, error) {
	return defense.AttackCost(net, s, d, rank, wt, ct)
}

// Harden recommends road segments to protect against denial of the trip.
func Harden(g *Graph, s, d NodeID, cost WeightFunc, rounds int) (HardeningPlan, error) {
	return defense.Harden(g, s, d, cost, rounds)
}

// SurveyExposure computes attack exposure for a set of trips.
func SurveyExposure(net *Network, trips [][2]NodeID, rank int, wt WeightType, ct CostType) ([]TripExposure, error) {
	return defense.Survey(net, trips, rank, wt, ct)
}

// Victim simulation.
type (
	// SimConfig describes a simulated fleet and attack schedule.
	SimConfig = sim.Config
	// Vehicle is one simulated victim trip.
	Vehicle = sim.Vehicle
	// Blockage schedules an attacker road closure.
	Blockage = sim.Blockage
	// SimResult is a simulation outcome.
	SimResult = sim.Result
)

// Simulate runs the live-rerouting victim simulator.
func Simulate(cfg SimConfig) (SimResult, error) { return sim.Run(cfg) }

// CompareAttack simulates the fleet with and without the blockages and
// returns the inflicted delay.
func CompareAttack(cfg SimConfig) (baseline, attacked SimResult, delayS float64, err error) {
	return sim.CompareAttack(cfg)
}

// Congestion modeling.
type (
	// TrafficDemand is one origin-destination flow in vehicles/hour.
	TrafficDemand = traffic.Demand
	// TrafficAssignment is loaded traffic (per-edge volumes).
	TrafficAssignment = traffic.Assignment
)

// AssignTraffic loads demand onto the network with incremental assignment
// under BPR congestion.
func AssignTraffic(net *Network, demands []TrafficDemand, slices int) (TrafficAssignment, error) {
	return traffic.AssignIncremental(net, demands, slices)
}

// TrafficAttackImpact measures an attack cut's city-wide congestion
// spillover (extra vehicle-seconds and stranded demand).
func TrafficAttackImpact(net *Network, demands []TrafficDemand, cut []EdgeID, slices int) (before, after TrafficAssignment, extraVehSeconds, strandedVPH float64, err error) {
	return traffic.AttackImpact(net, demands, cut, slices)
}

// Visualization (paper Figures 1-4).
type (
	// Scene is one experiment rendering.
	Scene = viz.Scene
	// SceneStyle controls rendering colors and sizes.
	SceneStyle = viz.Style
)

// WriteSVG renders a scene as SVG.
func WriteSVG(w io.Writer, scene Scene) error { return viz.WriteSVG(w, scene) }

// WriteSVGFile renders a scene to a file.
func WriteSVGFile(path string, scene Scene) error { return viz.WriteSVGFile(path, scene) }
