// Package roadnet layers road semantics on top of the directed graph: every
// edge is a road segment with a length, speed limit, lane count, width, and
// class; every node is an intersection with a geographic coordinate. It
// defines the paper's attacker objectives (edge weight types LENGTH and
// TIME) and attacker capabilities (edge removal cost types UNIFORM, LANES,
// and WIDTH), and implements the point-of-interest attachment surgery from
// §III-A: off-network POIs (hospitals) are snapped onto the nearest road by
// splitting it at an artificial node and connecting the POI with an
// artificial road segment.
package roadnet

import (
	"fmt"
	"math"
	"sync"

	"altroute/internal/geo"
	"altroute/internal/graph"
)

// AvgCarWidthM is the average width of an American car in meters (The Zebra
// 2022 study cited by the paper: about 5.8 feet). The WIDTH removal cost of
// a road is roadWidth / AvgCarWidthM — roughly how many cars must feign a
// breakdown side by side to plug the road.
const AvgCarWidthM = 1.78

// LaneWidthM is the standard US lane width used when OSM data carries a
// lane count but no explicit width.
const LaneWidthM = 3.65

// RoadClass is a coarse OSM highway classification. It drives the default
// speed limit, lane count, and width when source data omits them.
type RoadClass int

// Road classes, from fastest to slowest.
const (
	ClassMotorway RoadClass = iota + 1
	ClassTrunk
	ClassPrimary
	ClassSecondary
	ClassTertiary
	ClassResidential
	ClassService
	ClassUnclassified
)

var roadClassNames = map[RoadClass]string{
	ClassMotorway:     "motorway",
	ClassTrunk:        "trunk",
	ClassPrimary:      "primary",
	ClassSecondary:    "secondary",
	ClassTertiary:     "tertiary",
	ClassResidential:  "residential",
	ClassService:      "service",
	ClassUnclassified: "unclassified",
}

// String implements fmt.Stringer.
func (c RoadClass) String() string {
	if s, ok := roadClassNames[c]; ok {
		return s
	}
	return fmt.Sprintf("RoadClass(%d)", int(c))
}

// ParseRoadClass maps an OSM highway tag value to a RoadClass. Unknown
// values map to ClassUnclassified; link roads map to their parent class.
func ParseRoadClass(s string) RoadClass {
	switch s {
	case "motorway", "motorway_link":
		return ClassMotorway
	case "trunk", "trunk_link":
		return ClassTrunk
	case "primary", "primary_link":
		return ClassPrimary
	case "secondary", "secondary_link":
		return ClassSecondary
	case "tertiary", "tertiary_link":
		return ClassTertiary
	case "residential", "living_street":
		return ClassResidential
	case "service":
		return ClassService
	default:
		return ClassUnclassified
	}
}

// classDefault holds per-class fallback attributes.
type classDefault struct {
	speedMS float64
	lanes   int
}

// Default speeds follow common US urban limits: 65/55/40/35/30/25/15 mph.
var classDefaults = map[RoadClass]classDefault{
	ClassMotorway:     {speedMS: 29.06, lanes: 3},
	ClassTrunk:        {speedMS: 24.59, lanes: 2},
	ClassPrimary:      {speedMS: 17.88, lanes: 2},
	ClassSecondary:    {speedMS: 15.65, lanes: 2},
	ClassTertiary:     {speedMS: 13.41, lanes: 1},
	ClassResidential:  {speedMS: 11.18, lanes: 1},
	ClassService:      {speedMS: 6.71, lanes: 1},
	ClassUnclassified: {speedMS: 13.41, lanes: 1},
}

// Road is the attribute bundle of one directed road segment.
type Road struct {
	// LengthM is the segment length in meters. Must be positive after
	// normalization.
	LengthM float64
	// SpeedMS is the speed limit in meters/second.
	SpeedMS float64
	// Lanes is the lane count of this direction.
	Lanes int
	// WidthM is the physical road width in meters.
	WidthM float64
	// Class is the coarse highway classification.
	Class RoadClass
	// Name is the street name, if known.
	Name string
	// Artificial marks connector segments created by AttachPOI, matching
	// the geodataframe attribute the paper sets.
	Artificial bool
	// OSMWayID is the source OSM way, when the road came from OSM data.
	OSMWayID int64
}

// normalize fills zero-valued attributes from class defaults so every road
// has a usable speed, lane count, and width.
func (r *Road) normalize() {
	if r.Class == 0 {
		r.Class = ClassUnclassified
	}
	def := classDefaults[r.Class]
	if r.SpeedMS <= 0 {
		r.SpeedMS = def.speedMS
	}
	if r.Lanes <= 0 {
		r.Lanes = def.lanes
	}
	if r.WidthM <= 0 {
		r.WidthM = float64(r.Lanes) * LaneWidthM
	}
	if r.LengthM <= 0 {
		r.LengthM = 1
	}
}

// TravelTimeS returns the seconds needed to traverse the segment at the
// speed limit (the paper's TIME weight, eq. 1).
func (r Road) TravelTimeS() float64 { return r.LengthM / r.SpeedMS }

// RemovalWidthCost returns the paper's WIDTH removal cost (eq. 2).
func (r Road) RemovalWidthCost() float64 { return r.WidthM / AvgCarWidthM }

// POI is a point of interest (the paper uses hospitals as attack
// destinations).
type POI struct {
	// Name identifies the POI ("Brigham and Women's Hospital").
	Name string
	// Kind is a free-form category ("hospital").
	Kind string
	// Loc is the geographic location, possibly off the road network.
	Loc geo.Point
	// Node is the network node the POI was attached to, or
	// graph.InvalidNode before attachment.
	Node graph.NodeID
}

// Network is a road network: a directed graph plus road attributes,
// intersection coordinates, and attached POIs. Create one with NewNetwork.
//
// Concurrency: construction and topology mutation (AddIntersection,
// AddRoad, AttachPOI, ...) are single-threaded, like the Graph they build.
// SetRoad and Snapshot are the exception — they synchronize against each
// other (see snapMu), because the city-shard registry re-weights a served
// network while snapshot readers are active.
type Network struct {
	g      *graph.Graph
	roads  []Road
	coords []geo.Point
	pois   []POI
	name   string

	// snapMu orders SetRoad against Snapshot: a SetRoad publishes the new
	// road attributes, bumps wgen, and drops the snapshot cache in one
	// critical section, and Snapshot freezes (reading the road slice
	// through the weight closure) in another — so a Snapshot call that
	// begins after a SetRoad returns can never hand back a snapshot with
	// the old weights, and the two can never race on the roads slice.
	snapMu sync.Mutex
	// wgen counts weight mutations (SetRoad calls). Together with the
	// graph's topology generation it keys "is this frozen image current":
	// graph.Snapshot.Valid covers topology, wgen covers weights.
	wgen uint64
	// snaps caches one frozen CSR snapshot per weight type (see Snapshot),
	// each with its potential memo (see Potential). Dropped on SetRoad — the one
	// mutation that changes weights without moving the graph's generation
	// counter; an entry whose snapshot a topology change invalidated is
	// replaced on its next use.
	snaps map[WeightType]*frozen
}

// NewNetwork returns an empty road network with the given display name.
func NewNetwork(name string) *Network {
	return &Network{g: graph.New(0), name: name}
}

// Name returns the network's display name (typically the city).
func (n *Network) Name() string { return n.name }

// Graph returns the underlying directed graph.
func (n *Network) Graph() *graph.Graph { return n.g }

// NumIntersections returns the node count.
func (n *Network) NumIntersections() int { return n.g.NumNodes() }

// NumSegments returns the directed road segment count, including disabled
// and permanently removed segments.
func (n *Network) NumSegments() int { return n.g.NumEdges() }

// AddIntersection adds a node at p.
func (n *Network) AddIntersection(p geo.Point) graph.NodeID {
	id := n.g.AddNode()
	n.coords = append(n.coords, p)
	return id
}

// Point returns the coordinate of node id.
func (n *Network) Point(id graph.NodeID) geo.Point { return n.coords[id] }

// ErrBadRoad flags road attributes that would poison shortest-path and
// cost computation: NaN or infinite values anywhere, or explicitly
// negative lengths, speeds, widths, or lane counts. Zero still means "use
// the class default". It wraps graph.ErrBadGraph so loaders and servers
// can match the whole bad-input class with one sentinel.
var ErrBadRoad = fmt.Errorf("%w: bad road attributes", graph.ErrBadGraph)

// validate rejects attribute values normalize cannot repair. NaN compares
// false against every threshold, so without these explicit checks a NaN
// length would sail through normalize's `<= 0` defaults and surface miles
// downstream as a silently wrong Dijkstra result.
func (r Road) validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"length_m", r.LengthM},
		{"speed_ms", r.SpeedMS},
		{"width_m", r.WidthM},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) || f.v < 0 {
			return fmt.Errorf("%w: %s is %v", ErrBadRoad, f.name, f.v)
		}
	}
	if r.Lanes < 0 {
		return fmt.Errorf("%w: lanes is %d", ErrBadRoad, r.Lanes)
	}
	return nil
}

// AddRoad adds a one-way road segment from -> to. Zero attribute fields are
// filled from class defaults; a zero LengthM is computed from the node
// coordinates. NaN, infinite, or negative attributes are rejected with
// ErrBadRoad — garbage is refused at load time, not discovered mid-attack.
func (n *Network) AddRoad(from, to graph.NodeID, r Road) (graph.EdgeID, error) {
	if err := r.validate(); err != nil {
		return graph.InvalidEdge, err
	}
	if r.LengthM <= 0 {
		if int(from) < len(n.coords) && int(to) < len(n.coords) {
			r.LengthM = geo.Haversine(n.coords[from], n.coords[to])
		}
	}
	// Degenerate coordinates (a NaN latitude from a corrupt extract) leak
	// into the computed length; catch them here where the road is named.
	if math.IsNaN(r.LengthM) || math.IsInf(r.LengthM, 0) {
		return graph.InvalidEdge, fmt.Errorf("%w: length computed from coordinates is %v", ErrBadRoad, r.LengthM)
	}
	r.normalize()
	e, err := n.g.AddEdge(from, to)
	if err != nil {
		return graph.InvalidEdge, err
	}
	n.roads = append(n.roads, r)
	return e, nil
}

// AddTwoWayRoad adds both directions of a road with identical attributes
// and returns the two edge IDs (from->to first).
func (n *Network) AddTwoWayRoad(a, b graph.NodeID, r Road) (graph.EdgeID, graph.EdgeID, error) {
	e1, err := n.AddRoad(a, b, r)
	if err != nil {
		return graph.InvalidEdge, graph.InvalidEdge, err
	}
	e2, err := n.AddRoad(b, a, r)
	if err != nil {
		return e1, graph.InvalidEdge, err
	}
	return e1, e2, nil
}

// Road returns the attributes of segment e.
func (n *Network) Road(e graph.EdgeID) Road { return n.roads[e] }

// SetRoad replaces the attributes of segment e (normalizing zero fields).
// Like AddRoad it rejects NaN/infinite/negative attributes, leaving the
// existing road untouched.
//
// SetRoad is safe against concurrent Snapshot callers: the new attributes,
// the weight-generation bump, and the snapshot-cache drop are published in
// one critical section, so once SetRoad returns no Snapshot call can hand
// out a frozen image with the old weights. It is NOT safe against
// concurrent readers of the live weight closures (Weight/Cost) — the
// registry layer serves reads exclusively from frozen snapshots for
// exactly this reason.
func (n *Network) SetRoad(e graph.EdgeID, r Road) error {
	if err := r.validate(); err != nil {
		return err
	}
	r.normalize()
	n.snapMu.Lock()
	n.roads[e] = r
	n.wgen++
	n.snaps = nil // materialized snapshot weights and the potential memos are now stale
	n.snapMu.Unlock()
	return nil
}

// WeightGeneration returns the weight-mutation counter: it advances on
// every SetRoad. Combined with Graph().Generation() (topology) it uniquely
// identifies the weight state a frozen snapshot or cached result was
// computed against.
func (n *Network) WeightGeneration() uint64 {
	n.snapMu.Lock()
	defer n.snapMu.Unlock()
	return n.wgen
}

// Router returns a fresh shortest-path router over the network's graph.
func (n *Network) Router() *graph.Router { return graph.NewRouter(n.g) }

// Snapshot returns a frozen CSR snapshot of the network's graph under the
// given weight type (see graph.Freeze), cached across calls: the pooled
// server networks and experiment workers reuse one snapshot for every
// attack on the same network instead of re-freezing per request, and a
// clone shares the arrays of the snapshot its source held when it was cut
// (see Clone). A snapshot invalidated by topology growth is rebuilt here;
// disabling and enabling segments (attack cuts, ResetDisabled) never
// invalidates it.
//
// Snapshot synchronizes with SetRoad (and other Snapshot callers): the
// freeze runs inside the same critical section that SetRoad publishes new
// attributes in, so the materialized weights are always a consistent
// post-SetRoad image, never a torn or stale one. Concurrent Snapshot with
// topology mutation remains unsupported, as on the underlying Graph.
func (n *Network) Snapshot(t WeightType) *graph.Snapshot {
	return n.frozenFor(t).snap
}

// frozenFor returns n's frozen image for t with its potential memo, freezing
// a new image (with an empty memo) when none is cached or the cached one
// is stale.
func (n *Network) frozenFor(t WeightType) *frozen {
	n.snapMu.Lock()
	defer n.snapMu.Unlock()
	if f, ok := n.snaps[t]; ok && f.snap.Valid() {
		return f
	}
	if n.snaps == nil {
		n.snaps = make(map[WeightType]*frozen)
	}
	f := newFrozen(graph.Freeze(n.g, n.Weight(t)))
	n.snaps[t] = f
	return f
}
