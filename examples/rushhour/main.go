// Rush-hour multi-victim attack: combine the coordinated multi-victim
// forcing from §II-A ("coerce multiple drivers to take a chosen suboptimal
// alternative route") with the congestion model — one shared set of road
// blockages redirects several commuter flows at once, and the BPR traffic
// assignment quantifies the city-wide vehicle-hours the attack adds.
//
//	go run ./examples/rushhour [-seed N]
package main

import (
	"flag"
	"fmt"
	"log"

	"altroute"
)

func main() {
	seed := flag.Int64("seed", 21, "seed for city generation and the attack")
	flag.Parse()
	net, err := altroute.BuildCity(altroute.LosAngeles, 0.02, *seed)
	if err != nil {
		log.Fatal(err)
	}
	g := net.Graph()
	w := net.Weight(altroute.WeightTime)
	fmt.Printf("%s: %d intersections, %d segments\n",
		net.Name(), net.NumIntersections(), net.NumSegments())

	// Three commuter flows: everyone heads downtown (hospital 0 stands in
	// for the business district) from three districts (hospitals 1-3).
	pois := net.POIsOfKind(altroute.KindHospital)
	downtown := pois[0].Node

	var victims []altroute.VictimSpec
	var demands []altroute.TrafficDemand
	for i := 1; i < 4; i++ {
		src := pois[i].Node
		pstar, err := altroute.PStarByRank(g, src, downtown, 6, w)
		if err != nil {
			log.Fatalf("flow %d: %v", i, err)
		}
		victims = append(victims, altroute.VictimSpec{Source: src, Dest: downtown, PStar: pstar})
		demands = append(demands, altroute.TrafficDemand{Source: src, Dest: downtown, VehiclesPerHour: 1200})
		best, _ := altroute.NewRouter(g).ShortestPath(src, downtown, w)
		fmt.Printf("flow %d: %s -> downtown, optimal %.0fs, forced alternative %.0fs (+%.0f%%)\n",
			i, pois[i].Name, best.Length, pstar.Length, (pstar.Length-best.Length)/best.Length*100)
	}

	// One shared cut forcing all three flows simultaneously.
	res, err := altroute.AttackMulti(altroute.AlgGreedyPathCover, altroute.MultiProblem{
		G: g, Victims: victims, Weight: w, Cost: net.Cost(altroute.CostLanes),
	}, altroute.Options{Seed: *seed})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nshared attack plan: %d blockages, cost %.0f lane-blockages, %d constraint paths, %s\n",
		len(res.Removed), res.TotalCost, res.ConstraintPaths, res.Runtime)

	// Verify every flow is forced.
	altroute.Apply(g, res.Removed)
	r := altroute.NewRouter(g)
	r.UseSnapshot(net.Snapshot(altroute.WeightTime)) // one freeze for every query below
	forced := 0
	for _, v := range victims {
		if p, ok := r.ShortestPath(v.Source, v.Dest, w); ok && p.SameEdges(v.PStar) {
			forced++
		}
	}
	altroute.Restore(g, res.Removed)
	fmt.Printf("flows forced onto their alternative route: %d/%d\n", forced, len(victims))

	// City-wide congestion impact of the blockages at rush hour.
	_, _, extra, stranded, err := altroute.TrafficAttackImpact(net, demands, res.Removed, 6)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("rush-hour impact: +%.0f vehicle-seconds of system travel time per hour", extra)
	if stranded > 0 {
		fmt.Printf(", %.0f veh/h stranded", stranded)
	}
	fmt.Println()
}
