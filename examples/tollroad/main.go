// Toll-road forcing (paper §II-A: "force victim vehicles onto a chosen
// road segment, such as a toll road"): pick two popular locations and a
// toll segment off the natural route, build the best route that crosses
// the toll segment, force it with the core attack, and verify with the
// live-rerouting victim simulator that every driver now pays the toll —
// quantifying the delay the attacker inflicts.
//
//	go run ./examples/tollroad [-seed N]
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"

	"altroute"
)

func main() {
	seed := flag.Int64("seed", 7, "seed for city generation, toll-segment choice and the attack")
	flag.Parse()
	net, err := altroute.BuildCity(altroute.Chicago, 0.04, *seed)
	if err != nil {
		log.Fatal(err)
	}
	g := net.Graph()
	w := net.Weight(altroute.WeightTime)
	fmt.Printf("%s: %d intersections, %d segments\n",
		net.Name(), net.NumIntersections(), net.NumSegments())

	// Two "popular locations": the first two hospitals stand in for, say,
	// a stadium and an airport.
	pois := net.POIsOfKind(altroute.KindHospital)
	source, dest := pois[0].Node, pois[1].Node
	fmt.Printf("popular trip: %s -> %s\n", pois[0].Name, pois[1].Name)

	natural, ok := altroute.NewRouter(g).ShortestPath(source, dest, w)
	if !ok {
		log.Fatal("endpoints disconnected")
	}

	// The "toll road": a random arterial segment that the natural route
	// does not use.
	rng := rand.New(rand.NewSource(*seed))
	var toll altroute.EdgeID = -1
	for tries := 0; tries < 10000; tries++ {
		e := altroute.EdgeID(rng.Intn(net.NumSegments()))
		if g.EdgeDisabled(e) || natural.HasEdge(e) || net.Road(e).Artificial {
			continue
		}
		if p, err := altroute.BuildViaPath(g, source, dest, e, w); err == nil && !p.SameEdges(natural) {
			toll = e
			break
		}
	}
	if toll < 0 {
		log.Fatal("no usable toll segment found")
	}
	arc := g.Arc(toll)
	fmt.Printf("toll segment: edge %d (%d -> %d, %.0f m)\n", toll, arc.From, arc.To, net.Road(toll).LengthM)

	pstar, err := altroute.BuildViaPath(g, source, dest, toll, w)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("natural route: %.1f s | toll route p*: %.1f s (+%.1f%%)\n",
		natural.Length, pstar.Length, (pstar.Length-natural.Length)/natural.Length*100)

	problem := altroute.Problem{
		G: g, Source: source, Dest: dest, PStar: pstar,
		Weight: w, Cost: net.Cost(altroute.CostUniform),
	}
	res, err := altroute.Attack(altroute.AlgGreedyPathCover, problem, altroute.Options{Seed: *seed})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("attack: %d blocked segments (cost %.0f) computed in %s\n",
		len(res.Removed), res.TotalCost, res.Runtime)

	// Simulate a fleet of 20 drivers making the popular trip, with the
	// blockages going up at t=0.
	var fleet []altroute.Vehicle
	for i := 0; i < 20; i++ {
		fleet = append(fleet, altroute.Vehicle{
			ID: i, Source: source, Dest: dest, DepartS: float64(i * 30),
		})
	}
	var blocks []altroute.Blockage
	for _, e := range res.Removed {
		blocks = append(blocks, altroute.Blockage{Edge: e, AtS: 0})
	}
	baseline, attacked, delay, err := altroute.CompareAttack(altroute.SimConfig{
		Net: net, Vehicles: fleet, Blockages: blocks,
	})
	if err != nil {
		log.Fatal(err)
	}

	paying := 0
	altroute.Apply(g, res.Removed)
	r := altroute.NewRouter(g)
	r.UseSnapshot(net.Snapshot(altroute.WeightTime)) // one freeze for every query below
	for range fleet {
		p, _ := r.ShortestPath(source, dest, w)
		if p.HasEdge(toll) {
			paying++
		}
	}
	altroute.Restore(g, res.Removed)

	fmt.Printf("fleet of %d: %d arrived before attack, %d after\n",
		len(fleet), baseline.ArrivedCount, attacked.ArrivedCount)
	fmt.Printf("drivers routed over the toll segment after the attack: %d/%d\n", paying, len(fleet))
	fmt.Printf("total delay inflicted: %.1f s (%.1f s per driver)\n",
		delay, delay/float64(len(fleet)))
}
