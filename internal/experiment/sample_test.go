package experiment

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"altroute/internal/citygen"
	"altroute/internal/core"
	"altroute/internal/geo"
	"altroute/internal/graph"
	"altroute/internal/roadnet"
)

// serialSampleUnits is SampleUnits as a one-draw-at-a-time loop: draw a
// source, compute p* with core.PStarByRank, accept or draw again. The
// parallel sampler must return exactly its units, in its order, with its
// error.
func serialSampleUnits(net *roadnet.Network, spec Spec) ([]Unit, error) {
	spec.fill()
	hospitals := net.POIsOfKind(citygen.KindHospital)
	if len(hospitals) == 0 {
		return nil, ErrNoHospitals
	}
	w := net.Weight(spec.WeightType)
	n := net.NumIntersections()
	rng := rand.New(rand.NewSource(spec.Seed ^ 0x5eed))

	var units []Unit
	for _, h := range hospitals {
		found := 0
		for attempt := 0; found < spec.SourcesPerHospital; attempt++ {
			if attempt > 80*spec.SourcesPerHospital {
				return units, fmt.Errorf("%w: hospital %q yielded %d/%d sources",
					ErrSampling, h.Name, found, spec.SourcesPerHospital)
			}
			src := graph.NodeID(rng.Intn(n))
			if src == h.Node {
				continue
			}
			pstar, err := core.PStarByRank(net.Graph(), src, h.Node, spec.PathRank, w)
			if err != nil {
				continue
			}
			units = append(units, Unit{Source: src, Dest: h.Node, Hospital: h.Name, PStar: pstar})
			found++
		}
	}
	return units, nil
}

// addIslandHospital attaches a hospital to a three-intersection island
// about a degree of latitude away from the city. No city source reaches
// it, and the island holds fewer simple paths to it than any rank the
// test asks for, so sampling for it always fails with ErrSampling.
func addIslandHospital(t *testing.T, net *roadnet.Network) {
	t.Helper()
	base := net.Point(0)
	var island []graph.NodeID
	for i := 0; i < 3; i++ {
		island = append(island, net.AddIntersection(geo.Point{Lat: base.Lat + 1 + 0.001*float64(i), Lon: base.Lon}))
	}
	for i := 1; i < len(island); i++ {
		if _, _, err := net.AddTwoWayRoad(island[i-1], island[i], roadnet.Road{Class: roadnet.ClassResidential}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := net.AttachPOI("Island Hospital", citygen.KindHospital, geo.Point{Lat: base.Lat + 1.0005, Lon: base.Lon + 0.0002}); err != nil {
		t.Fatal(err)
	}
}

// sameSampling fails the test unless the two samplings agree exactly:
// units in the same order with bit-identical p*, and the same error.
func sameSampling(t *testing.T, label string, got []Unit, gotErr error, want []Unit, wantErr error) {
	t.Helper()
	if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
		t.Fatalf("%s: error %v, want %v", label, gotErr, wantErr)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d units, want %d", label, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Source != w.Source || g.Dest != w.Dest || g.Hospital != w.Hospital {
			t.Fatalf("%s: unit %d is %d->%d (%s), want %d->%d (%s)", label, i, g.Source, g.Dest, g.Hospital, w.Source, w.Dest, w.Hospital)
		}
		if !g.PStar.SameEdges(w.PStar) || math.Float64bits(g.PStar.Length) != math.Float64bits(w.PStar.Length) {
			t.Fatalf("%s: unit %d p* differs", label, i)
		}
		for j, nd := range w.PStar.Nodes {
			if g.PStar.Nodes[j] != nd {
				t.Fatalf("%s: unit %d p* node %d differs", label, i, j)
			}
		}
	}
}

// TestSampleUnitsMatchesSerial checks the parallel sampler against the
// serial loop on Boston and Chicago at scale 0.1, with several worker
// counts: first with every hospital sampled in full, then with an island
// hospital appended that exhausts its attempts, so ErrSampling and its
// partial units must match too. Each hospital finishes with draws still
// in flight, so the carry-over of drawn values to the next hospital and
// the draw-order acceptance are both on the compared path.
func TestSampleUnitsMatchesSerial(t *testing.T) {
	for _, city := range []citygen.City{citygen.Boston, citygen.Chicago} {
		net, err := citygen.Build(city, 0.1, 1)
		if err != nil {
			t.Fatal(err)
		}
		spec := Spec{Net: net, WeightType: roadnet.WeightTime, Seed: 3, PathRank: 20, SourcesPerHospital: 5}
		for _, island := range []bool{false, true} {
			if island {
				addIslandHospital(t, net)
			}
			want, wantErr := serialSampleUnits(net, spec)
			if island != errors.Is(wantErr, ErrSampling) {
				t.Fatalf("%s island=%v: serial sampling error %v", city, island, wantErr)
			}
			for _, procs := range []int{2, 3, 4} {
				prev := runtime.GOMAXPROCS(procs)
				got, gotErr := SampleUnits(net, spec)
				runtime.GOMAXPROCS(prev)
				sameSampling(t, fmt.Sprintf("%s island=%v procs=%d", city, island, procs), got, gotErr, want, wantErr)
			}
		}
	}
}
