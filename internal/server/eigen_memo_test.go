package server

import (
	"net/http"
	"testing"

	"altroute/internal/citygen"
	"altroute/internal/core"
	"altroute/internal/graph"
	"altroute/internal/roadnet"
)

// TestGreedyEigAfterSetRoadMatchesUnscoredCity: GreedyEig requests served
// after a SetRoad run on pooled clones that share the master's eigenscore
// memo, which an earlier request filled. Their payloads must equal those
// of a server over an independently built city that was never scored and
// got the same SetRoad. The memo must survive the SetRoad: eigenscores
// depend on topology only.
func TestGreedyEigAfterSetRoadMatchesUnscoredCity(t *testing.T) {
	newServer := func() *Server {
		net, err := citygen.Build(citygen.Boston, 0.03, 11)
		if err != nil {
			t.Fatalf("citygen.Build: %v", err)
		}
		s, err := New(Config{Net: net})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		return s
	}
	warm := newServer()
	warmShard, _ := warm.Registry().Get("")
	master := warmShard.Net()

	// A source with a rank-6 route to the first hospital, and the first
	// edge of its shortest route: the road the SetRoad slows down.
	dest := master.POIsOfKind(citygen.KindHospital)[0].Node
	w := master.Weight(roadnet.WeightTime)
	var req AttackRequest
	slowed := graph.InvalidEdge
	for s := graph.NodeID(0); int(s) < master.NumIntersections() && slowed == graph.InvalidEdge; s += 7 {
		if _, err := core.PStarByRank(master.Graph(), s, dest, 6, w); err != nil {
			continue
		}
		sp, _ := graph.NewRouter(master.Graph()).ShortestPath(s, dest, w)
		req = AttackRequest{Source: int64(s), Dest: int64(dest), Rank: 6, Algorithm: "GreedyEig", Seed: 3, TimeoutMS: 30_000}
		slowed = sp.Edges[0]
	}
	if slowed == graph.InvalidEdge {
		t.Fatal("fixture city has no rank-6 source for the hospital")
	}

	for _, ct := range roadnet.CostTypes() {
		req.Cost = ct.String()
		if rec, _, _ := postAttack(t, warm, req); rec.Code != http.StatusOK {
			t.Fatalf("%s: warm-up request failed: %d", ct, rec.Code)
		}
	}
	memo := graph.SharedEdgeEigenScores(master.Graph())

	slowDown := func(s *Server) {
		shard, _ := s.Registry().Get("")
		road := shard.Net().Road(slowed)
		road.LengthM *= 5
		if err := shard.SetRoad(slowed, road); err != nil {
			t.Fatalf("SetRoad: %v", err)
		}
	}
	slowDown(warm)
	if after := graph.SharedEdgeEigenScores(master.Graph()); &after[0] != &memo[0] {
		t.Fatal("SetRoad dropped the master's eigenscore memo")
	}

	cuts := 0
	for _, ct := range roadnet.CostTypes() {
		req.Cost = ct.String()
		rec, got, _ := postAttack(t, warm, req)
		if rec.Code != http.StatusOK || got.Cached {
			t.Fatalf("%s: post-SetRoad request: status %d cached %v", ct, rec.Code, got.Cached)
		}
		// A fresh reference server per request: its city is never scored.
		cold := newServer()
		slowDown(cold)
		rec, want, _ := postAttack(t, cold, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: reference request failed: %d", ct, rec.Code)
		}
		samePayload(t, ct.String()+" GreedyEig after SetRoad", got, want)
		cuts += len(got.Removed)
	}
	if cuts == 0 {
		t.Fatal("no request cut anything; the fixture does not exercise the scores")
	}
}
