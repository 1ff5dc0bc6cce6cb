package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"altroute/internal/citygen"
	"altroute/internal/geo"
	"altroute/internal/graph"
	"altroute/internal/roadnet"
)

// gridNetwork builds a deterministic dim×dim street grid with two-way
// residential roads and one hospital in the far corner — small enough that
// a full batch grid runs in milliseconds, rich enough that rank-8
// alternative paths exist between opposite corners.
func gridNetwork(t testing.TB, dim int) *roadnet.Network {
	t.Helper()
	net := roadnet.NewNetwork("testgrid")
	ids := make([]graph.NodeID, dim*dim)
	for r := 0; r < dim; r++ {
		for c := 0; c < dim; c++ {
			ids[r*dim+c] = net.AddIntersection(geo.Point{
				Lat: 42.0 + float64(r)*0.001,
				Lon: -71.0 + float64(c)*0.001,
			})
		}
	}
	road := roadnet.Road{LengthM: 111, SpeedMS: 10, Lanes: 2, WidthM: 7, Class: roadnet.ClassResidential}
	for r := 0; r < dim; r++ {
		for c := 0; c < dim; c++ {
			if c+1 < dim {
				if _, _, err := net.AddTwoWayRoad(ids[r*dim+c], ids[r*dim+c+1], road); err != nil {
					t.Fatalf("AddTwoWayRoad: %v", err)
				}
			}
			if r+1 < dim {
				if _, _, err := net.AddTwoWayRoad(ids[r*dim+c], ids[(r+1)*dim+c], road); err != nil {
					t.Fatalf("AddTwoWayRoad: %v", err)
				}
			}
		}
	}
	if _, err := net.AttachPOI("Test General", citygen.KindHospital, net.Point(ids[dim*dim-1])); err != nil {
		t.Fatalf("AttachPOI: %v", err)
	}
	return net
}

// lineNetwork builds a 3-node path graph: exactly one simple route end to
// end, so any rank >= 2 is unavailable.
func lineNetwork(t testing.TB) *roadnet.Network {
	t.Helper()
	net := roadnet.NewNetwork("testline")
	road := roadnet.Road{LengthM: 111, SpeedMS: 10, Lanes: 2, WidthM: 7, Class: roadnet.ClassResidential}
	var prev graph.NodeID
	for i := 0; i < 3; i++ {
		id := net.AddIntersection(geo.Point{Lat: 42.0, Lon: -71.0 + float64(i)*0.001})
		if i > 0 {
			if _, _, err := net.AddTwoWayRoad(prev, id, road); err != nil {
				t.Fatalf("AddTwoWayRoad: %v", err)
			}
		}
		prev = id
	}
	return net
}

// newTestServer builds a Server over a fresh grid network, with cfg
// tweaked by mutate (which may be nil).
func newTestServer(t testing.TB, mutate func(*Config)) *Server {
	t.Helper()
	cfg := Config{Net: gridNetwork(t, 4)}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return s
}

// do runs one request through the server and decodes the JSON body into out
// (when out is non-nil).
func do(t testing.TB, s *Server, method, path string, body any, out any) *httptest.ResponseRecorder {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatalf("encode request: %v", err)
		}
	}
	req := httptest.NewRequest(method, path, &buf)
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if out != nil {
		if err := json.Unmarshal(w.Body.Bytes(), out); err != nil {
			t.Fatalf("decode %s %s response %q: %v", method, path, w.Body.String(), err)
		}
	}
	return w
}

func postAttack(t testing.TB, s *Server, req AttackRequest) (*httptest.ResponseRecorder, AttackResponse, ErrorResponse) {
	t.Helper()
	var raw json.RawMessage
	w := do(t, s, http.MethodPost, "/v1/attack", req, &raw)
	var ok AttackResponse
	var bad ErrorResponse
	if w.Code == http.StatusOK {
		if err := json.Unmarshal(raw, &ok); err != nil {
			t.Fatalf("decode attack response: %v", err)
		}
	} else {
		if err := json.Unmarshal(raw, &bad); err != nil {
			t.Fatalf("decode error response: %v", err)
		}
	}
	return w, ok, bad
}

// corner-to-corner attack request on the 4×4 grid.
func gridAttack() AttackRequest {
	return AttackRequest{Source: 0, Dest: 15, Rank: 4, Seed: 7, TimeoutMS: 30_000}
}

func TestHealthz(t *testing.T) {
	s := newTestServer(t, nil)
	w := do(t, s, http.MethodGet, "/healthz", nil, nil)
	if w.Code != http.StatusOK {
		t.Fatalf("healthz = %d, want 200", w.Code)
	}
}

func TestReadyzReportsLoadAndBreaker(t *testing.T) {
	s := newTestServer(t, nil)
	var resp readyzResponse
	if w := do(t, s, http.MethodGet, "/readyz", nil, &resp); w.Code != http.StatusOK {
		t.Fatalf("readyz = %d, want 200", w.Code)
	}
	if resp.Status != "ready" || resp.Breaker != "closed" {
		t.Fatalf("readyz = %+v, want ready/closed", resp)
	}
	if resp.CapacityUnits <= 0 {
		t.Fatalf("readyz capacity = %d, want > 0", resp.CapacityUnits)
	}
}

func TestAttackSuccess(t *testing.T) {
	s := newTestServer(t, nil)
	for _, alg := range []string{"", "GreedyEdge", "GreedyPathCover"} {
		req := gridAttack()
		req.Algorithm = alg
		w, resp, errResp := postAttack(t, s, req)
		if w.Code != http.StatusOK {
			t.Fatalf("alg %q: status %d, body %+v", alg, w.Code, errResp)
		}
		if len(resp.Removed) == 0 || resp.TotalCost <= 0 {
			t.Fatalf("alg %q: empty attack result %+v", alg, resp)
		}
		if resp.Degraded {
			t.Fatalf("alg %q: unexpectedly degraded: %s", alg, resp.DegradedReason)
		}
		if resp.Breaker != "closed" {
			t.Fatalf("alg %q: breaker %q, want closed", alg, resp.Breaker)
		}
	}
	// The default algorithm is the LP.
	_, resp, _ := postAttack(t, s, gridAttack())
	if resp.Algorithm != "LP-PathCover" {
		t.Fatalf("default algorithm = %q, want LP-PathCover", resp.Algorithm)
	}
}

func TestAttackDeterministicAcrossRequests(t *testing.T) {
	// Two identical requests over the pooled clones must produce identical
	// plans — pooling must not leak state between requests.
	s := newTestServer(t, nil)
	_, a, _ := postAttack(t, s, gridAttack())
	_, b, _ := postAttack(t, s, gridAttack())
	if a.TotalCost != b.TotalCost || len(a.Removed) != len(b.Removed) {
		t.Fatalf("same request, different plans: %+v vs %+v", a, b)
	}
	for i := range a.Removed {
		if a.Removed[i] != b.Removed[i] {
			t.Fatalf("same request, different cut: %v vs %v", a.Removed, b.Removed)
		}
	}
}

func TestAttackValidation(t *testing.T) {
	s := newTestServer(t, nil)
	cases := []struct {
		name string
		mut  func(*AttackRequest)
	}{
		{"unknown algorithm", func(r *AttackRequest) { r.Algorithm = "Simplex2000" }},
		{"unknown weight", func(r *AttackRequest) { r.Weight = "vibes" }},
		{"unknown cost", func(r *AttackRequest) { r.Cost = "vibes" }},
		{"source out of range", func(r *AttackRequest) { r.Source = 10_000 }},
		{"negative dest", func(r *AttackRequest) { r.Dest = -1 }},
		{"source equals dest", func(r *AttackRequest) { r.Dest = r.Source }},
		{"rank zero", func(r *AttackRequest) { r.Rank = 0 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req := gridAttack()
			tc.mut(&req)
			w, _, errResp := postAttack(t, s, req)
			if w.Code != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400 (%+v)", w.Code, errResp)
			}
			if errResp.Kind != "bad_request" {
				t.Fatalf("kind = %q, want bad_request", errResp.Kind)
			}
		})
	}
	// Malformed JSON is a 400 too, not a panic.
	req := httptest.NewRequest(http.MethodPost, "/v1/attack", bytes.NewBufferString("{"))
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("malformed body: status = %d, want 400", w.Code)
	}
}

func TestAttackRankUnavailable(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.Net = lineNetwork(t) })
	w, _, errResp := postAttack(t, s, AttackRequest{Source: 0, Dest: 2, Rank: 2})
	if w.Code != http.StatusUnprocessableEntity {
		t.Fatalf("status = %d, want 422 (%+v)", w.Code, errResp)
	}
	if errResp.Kind != "rank" {
		t.Fatalf("kind = %q, want rank", errResp.Kind)
	}
}

func TestAttackLoadShedding(t *testing.T) {
	// With one-relaxation units every request is huge; a per-request budget
	// of 1 unit sheds it before it ever queues.
	s := newTestServer(t, func(c *Config) {
		c.UnitWork = 1
		c.MaxRequestUnits = 1
		c.Capacity = 1 << 20
	})
	w, _, errResp := postAttack(t, s, gridAttack())
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", w.Code)
	}
	if errResp.Kind != "shed" {
		t.Fatalf("kind = %q, want shed", errResp.Kind)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Fatal("shed response missing Retry-After")
	}
}

func TestAttackOverCapacityIsClampedNotShed(t *testing.T) {
	// Capacity 8 with MaxRequestUnits at its default, and a unit size that
	// makes the request 26 units: the paper-scale Chicago case. The
	// estimate clamps to the capacity, so the request is admitted and
	// served instead of being shed.
	net := gridNetwork(t, 4)
	req := gridAttack()
	work := EstimateWork(req.Rank, net.NumIntersections(), net.Graph().NumEdges())
	s := newTestServer(t, func(c *Config) {
		c.Net = net
		c.Capacity = 8
		c.UnitWork = work / 25.5
	})
	if got := estimateUnits(work, s.cfg.UnitWork); got != 26 {
		t.Fatalf("estimate = %d units, want 26", got)
	}
	if est, charge := s.attackUnits(net, req.Rank); est != 26 || charge != 8 {
		t.Fatalf("attackUnits = (%d, %d), want (26, 8)", est, charge)
	}
	w, resp, errResp := postAttack(t, s, req)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d, want 200 (%+v)", w.Code, errResp)
	}
	if len(resp.Removed) == 0 {
		t.Fatal("admitted attack removed no edges")
	}
	if used := s.adm.Used(); used != 0 {
		t.Fatalf("admission still holds %d units after the request", used)
	}
}

func TestAttackQueueFullAndAdmissionTimeout(t *testing.T) {
	s := newTestServer(t, func(c *Config) {
		c.Capacity = 1
		c.MaxQueue = 1
	})
	// Occupy the whole budget so requests queue.
	if err := s.adm.Acquire(t.Context(), 1); err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	defer s.adm.Release(1)

	// First request queues and runs out its (short) deadline in the queue.
	type result struct {
		code int
		kind string
	}
	timedOut := make(chan result, 1)
	go func() {
		req := gridAttack()
		req.TimeoutMS = 60_000 // parked in the queue for the whole test
		w, _, errResp := postAttack(t, s, req)
		timedOut <- result{w.Code, errResp.Kind}
	}()
	waitFor(t, func() bool { return s.adm.Queued() == 1 })

	// Second request finds the queue full: immediate 503 + Retry-After.
	// It must differ from the parked request (here: by seed) — an
	// identical request would coalesce onto the queued computation
	// instead of needing its own queue slot.
	full := gridAttack()
	full.Seed = 99
	w, _, errResp := postAttack(t, s, full)
	if w.Code != http.StatusServiceUnavailable || errResp.Kind != "queue_full" {
		t.Fatalf("status/kind = %d/%q, want 503/queue_full", w.Code, errResp.Kind)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Fatal("queue_full response missing Retry-After")
	}

	// Readyz reflects the backlog.
	var ready readyzResponse
	do(t, s, http.MethodGet, "/readyz", nil, &ready)
	if ready.QueuedWaiters != 1 || ready.UsedUnits != 1 {
		t.Fatalf("readyz = %+v, want 1 queued / 1 used", ready)
	}

	// Release the budget: the queued request is granted and completes.
	s.adm.Release(1)
	select {
	case res := <-timedOut:
		if res.code != http.StatusOK {
			t.Fatalf("queued request finished %d (%s), want 200", res.code, res.kind)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("queued request never finished")
	}
	if err := s.adm.Acquire(t.Context(), 1); err != nil { // rebalance the deferred Release
		t.Fatalf("re-Acquire: %v", err)
	}
}

func TestAttackQueueWaitConsumesDeadline(t *testing.T) {
	s := newTestServer(t, func(c *Config) {
		c.Capacity = 1
		c.MaxQueue = 1
	})
	if err := s.adm.Acquire(t.Context(), 1); err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	defer s.adm.Release(1)

	req := gridAttack()
	req.TimeoutMS = 50
	w, _, errResp := postAttack(t, s, req)
	if w.Code != http.StatusServiceUnavailable || errResp.Kind != "admission_timeout" {
		t.Fatalf("status/kind = %d/%q, want 503/admission_timeout", w.Code, errResp.Kind)
	}
}

func TestDrainGateRejectsNewWork(t *testing.T) {
	s := newTestServer(t, nil)
	s.BeginDrain()

	w, _, errResp := postAttack(t, s, gridAttack())
	if w.Code != http.StatusServiceUnavailable || errResp.Kind != "draining" {
		t.Fatalf("status/kind = %d/%q, want 503/draining", w.Code, errResp.Kind)
	}

	// Health answers while draining; readyz flips to 503/draining.
	if w := do(t, s, http.MethodGet, "/healthz", nil, nil); w.Code != http.StatusOK {
		t.Fatalf("healthz while draining = %d, want 200", w.Code)
	}
	var ready readyzResponse
	if w := do(t, s, http.MethodGet, "/readyz", nil, &ready); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining = %d, want 503", w.Code)
	}
	if ready.Status != "draining" {
		t.Fatalf("readyz status = %q, want draining", ready.Status)
	}

	// With nothing in flight Drain returns immediately and stays clean.
	if err := s.Drain(time.Second); err != nil {
		t.Fatalf("Drain: %v", err)
	}
}

func TestTimeoutClamping(t *testing.T) {
	s := newTestServer(t, func(c *Config) {
		c.DefaultTimeout = 7 * time.Second
		c.MaxTimeout = 10 * time.Second
	})
	if d := s.timeout(0); d != 7*time.Second {
		t.Fatalf("timeout(0) = %v, want default 7s", d)
	}
	if d := s.timeout(3_000); d != 3*time.Second {
		t.Fatalf("timeout(3000) = %v, want 3s", d)
	}
	if d := s.timeout(60_000); d != 10*time.Second {
		t.Fatalf("timeout(60000) = %v, want clamped 10s", d)
	}
}

func TestNewRejectsBadNetwork(t *testing.T) {
	// roadnet.AddRoad/SetRoad reject NaN and negative attributes outright,
	// but a derived weight can still overflow (here a subnormal speed
	// makes TravelTime infinite). New's startup validation is the backstop.
	net := lineNetwork(t)
	road := net.Road(0)
	road.SpeedMS = 1e-310
	if err := net.SetRoad(0, road); err != nil {
		t.Fatalf("SetRoad: %v", err)
	}
	_, err := New(Config{Net: net})
	if err == nil {
		t.Fatal("New accepted a network with an infinite travel-time weight")
	}
	if !errors.Is(err, graph.ErrBadGraph) {
		t.Fatalf("New error = %v, want graph.ErrBadGraph", err)
	}
}
