// Package server exposes the attack pipeline as a long-running HTTP/JSON
// service. Robustness is the design center, layered on the PR 2
// cancellation substrate (core.RunCtx):
//
//   - a bounded admission queue with per-request deadlines propagated into
//     the pipeline — when the queue is full the request is rejected with
//     Retry-After instead of piling up goroutines;
//   - load shedding by cheap cost estimation (estimated Yen work from the
//     requested path rank and the graph size) under a configurable
//     concurrency budget;
//   - a circuit breaker around LP-PathCover that trips on consecutive
//     ErrTimeout/ErrPanic outcomes and reroutes traffic to GreedyPathCover
//     (surfaced as Degraded results) while half-open probes test recovery;
//   - per-request panic isolation reusing the core.ErrPanic sentinel, so
//     one poisoned graph query costs one 500 response, never the process;
//   - graceful drain: stop admitting, cancel in-flight batches at unit
//     granularity so their JSONL checkpoints are flushed and resumable,
//     then return.
//
// Every attack runs on a pooled clone of the configured network, because
// the attack algorithms disable edges transactionally and must not share a
// graph across requests. Clones returned to the pool are reset, so even a
// panic that unwound mid-transaction cannot leak disabled edges into the
// next request.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"time"

	"altroute/internal/audit"
	"altroute/internal/core"
	"altroute/internal/experiment"
	"altroute/internal/faultinject"
	"altroute/internal/graph"
	"altroute/internal/registry"
	"altroute/internal/roadnet"
)

// Config configures a Server. Net is required; every other field has a
// default noted on it.
type Config struct {
	// Net is the street network served as the single (default) city. The
	// server validates its weights and costs at construction
	// (graph.ErrBadGraph on garbage). Ignored when Registry is set.
	Net *roadnet.Network
	// Registry, when non-nil, serves multiple preloaded cities: requests
	// route by their "city" field, with the registry's default shard
	// answering requests that name none. Exactly one of Net and Registry
	// must be set.
	Registry *registry.Registry
	// CacheBytes bounds the generation-keyed result cache (and the Yen
	// path-set cache, at a quarter of this budget). Default 64 MiB;
	// negative disables caching — every request takes the cold path.
	CacheBytes int64
	// Capacity is the concurrency budget in admission units (one unit ≈
	// UnitWork edge relaxations). Default 4 × GOMAXPROCS.
	Capacity int
	// MaxQueue bounds the admission wait queue; requests beyond it are
	// rejected with 503 + Retry-After. Default 32.
	MaxQueue int
	// MaxRequestUnits sheds any single attack whose estimated cost
	// exceeds it. Zero (the default) sheds none: an estimate above
	// Capacity is clamped to Capacity, as a batch's is, so a request may
	// fill the whole budget and then runs with it to itself.
	MaxRequestUnits int
	// UnitWork is the estimated edge relaxations per admission unit.
	// Default 2e6.
	UnitWork float64
	// DefaultTimeout is applied when a request carries no timeout_ms.
	// Default 30s.
	DefaultTimeout time.Duration
	// MaxTimeout caps client-supplied deadlines. Default 5m.
	MaxTimeout time.Duration
	// RetryAfterS is the Retry-After hint on 503 responses. Default 1.
	RetryAfterS int
	// Breaker tunes the LP-PathCover circuit breaker.
	Breaker BreakerConfig
	// CheckpointDir, when non-empty, enables batch checkpoint journals:
	// a /v1/batch request with an id journals to CheckpointDir/<id>.jsonl
	// and resumes from it after a drain or crash.
	CheckpointDir string
	// Scale is recorded in batch checkpoint headers so a journal written
	// at one network scale cannot be replayed at another. Default 1.
	Scale float64
	// AuditDir, when non-empty, enables the tamper-evident attack-audit
	// ledger: every served /v1/attack result and every freshly computed
	// /v1/batch unit is hash-chained into AuditDir/ledger.jsonl, and
	// GET /v1/audit/{seq}/proof serves offline-verifiable inclusion
	// proofs. A ledger whose chain fails verification at startup puts the
	// server in refuse mode: health endpoints explain, work is rejected.
	AuditDir string
	// AuditFlushEvery and AuditFlushRecords tune the ledger's group
	// commit (defaults 100ms / 64 records); AuditSyncEachRecord switches
	// to the per-record-fsync baseline.
	AuditFlushEvery     time.Duration
	AuditFlushRecords   int
	AuditSyncEachRecord bool
	// AuditRotateBytes and AuditCompactKeep bound the ledger for
	// unbounded uptime: the active file rotates into an immutable sealed
	// segment at the first seal boundary past AuditRotateBytes, and when
	// more than AuditCompactKeep segments exist the oldest compact into
	// a Merkle-checkpoint stub. Zero disables each (single-file ledger /
	// no compaction).
	AuditRotateBytes int64
	AuditCompactKeep int
	// Injector, when non-nil, is attached to every request context for
	// chaos testing.
	Injector *faultinject.Injector

	clock func() time.Time // test hook for the breaker cooldown
}

func (c *Config) fill() {
	if c.Capacity <= 0 {
		c.Capacity = 4 * runtime.GOMAXPROCS(0)
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 32
	}
	if c.UnitWork <= 0 {
		c.UnitWork = 2e6
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 5 * time.Minute
	}
	if c.RetryAfterS <= 0 {
		c.RetryAfterS = 1
	}
	if c.Scale <= 0 {
		c.Scale = 1
	}
	if c.CacheBytes == 0 {
		c.CacheBytes = 64 << 20
	}
	if c.CacheBytes < 0 {
		c.CacheBytes = 0 // explicit opt-out: zero-capacity caches never store
	}
}

// gate tracks in-flight requests and flips to draining atomically, so
// drain can wait for a quiesced server without racing new admissions.
type gate struct {
	mu       sync.Mutex
	draining bool
	n        int
	idle     chan struct{}
}

func newGate() *gate { return &gate{idle: make(chan struct{})} }

// enter registers a request; false means the server is draining.
func (g *gate) enter() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.draining {
		return false
	}
	g.n++
	return true
}

// exit deregisters a request.
func (g *gate) exit() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.n--
	g.maybeIdle()
}

// drain stops admissions and returns a channel closed once no requests
// remain in flight. Idempotent.
func (g *gate) drain() <-chan struct{} {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.draining = true
	g.maybeIdle()
	return g.idle
}

func (g *gate) isDraining() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.draining
}

// maybeIdle closes idle when draining and quiesced. Callers hold g.mu.
func (g *gate) maybeIdle() {
	if g.draining && g.n <= 0 {
		select {
		case <-g.idle:
		default:
			close(g.idle)
		}
	}
}

// Server is the attack service. Create one with New; it implements
// http.Handler.
type Server struct {
	cfg  Config
	adm  *admission
	brk  *Breaker
	gate *gate
	mux  *http.ServeMux
	reg  *registry.Registry

	// results caches full attack outcomes and pathsets caches Yen path
	// sets, both keyed by shard generation; flight coalesces concurrent
	// identical cold-path computations into one execution.
	results  *registry.Cache[attackKey, attackOutcome]
	pathsets *registry.Cache[pathsetKey, []graph.Path]
	flight   *registry.Group[attackKey, attackOutcome]

	// testHookBeforeCache, when set, runs after a computation finishes and
	// before its generation re-check — the window a SetRoad can race into.
	testHookBeforeCache func()

	// drainCtx is cancelled (with ErrDraining) when drain begins; batch
	// runs and coalesced computations derive their cancellation from it so
	// they checkpoint and stop at unit granularity.
	drainCtx  context.Context
	stopDrain context.CancelCauseFunc

	batchMu sync.Mutex
	batches map[string]bool // active checkpoint ids, to serialize journals

	// ledger is the tamper-evident audit ledger (nil when disabled).
	// auditErr is set instead when the ledger's chain failed verification
	// at startup: the server constructs — so health endpoints can explain
	// — but refuses all attack work until the operator intervenes.
	ledger   *audit.Ledger
	auditErr error
}

// New validates cfg and returns a ready Server. The network's weight and
// cost functions are checked edge-by-edge up front: a server must never
// trust a loaded graph, and a NaN that slips into Dijkstra poisons every
// result silently.
func New(cfg Config) (*Server, error) {
	if cfg.Net == nil && cfg.Registry == nil {
		return nil, errors.New("server: Config.Net or Config.Registry is required")
	}
	cfg.fill()
	reg := cfg.Registry
	if reg == nil {
		// Single-city back-compat: wrap Net in a one-shard registry. The
		// shard preloads its snapshots and hospital potentials eagerly —
		// same startup cost the first requests used to pay.
		if err := validateNetwork(cfg.Net); err != nil {
			return nil, err
		}
		shard, err := registry.NewShard(context.Background(), "", cfg.Net, cfg.Capacity)
		if err != nil {
			return nil, err
		}
		reg = registry.NewRegistry()
		if err := reg.Add(shard); err != nil {
			return nil, err
		}
	} else {
		if len(reg.Shards()) == 0 {
			return nil, errors.New("server: Config.Registry has no shards")
		}
		for _, shard := range reg.Shards() {
			if err := validateNetwork(shard.Net()); err != nil {
				return nil, fmt.Errorf("city %s: %w", shard.Name(), err)
			}
		}
	}
	drainCtx, stopDrain := context.WithCancelCause(context.Background())
	s := &Server{
		cfg:       cfg,
		adm:       newAdmission(cfg.Capacity, cfg.MaxQueue),
		brk:       NewBreaker(cfg.Breaker, cfg.clock),
		gate:      newGate(),
		mux:       http.NewServeMux(),
		reg:       reg,
		results:   registry.NewCache[attackKey, attackOutcome](cfg.CacheBytes),
		pathsets:  registry.NewCache[pathsetKey, []graph.Path](cfg.CacheBytes / 4),
		flight:    &registry.Group[attackKey, attackOutcome]{},
		drainCtx:  drainCtx,
		stopDrain: stopDrain,
		batches:   map[string]bool{},
	}
	if cfg.AuditDir != "" {
		ledger, err := audit.Open(audit.Config{
			Dir:            cfg.AuditDir,
			FlushEvery:     cfg.AuditFlushEvery,
			FlushRecords:   cfg.AuditFlushRecords,
			SyncEachRecord: cfg.AuditSyncEachRecord,
			RotateBytes:    cfg.AuditRotateBytes,
			CompactKeep:    cfg.AuditCompactKeep,
			Injector:       cfg.Injector,
		})
		switch {
		case errors.Is(err, audit.ErrChainBroken):
			// Refuse mode: the server comes up so /healthz and /readyz can
			// name the broken record, but no attack work is served over a
			// tampered ledger.
			s.auditErr = err
		case err != nil:
			return nil, err
		default:
			s.ledger = ledger
		}
	}
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("POST /v1/attack", s.guarded(s.handleAttack))
	s.mux.HandleFunc("POST /v1/batch", s.guarded(s.handleBatch))
	// The proof endpoint is read-only and bypasses the drain gate: clients
	// must be able to verify history while the server refuses new work.
	s.mux.HandleFunc("GET /v1/audit/{seq}/proof", s.handleAuditProof)
	return s, nil
}

// validateNetwork checks every weight and cost model on every edge.
func validateNetwork(net *roadnet.Network) error {
	g := net.Graph()
	for _, wt := range roadnet.WeightTypes() {
		if err := g.ValidateWeights(net.Weight(wt)); err != nil {
			return fmt.Errorf("server: weight %s: %w", wt, err)
		}
	}
	for _, ct := range roadnet.CostTypes() {
		if err := g.ValidateWeights(net.Cost(ct)); err != nil {
			return fmt.Errorf("server: cost %s: %w", ct, err)
		}
	}
	return nil
}

// ServeHTTP implements http.Handler with request-level panic isolation: a
// panic that escapes a handler (or is injected by the chaos suite) is
// recovered into a structured 500, never a dead process.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	defer func() {
		if rec := recover(); rec != nil {
			err := fmt.Errorf("%w: %v\n%s", core.ErrPanic, rec, debug.Stack())
			s.writeError(w, http.StatusInternalServerError, "panic", err)
		}
	}()
	s.mux.ServeHTTP(w, r)
}

// guarded wraps a work handler with the drain gate: requests arriving
// after drain began are rejected, and in-flight ones are counted so Drain
// can wait for quiescence. Health endpoints bypass the gate — they must
// answer while draining.
func (s *Server) guarded(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if !s.gate.enter() {
			s.writeError(w, http.StatusServiceUnavailable, "draining", ErrDraining)
			return
		}
		defer s.gate.exit()
		if kind, err := s.auditRefusal(); err != nil {
			s.writeError(w, http.StatusServiceUnavailable, kind, err)
			return
		}
		h(w, r)
	}
}

// auditRefusal reports why attack work must be refused on the ledger's
// account: a chain that failed verification at startup, or a ledger
// poisoned by a write/fsync failure (results the service cannot audit, it
// does not serve).
func (s *Server) auditRefusal() (string, error) {
	if s.auditErr != nil {
		return "audit_chain_broken", s.auditErr
	}
	if s.ledger != nil {
		if err := s.ledger.Err(); err != nil {
			return "audit_failed", err
		}
	}
	return "", nil
}

// BeginDrain stops admitting work and cancels in-flight batch contexts so
// they checkpoint and return partial results. Idempotent; it does not
// wait — use Drain for the full stop-admit/quiesce sequence.
func (s *Server) BeginDrain() {
	s.stopDrain(ErrDraining)
	s.gate.drain()
}

// Drain performs the graceful shutdown sequence: stop admitting, cancel
// batch contexts (flushing their checkpoints), and wait up to grace for
// in-flight requests to finish. It returns nil on a clean quiesce and an
// error when the grace period expired with requests still running.
func (s *Server) Drain(grace time.Duration) error {
	s.BeginDrain()
	select {
	case <-s.gate.drain():
		return nil
	case <-time.After(grace):
		return fmt.Errorf("server: drain grace %v expired with requests in flight", grace)
	}
}

// Draining reports whether drain has begun.
func (s *Server) Draining() bool { return s.gate.isDraining() }

// Breaker exposes the LP circuit breaker (for stats and tests).
func (s *Server) Breaker() *Breaker { return s.brk }

// Registry exposes the city-shard registry (for stats, tests, and
// operational mutation via Shard.SetRoad).
func (s *Server) Registry() *registry.Registry { return s.reg }

// Ledger exposes the audit ledger (nil when auditing is disabled or the
// server is in chain-broken refuse mode). cmd/serve closes it after the
// drain so the unsealed tail gets its final group commit.
func (s *Server) Ledger() *audit.Ledger { return s.ledger }

// AuditErr reports the startup chain verification failure that put the
// server in refuse mode (nil when the chain verified or auditing is
// disabled). cmd/serve surfaces it at startup so the operator sees why
// every work request will 503.
func (s *Server) AuditErr() error { return s.auditErr }

// --- health -----------------------------------------------------------

// healthzResponse is the /healthz body: liveness plus the cache,
// coalescing, and per-city stats that tell an operator whether the hot
// path is actually hot.
type healthzResponse struct {
	Status       string                `json:"status"`
	Cities       []registry.ShardStats `json:"cities"`
	ResultCache  registry.CacheStats   `json:"result_cache"`
	PathsetCache registry.CacheStats   `json:"pathset_cache"`
	Coalescing   registry.GroupStats   `json:"coalescing"`
	// Audit carries the ledger counters (chain heads, sealed batches,
	// pending tail, segment/compaction bounds, fsync coalescing ratio,
	// last group-commit latency) when auditing is enabled — or just the
	// startup chain error in refuse mode.
	Audit *audit.Stats `json:"audit,omitempty"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	resp := healthzResponse{
		Status:       "ok",
		ResultCache:  s.results.Stats(),
		PathsetCache: s.pathsets.Stats(),
		Coalescing:   s.flight.Stats(),
	}
	for _, shard := range s.reg.Shards() {
		resp.Cities = append(resp.Cities, shard.Stats())
	}
	switch {
	case s.ledger != nil:
		st := s.ledger.Stats()
		resp.Audit = &st
	case s.auditErr != nil:
		resp.Audit = &audit.Stats{Error: s.auditErr.Error()}
	}
	writeJSON(w, http.StatusOK, resp)
}

// readyzResponse is the /readyz body: readiness plus the load and breaker
// stats an operator needs to interpret a 503.
type readyzResponse struct {
	Status        string `json:"status"`
	Breaker       string `json:"breaker"`
	BreakerTrips  int    `json:"breaker_trips"`
	QueuedWaiters int    `json:"queued_waiters"`
	UsedUnits     int    `json:"used_units"`
	CapacityUnits int    `json:"capacity_units"`
	// Audit is "ok" when the ledger is healthy, "audit_chain_broken" or
	// "audit_failed" when it is refusing work, and empty when disabled.
	Audit string `json:"audit,omitempty"`
}

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	resp := readyzResponse{
		Status:        "ready",
		Breaker:       s.brk.State().String(),
		BreakerTrips:  s.brk.Trips(),
		QueuedWaiters: s.adm.Queued(),
		UsedUnits:     s.adm.Used(),
		CapacityUnits: s.cfg.Capacity,
	}
	if s.ledger != nil || s.auditErr != nil {
		resp.Audit = "ok"
	}
	status := http.StatusOK
	if kind, err := s.auditRefusal(); err != nil {
		resp.Status, resp.Audit = kind, kind
		status = http.StatusServiceUnavailable
	}
	if s.gate.isDraining() {
		resp.Status = "draining"
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, resp)
}

// --- /v1/attack -------------------------------------------------------

// AttackRequest is the /v1/attack body. Source and Dest are node IDs on
// the served network; Rank selects p* (the rank-th shortest path); City
// selects the shard (empty: the registry's default city).
type AttackRequest struct {
	City      string  `json:"city,omitempty"`
	Source    int64   `json:"source"`
	Dest      int64   `json:"dest"`
	Rank      int     `json:"rank"`
	Algorithm string  `json:"algorithm,omitempty"` // default LP-PathCover
	Weight    string  `json:"weight,omitempty"`    // default TIME
	Cost      string  `json:"cost,omitempty"`      // default UNIFORM
	Budget    float64 `json:"budget,omitempty"`
	TimeoutMS int64   `json:"timeout_ms,omitempty"`
	Seed      int64   `json:"seed,omitempty"`
}

// AttackResponse is the /v1/attack success body.
type AttackResponse struct {
	City            string  `json:"city"`
	Algorithm       string  `json:"algorithm"`
	Requested       string  `json:"requested_algorithm,omitempty"` // set when the breaker rerouted
	Removed         []int64 `json:"removed"`
	TotalCost       float64 `json:"total_cost"`
	Rounds          int     `json:"rounds"`
	ConstraintPaths int     `json:"constraint_paths"`
	RuntimeMS       float64 `json:"runtime_ms"`
	Degraded        bool    `json:"degraded"`
	DegradedReason  string  `json:"degraded_reason,omitempty"`
	Breaker         string  `json:"breaker"`
	// Cached marks a response served from the generation-keyed result
	// cache; Coalesced marks one shared with concurrent identical
	// requests. Both are serving metadata: the attack payload is
	// bit-identical to an uncached computation.
	Cached    bool `json:"cached,omitempty"`
	Coalesced bool `json:"coalesced,omitempty"`
	// Audit is the ledger receipt when auditing is enabled: quote Seq at
	// GET /v1/audit/{seq}/proof (after the next group commit) for an
	// offline-verifiable inclusion proof.
	Audit *AuditRef `json:"audit,omitempty"`
}

// ErrorResponse is the structured error body on every non-2xx response.
type ErrorResponse struct {
	Error       string `json:"error"`
	Kind        string `json:"kind"`
	RetryAfterS int    `json:"retry_after_s,omitempty"`
}

func (s *Server) handleAttack(w http.ResponseWriter, r *http.Request) {
	var req AttackRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.writeError(w, http.StatusBadRequest, "bad_request", fmt.Errorf("server: decoding request: %w", err))
		return
	}
	alg := core.AlgLPPathCover
	if req.Algorithm != "" {
		var err error
		if alg, err = core.ParseAlgorithm(req.Algorithm); err != nil {
			s.writeError(w, http.StatusBadRequest, "bad_request", err)
			return
		}
	}
	wt := roadnet.WeightTime
	if req.Weight != "" {
		var err error
		if wt, err = roadnet.ParseWeightType(req.Weight); err != nil {
			s.writeError(w, http.StatusBadRequest, "bad_request", err)
			return
		}
	}
	ct := roadnet.CostUniform
	if req.Cost != "" {
		var err error
		if ct, err = roadnet.ParseCostType(req.Cost); err != nil {
			s.writeError(w, http.StatusBadRequest, "bad_request", err)
			return
		}
	}
	shard, err := s.shardFor(req.City)
	if err != nil {
		s.writeError(w, http.StatusNotFound, "unknown_city", err)
		return
	}
	n := int64(shard.Net().NumIntersections())
	if req.Source < 0 || req.Source >= n || req.Dest < 0 || req.Dest >= n {
		s.writeError(w, http.StatusBadRequest, "bad_request",
			fmt.Errorf("server: source/dest must be node IDs in [0, %d)", n))
		return
	}
	if req.Source == req.Dest {
		s.writeError(w, http.StatusBadRequest, "bad_request", errors.New("server: source equals dest"))
		return
	}
	if req.Rank < 1 {
		s.writeError(w, http.StatusBadRequest, "bad_request", errors.New("server: rank must be >= 1"))
		return
	}

	key := attackKey{
		city:   shard.Name(),
		gen:    shard.Generation(),
		source: req.Source,
		dest:   req.Dest,
		rank:   req.Rank,
		alg:    alg,
		wt:     wt,
		ct:     ct,
		budget: req.Budget,
		seed:   req.Seed,
	}

	// Cache-first fast path: a hit runs no graph work and holds no clone,
	// queue slot, or admission units — the hot working set must never
	// queue behind cold traffic, and admission charges hits nothing. A hit
	// is still a served result, so it is still audited (Cached flag set).
	if out, ok := s.results.Get(key); ok {
		ref, aerr := s.auditAttack(shard.Name(), &req, key, &out, true, nil)
		if aerr != nil {
			s.writeError(w, http.StatusServiceUnavailable, "audit_failed", aerr)
			return
		}
		s.writeAttack(w, shard.Name(), out, true, false, ref)
		return
	}

	// Load shedding (cold path only): a request whose estimated Yen work
	// exceeds the per-request budget is refused before it touches the
	// coalescer or the queue.
	if units, _ := s.attackUnits(shard.Net(), req.Rank); s.cfg.MaxRequestUnits > 0 && units > s.cfg.MaxRequestUnits {
		s.writeError(w, http.StatusServiceUnavailable, "shed",
			fmt.Errorf("%w (estimated %d units, budget %d)", ErrShed, units, s.cfg.MaxRequestUnits))
		return
	}

	// The waiter deadline covers coalescer wait AND attack work, so
	// clients keep a bounded worst case. The computation itself runs under
	// the server's drain context plus the leader's timeout (inside
	// computeAttack), so one impatient client hanging up never kills the
	// result its coalesced peers are still waiting for.
	ctx, cancel := context.WithTimeoutCause(r.Context(), s.timeout(req.TimeoutMS)+waiterGrace, core.ErrTimeout)
	defer cancel()

	timeoutMS := req.TimeoutMS
	out, shared, err := s.flight.Do(ctx, s.drainCtx, key, func(runCtx context.Context) (attackOutcome, error) {
		return s.computeAttack(runCtx, shard, key, timeoutMS)
	})
	if err = mapComputeErr(err); err != nil {
		if errors.Is(err, errAdmission) {
			// Backpressure rejections are not attack outcomes — nothing was
			// computed or served — so they are not audited.
			s.writeAdmissionError(w, err)
			return
		}
		// A failed attack is still a served answer; audit it best-effort
		// (an append failure here poisons the ledger, and the NEXT request
		// is refused by the guard — this response already carries an error).
		_, _ = s.auditAttack(shard.Name(), &req, key, nil, false, err)
		kind := failureKind(err)
		s.writeError(w, statusForKind(kind), kind, err)
		return
	}
	ref, aerr := s.auditAttack(shard.Name(), &req, key, &out, false, nil)
	if aerr != nil {
		s.writeError(w, http.StatusServiceUnavailable, "audit_failed", aerr)
		return
	}
	s.writeAttack(w, shard.Name(), out, false, shared, ref)
}

// ctxSentinel maps a dead context to the typed core sentinels.
func ctxSentinel(ctx context.Context) error {
	cause := context.Cause(ctx)
	if errors.Is(cause, core.ErrTimeout) || errors.Is(cause, context.DeadlineExceeded) {
		return fmt.Errorf("%w: %w", core.ErrTimeout, cause)
	}
	return fmt.Errorf("%w: %w", core.ErrCancelled, cause)
}

// timeout clamps a client-supplied timeout_ms to (0, MaxTimeout].
func (s *Server) timeout(ms int64) time.Duration {
	d := time.Duration(ms) * time.Millisecond
	if d <= 0 {
		d = s.cfg.DefaultTimeout
	}
	if d > s.cfg.MaxTimeout {
		d = s.cfg.MaxTimeout
	}
	return d
}

// statusForKind maps experiment.FailureKind buckets onto HTTP statuses.
func statusForKind(kind string) int {
	switch kind {
	case "timeout":
		return http.StatusGatewayTimeout
	case "cancelled":
		return http.StatusServiceUnavailable
	case "panic":
		return http.StatusInternalServerError
	case "invalid":
		return http.StatusBadRequest
	case "budget", "infeasible", "rank":
		return http.StatusUnprocessableEntity
	default:
		return http.StatusInternalServerError
	}
}

// failureKind buckets an error for the wire, extending the experiment
// buckets with the rank-unavailable case the service can surface.
func failureKind(err error) string {
	if errors.Is(err, core.ErrRankUnavailable) {
		return "rank"
	}
	return experiment.FailureKind(err)
}

// writeAdmissionError maps admission failures onto structured 503s.
func (s *Server) writeAdmissionError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrQueueFull):
		s.writeError(w, http.StatusServiceUnavailable, "queue_full", err)
	case errors.Is(err, ErrShed):
		s.writeError(w, http.StatusServiceUnavailable, "shed", err)
	case errors.Is(err, ErrDraining):
		s.writeError(w, http.StatusServiceUnavailable, "draining", err)
	case errors.Is(err, core.ErrTimeout), errors.Is(err, context.DeadlineExceeded):
		s.writeError(w, http.StatusServiceUnavailable, "admission_timeout", err)
	default:
		s.writeError(w, http.StatusServiceUnavailable, "cancelled", err)
	}
}

// writeError writes the structured error body, attaching Retry-After on
// backpressure statuses so well-behaved clients pace themselves.
func (s *Server) writeError(w http.ResponseWriter, status int, kind string, err error) {
	resp := ErrorResponse{Error: err.Error(), Kind: kind}
	if status == http.StatusServiceUnavailable {
		resp.RetryAfterS = s.cfg.RetryAfterS
		w.Header().Set("Retry-After", strconv.Itoa(s.cfg.RetryAfterS))
	}
	writeJSON(w, status, resp)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v) // the client hung up; nothing sensible to do
}

func edgeIDs(edges []graph.EdgeID) []int64 {
	out := make([]int64, len(edges))
	for i, e := range edges {
		out[i] = int64(e)
	}
	return out
}

// joinReasons concatenates non-empty degradation reasons.
func joinReasons(a, b string) string {
	if b == "" {
		return a
	}
	return a + "; " + b
}
