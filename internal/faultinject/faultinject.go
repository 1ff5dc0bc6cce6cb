// Package faultinject provides deterministic, seed-driven fault injection
// for chaos-testing the attack pipeline. Production code probes named fault
// points through a context.Context; an Injector armed by a test decides,
// purely from its seed and per-point hit counters, which probes fire. A
// context without an injector short-circuits on the Value miss, so the
// probes are near-zero-cost when injection is disabled — they are placed at
// round granularity (attack rounds, LP solves, table units), never inside
// per-edge inner loops.
//
// Determinism: counters are incremented under a lock and probabilistic
// rules hash (seed, point, hit index), so for a fixed seed and a fixed
// per-point hit order the same hits fire — regardless of how goroutines
// interleave hits on *different* points.
package faultinject

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"sync"
)

// Point names one location in the pipeline where a fault can be injected.
type Point string

// The fault points wired into the pipeline.
const (
	// PointLPSolve fails lp.SolveCtx with ErrInjected before any pivoting,
	// exercising the LP→greedy degradation path in core's lpCover.
	PointLPSolve Point = "lp/solve"
	// PointAttackStall blocks an attack round until the attack's context is
	// done, simulating a hung solve. Arm it only together with a deadline:
	// without one the round blocks forever, exactly like the real hang it
	// models.
	PointAttackStall Point = "core/attack-stall"
	// PointAttackPanic panics at the top of an attack round, exercising
	// core.RunCtx's panic recovery.
	PointAttackPanic Point = "core/attack-panic"
	// PointWorkerPanic panics inside a table-runner worker before the
	// unit's attack starts, exercising the per-unit recovery in
	// internal/experiment (outside core.RunCtx's own recover).
	PointWorkerPanic Point = "experiment/worker-panic"
	// PointServerPanic panics inside an HTTP handler after admission,
	// exercising the server's request-level panic isolation (the recover
	// in Server.ServeHTTP, outside core.RunCtx's own recover).
	PointServerPanic Point = "server/handler-panic"
	// PointAuditWrite fails an audit-ledger line write after emitting only
	// a prefix of its bytes — the torn-write shape a mid-write kill or a
	// full disk leaves on a JSONL file. The ledger fails closed on it
	// either way.
	PointAuditWrite Point = "audit/write"
	// PointAuditFsync fails the audit ledger's group-commit fsync after
	// the batch's seal line reached the OS, so the batch's durability (not
	// its integrity) is in doubt on the next open. The ledger fails
	// closed on the first fsync fault; it never retries one.
	PointAuditFsync Point = "audit/fsync"
	// PointAuditRotate refuses the segment-rotation rename, leaving the
	// oversized file active; rotation must retry at the next seal.
	PointAuditRotate Point = "audit/rotate"
	// PointAuditCompact fails a compaction pass before any IO; compaction
	// must defer (data intact, disk not reclaimed) and retry later.
	PointAuditCompact Point = "audit/compact"
)

// ErrInjected marks a failure manufactured by an Injector.
var ErrInjected = errors.New("faultinject: injected fault")

// Rule decides which hits of a point fire. Criteria are OR-ed; the zero
// Rule never fires.
type Rule struct {
	// OnHit fires on exactly the n-th hit (1-based) when > 0.
	OnHit int
	// Every fires on every n-th hit when > 0 (1 = every hit).
	Every int
	// Prob fires each hit with this probability, derived deterministically
	// from (seed, point, hit index).
	Prob float64
}

// Injector is a set of armed fault points. The zero of *Injector (nil) is
// valid and never fires, so probes need no nil guards. Safe for concurrent
// use.
type Injector struct {
	seed  int64
	mu    sync.Mutex
	rules map[Point]Rule
	hits  map[Point]int
}

// New returns an empty injector whose probabilistic rules draw from seed.
func New(seed int64) *Injector {
	return &Injector{seed: seed, rules: map[Point]Rule{}, hits: map[Point]int{}}
}

// Arm installs (or replaces) the rule for a point and returns the injector
// for chaining.
func (in *Injector) Arm(p Point, r Rule) *Injector {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.rules[p] = r
	return in
}

// Hits returns how many times point p has been probed so far.
func (in *Injector) Hits(p Point) int {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.hits[p]
}

// fires counts one hit on p and reports whether the armed rule fires on it.
func (in *Injector) fires(p Point) bool {
	if in == nil {
		return false
	}
	in.mu.Lock()
	rule, armed := in.rules[p]
	in.hits[p]++
	hit := in.hits[p]
	in.mu.Unlock()
	if !armed {
		return false
	}
	if rule.OnHit > 0 && hit == rule.OnHit {
		return true
	}
	if rule.Every > 0 && hit%rule.Every == 0 {
		return true
	}
	if rule.Prob > 0 && in.roll(p, hit) < rule.Prob {
		return true
	}
	return false
}

// roll maps (seed, point, hit) to a uniform [0, 1) value, independent of
// goroutine interleaving.
func (in *Injector) roll(p Point, hit int) float64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s|%d", in.seed, p, hit)
	return float64(h.Sum64()>>11) / float64(1<<53)
}

type ctxKey struct{}

// With returns a context carrying the injector. Passing nil returns ctx
// unchanged.
func With(ctx context.Context, in *Injector) context.Context {
	if in == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, in)
}

// From extracts the injector carried by ctx, or nil.
func From(ctx context.Context) *Injector {
	in, _ := ctx.Value(ctxKey{}).(*Injector)
	return in
}

// Fires probes point p on the context's injector (if any) and reports
// whether an injected fault should occur here.
func Fires(ctx context.Context, p Point) bool {
	return From(ctx).fires(p)
}

// Fire probes point p and returns an ErrInjected-wrapped error when it
// fires, nil otherwise.
func Fire(ctx context.Context, p Point) error {
	if Fires(ctx, p) {
		return fmt.Errorf("%w at %s", ErrInjected, p)
	}
	return nil
}

// Probe counts one hit on p directly against the injector — for
// components (like the audit ledger) that hold an injector for their
// lifetime rather than receive one per call through a context — and
// returns an ErrInjected-wrapped error when the armed rule fires. Safe on
// a nil injector (never fires).
func (in *Injector) Probe(p Point) error {
	if in.fires(p) {
		return fmt.Errorf("%w at %s", ErrInjected, p)
	}
	return nil
}
