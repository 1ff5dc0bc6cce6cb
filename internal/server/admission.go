package server

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
)

// Admission-control errors, surfaced to clients as structured 503s.
var (
	// ErrQueueFull is returned when the bounded wait queue is at capacity;
	// the client should back off and retry (Retry-After is set).
	ErrQueueFull = errors.New("server: admission queue full")
	// ErrShed is returned when a request's estimated cost exceeds the
	// per-request budget and it is shed without queueing.
	ErrShed = errors.New("server: request shed: estimated cost exceeds per-request budget")
	// ErrDraining is returned when the server has stopped admitting
	// requests because it is shutting down.
	ErrDraining = errors.New("server: draining, not admitting requests")
)

// waiter is one queued acquisition.
type waiter struct {
	n     int
	ready chan struct{}
}

// admission is a FIFO weighted semaphore with a bounded wait queue: the
// server's concurrency budget. Each request acquires its estimated cost in
// units; requests that do not fit wait in FIFO order, and once the queue
// holds maxQueue waiters further requests are rejected immediately with
// ErrQueueFull — the queue is the only place work ever waits, so load
// never accumulates in unbounded goroutines.
type admission struct {
	mu       sync.Mutex
	capacity int
	used     int
	queue    []*waiter
	maxQueue int
}

func newAdmission(capacity, maxQueue int) *admission {
	return &admission{capacity: capacity, maxQueue: maxQueue}
}

// Acquire blocks until n units are granted, the queue rejects the request,
// or ctx dies. n is clamped to [1, capacity] by the caller (see
// attackUnits); n > capacity can never be granted and returns ErrShed.
func (a *admission) Acquire(ctx context.Context, n int) error {
	if n < 1 {
		n = 1
	}
	if n > a.capacity {
		return ErrShed
	}
	a.mu.Lock()
	if len(a.queue) == 0 && a.used+n <= a.capacity {
		a.used += n
		a.mu.Unlock()
		return nil
	}
	if len(a.queue) >= a.maxQueue {
		a.mu.Unlock()
		return ErrQueueFull
	}
	w := &waiter{n: n, ready: make(chan struct{})}
	a.queue = append(a.queue, w)
	a.mu.Unlock()

	select {
	case <-w.ready:
		return nil
	case <-ctx.Done():
		a.mu.Lock()
		granted := true
		for i, q := range a.queue {
			if q == w {
				a.queue = append(a.queue[:i], a.queue[i+1:]...)
				granted = false
				break
			}
		}
		a.mu.Unlock()
		if granted {
			// The grant raced the cancellation: the units are ours, so
			// hand them back before reporting the failure.
			a.Release(n)
		}
		return fmt.Errorf("server: admission wait: %w", context.Cause(ctx))
	}
}

// Release returns n units and grants as many queued waiters as now fit,
// strictly in FIFO order (head-of-line blocking is the price of fairness).
func (a *admission) Release(n int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.used -= n
	if a.used < 0 {
		a.used = 0
	}
	for len(a.queue) > 0 && a.used+a.queue[0].n <= a.capacity {
		head := a.queue[0]
		a.queue = a.queue[1:]
		a.used += head.n
		close(head.ready)
	}
}

// Queued returns the number of waiting requests.
func (a *admission) Queued() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.queue)
}

// Used returns the units currently held.
func (a *admission) Used() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.used
}

// EstimateWork estimates the dominant work of one attack in edge
// relaxations: computing p* and running constraint-generation rounds is
// bounded by Yen's k-shortest search, O(k · (E + V log V)) with k the
// path rank. It is deliberately cheap and coarse — the point is load
// shedding, not profiling.
func EstimateWork(rank, nodes, edges int) float64 {
	if rank < 1 {
		rank = 1
	}
	v := float64(nodes)
	if v < 2 {
		v = 2
	}
	return float64(rank) * (float64(edges) + v*math.Log2(v))
}

// estimateUnits converts estimated work into admission units: 1 unit per
// unitWork edge relaxations, minimum 1. The caller compares the result
// against the per-request budget to decide shedding, and clamps it to the
// capacity before acquiring.
func estimateUnits(work, unitWork float64) int {
	if unitWork <= 0 || work <= unitWork {
		return 1
	}
	return int(math.Ceil(work / unitWork))
}
