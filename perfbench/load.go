package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"runtime"
	"sync"
	"syscall"
	"time"
)

// rung is one fixed arrival rate of the open-loop ladder.
type rung struct {
	name     string
	rate     float64       // mean arrivals per second
	duration time.Duration // length of the arrival schedule
}

// stratifiedSchedule returns the send offsets of round(rate*d) arrivals
// over d: the window is cut into that many equal slots and each slot gets
// one arrival at a uniformly random point in it. The offered load is the
// same for every seed and the offsets depend only on the seed that made
// rng. Poisson arrivals (the same count placed anywhere in the window)
// clump by chance, and at these rates a cold request that overlaps
// another runs 1.3-2x slower on a two-core machine, so how much the
// requests overlapped, and with it the latency, moved by a fifth from
// seed to seed. One arrival per slot still overlaps the requests that
// outlast their slot and still puts every stall in front of the requests
// due behind it.
func stratifiedSchedule(rng *rand.Rand, rate float64, d time.Duration) []time.Duration {
	n := int(math.Round(rate * d.Seconds()))
	offs := make([]time.Duration, n)
	slot := d / time.Duration(max(n, 1))
	for i := range offs {
		offs[i] = time.Duration(i)*slot + time.Duration(rng.Int63n(int64(slot)))
	}
	return offs
}

// wireRequest is one prepared /v1/attack body and what the benchmark
// needs to check the answer.
type wireRequest struct {
	City      string `json:"city"`
	Source    int64  `json:"source"`
	Dest      int64  `json:"dest"`
	Rank      int    `json:"rank"`
	Algorithm string `json:"algorithm"`
	Weight    string `json:"weight"`
	Cost      string `json:"cost"`
	Seed      int64  `json:"seed"`
}

// reply is the decoded answer to one request: the union of the
// server's success and error bodies.
type reply struct {
	Removed         []int64 `json:"removed"`
	TotalCost       float64 `json:"total_cost"`
	Rounds          int     `json:"rounds"`
	ConstraintPaths int     `json:"constraint_paths"`
	RuntimeMS       float64 `json:"runtime_ms"`
	Degraded        bool    `json:"degraded"`
	Cached          bool    `json:"cached"`
	Coalesced       bool    `json:"coalesced"`
	Kind            string  `json:"kind"`
	Error           string  `json:"error"`
}

// shot is one request's timing and answer.
type shot struct {
	req       int           // index into the request list
	scheduled time.Duration // due time, from the rung's start
	lag       time.Duration // how late the generator sent it
	latency   time.Duration // completion minus due time
	service   time.Duration // completion minus actual send
	status    int
	rep       reply
	err       error // transport or decode failure
}

// ok reports whether the answer counts as completed: a cut, or (on the
// cold path) a correct "rank unavailable" refusal.
func (s shot) ok() bool {
	if s.err != nil {
		return false
	}
	switch {
	case s.status == http.StatusOK:
		return !s.rep.Degraded
	case s.status == http.StatusUnprocessableEntity && s.rep.Kind == "rank":
		return true
	}
	return false
}

// generator sends requests open-loop from one process over at most
// `conns` keep-alive connections, one sender goroutine each.
type generator struct {
	base    string
	clients []*http.Client
}

func newGenerator(base string, conns int) *generator {
	g := &generator{base: base}
	for i := 0; i < conns; i++ {
		g.clients = append(g.clients, &http.Client{
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
			Timeout:   2 * time.Minute,
		})
	}
	return g
}

func (g *generator) close() {
	for _, c := range g.clients {
		c.CloseIdleConnections()
	}
}

// runRung sends bodies[reqs[i]] at offsets[i] from now. A request whose
// due time passes while every connection is busy waits for the next free
// one; its latency still counts from the due time, so a stall shows in
// every request queued behind it.
func (g *generator) runRung(ctx context.Context, offsets []time.Duration, reqs []int, bodies [][]byte) []shot {
	type job struct {
		i   int
		due time.Time
	}
	jobs := make(chan job)
	shots := make([]shot, len(offsets))
	var wg sync.WaitGroup
	start := time.Now() //lint:allow wallclock benchmark timing; never feeds a result
	for _, c := range g.clients {
		wg.Add(1)
		go func(c *http.Client) {
			defer wg.Done()
			for j := range jobs {
				sent := time.Now() //lint:allow wallclock benchmark timing; never feeds a result
				s := g.post(ctx, c, bodies[reqs[j.i]])
				done := time.Now() //lint:allow wallclock benchmark timing; never feeds a result
				s.req, s.scheduled = reqs[j.i], j.due.Sub(start)
				s.lag, s.latency, s.service = sent.Sub(j.due), done.Sub(j.due), done.Sub(sent)
				shots[j.i] = s
			}
		}(c)
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	for i, off := range offsets {
		due := start.Add(off)
		sleepUntil(ctx, due)
		if ctx.Err() != nil {
			for k := i; k < len(offsets); k++ {
				shots[k] = shot{req: reqs[k], err: ctx.Err()}
			}
			break
		}
		jobs <- job{i: i, due: due}
	}
	close(jobs)
	wg.Wait()
	return shots
}

// sleepUntil blocks the calling goroutine's OS thread until t with
// nanosleep. Go's timers wake on a millisecond tick, which would add up
// to a millisecond of generator lag to every request, as much as a cache
// hit takes to serve. Waits are cut into 10ms pieces so a cancelled ctx
// is noticed.
func sleepUntil(ctx context.Context, t time.Time) {
	for ctx.Err() == nil {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(min(d, 10*time.Millisecond)))
		_ = syscall.Nanosleep(&ts, nil) // an interrupted sleep just wakes early; the loop sleeps again
	}
}

func (g *generator) post(ctx context.Context, c *http.Client, body []byte) shot {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, g.base+"/v1/attack", bytes.NewReader(body))
	if err != nil {
		return shot{err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.Do(req)
	if err != nil {
		return shot{err: err}
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return shot{status: resp.StatusCode, err: err}
	}
	s := shot{status: resp.StatusCode}
	if err := json.Unmarshal(b, &s.rep); err != nil {
		s.err = fmt.Errorf("decoding %d reply: %w", resp.StatusCode, err)
	}
	return s
}

// rateStats summarizes one rate.
type rateStats struct {
	rung
	sent, failed int
	lat          sample  // ms, one per request; a failed one counts failedLatencyMS
	p50          float64 // ms
	tail, tailQ  float64 // ms; tailQ is the quantile the tail was read at
	lagP95       float64 // ms
	achieved     float64 // completions per second, until the last answer
	backlogGrows bool
	meetsSLO     bool
}

// summarize computes a rate's latency percentiles (a failed request
// counts as missing any limit) and generator lag, and whether the
// generator's backlog grew: the median lag over the last third of the
// schedule exceeding the first third's by half the limit. The rate meets
// the limit when its tail is within it, no request failed and the
// backlog did not grow.
func summarize(r rung, shots []shot, limitMS float64) (rateStats, error) {
	st := rateStats{rung: r, sent: len(shots)}
	var lat, lag, first, last sample
	end := r.duration
	for _, s := range shots {
		end = max(end, s.scheduled+s.latency)
		l := float64(s.latency) / float64(time.Millisecond)
		if !s.ok() {
			st.failed++
			l = failedLatencyMS
		}
		lat = append(lat, l)
		lg := float64(s.lag) / float64(time.Millisecond)
		lag = append(lag, lg)
		switch {
		case s.scheduled < r.duration/3:
			first = append(first, lg)
		case s.scheduled >= 2*r.duration/3:
			last = append(last, lg)
		}
	}
	var err error
	if st.tail, st.tailQ, err = lat.tail(0.95); err != nil {
		return st, fmt.Errorf("rate %s: %w", r.name, err)
	}
	st.lat = lat
	st.p50 = lat.median()
	st.lagP95, _, _ = lag.tail(0.95)
	st.achieved = float64(len(shots)-st.failed) / end.Seconds()
	st.backlogGrows = last.median() > first.median()+limitMS/2
	st.meetsSLO = st.failed == 0 && !st.backlogGrows && st.tail <= limitMS
	return st, nil
}
