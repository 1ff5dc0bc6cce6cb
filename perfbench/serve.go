package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"altroute/internal/audit"
	"altroute/internal/citygen"
	"altroute/internal/core"
	"altroute/internal/graph"
	"altroute/internal/registry"
	"altroute/internal/roadnet"
)

// ladderSpec is a serving workload's open-loop ladder: the fixed arrival
// rates, lowest first (the first two are the named "low" and "mid"
// rates), and the p95 latency limit a rate must meet to count for
// slo_rps.
type ladderSpec struct {
	rates   []float64
	limitMS float64
}

var ladders = map[string]ladderSpec{
	"serve-cold": {rates: []float64{3, 4.5, 40}, limitMS: 1000},
	"serve-hot":  {rates: []float64{300, 700, 8000}, limitMS: 10},
}

// rungShares splits the run's seconds over the rates: the named rates
// get most of it because their percentiles are reported; the peak rate,
// far beyond what two connections can carry, only has to show that the
// ladder's top is not met.
var rungShares = []float64{0.45, 0.45, 0.10}

var rungNames = []string{"low", "mid", "peak"}

// namedRates is how many of the lowest rates report latency metrics.
const namedRates = 2

const (
	// hotWorkingSet is the number of distinct requests serve-hot replays.
	hotWorkingSet = 24
	// coldWarmups is the number of untimed fresh requests sent before the
	// serve-cold ladder, so clone pools and heaps are grown.
	coldWarmups = 4
	// certifySample is how many served cuts are certified after timing.
	certifySample = 8
	// failedLatencyMS stands in for the latency of a failed request:
	// the generator's timeout, which misses any limit.
	failedLatencyMS = 120000
)

// plannedRequest is one request of the plan with its city index.
type plannedRequest struct {
	city int
	wire wireRequest
}

// servePlan is everything a serving run sends: the warm-up requests,
// each rung's arrival schedule, and the request each arrival carries.
type servePlan struct {
	reqs    []plannedRequest
	bodies  [][]byte
	warm    []int
	rungs   []rung
	offsets [][]time.Duration
	picks   [][]int // request index per arrival, per rung
}

// makePlan builds the plan. Requests alternate cities and rotate
// algorithm and cost type over all 12 combinations, each with a fresh
// (source, hospital) pair. serve-cold gives every rate its own population
// of such requests, one per arrival, in seeded order; serve-hot draws
// every timed request from a working set of hotWorkingSet of them, which
// the warm-up sends once.
func makePlan(workload string, seed int64, seconds int, trace bool, nets []*roadnet.Network) servePlan {
	lad := ladders[workload]
	popRNG := rand.New(rand.NewSource(populationSeed))
	runRNG := rand.New(rand.NewSource(seed))
	var p servePlan
	rates := len(lad.rates)
	if trace {
		rates = 1 // the traced mode runs the low rate only
	}
	for i := 0; i < rates; i++ {
		d := time.Duration(rungShares[i] * float64(seconds) * float64(time.Second))
		r := rung{name: rungNames[i], rate: lad.rates[i], duration: d}
		p.rungs = append(p.rungs, r)
		p.offsets = append(p.offsets, stratifiedSchedule(runRNG, r.rate, d))
	}
	used := map[[3]int64]bool{}
	// fresh adds one request with an unused (source, hospital) pair; for
	// the serve-hot working set the pair must have a rank-100 path, so
	// every timed request is a cacheable cut, never a "rank" refusal.
	fresh := func() int {
		i := len(p.reqs)
		city := i % len(nets)
		combo := (i / len(nets)) % 12
		net := nets[city]
		hs := net.POIsOfKind(citygen.KindHospital)
		var src, dst int64
		for {
			dst = int64(hs[popRNG.Intn(len(hs))].Node)
			src = int64(popRNG.Intn(net.NumIntersections()))
			k := [3]int64{int64(city), src, dst}
			if src == dst || used[k] {
				continue
			}
			used[k] = true
			if workload == "serve-hot" {
				_, err := core.PStarByRank(net.Graph(), graph.NodeID(src), graph.NodeID(dst), pathRank, net.Weight(roadnet.WeightTime))
				if err != nil {
					continue
				}
			}
			break
		}
		p.reqs = append(p.reqs, plannedRequest{city: city, wire: wireRequest{
			City: cityLabel(net), Source: src, Dest: dst, Rank: pathRank,
			Algorithm: core.Algorithms()[combo/3].String(), Weight: roadnet.WeightTime.String(),
			Cost: roadnet.CostTypes()[combo%3].String(), Seed: seed,
		}})
		return i
	}
	warm := coldWarmups
	if workload == "serve-hot" {
		warm = hotWorkingSet
	}
	for i := 0; i < warm; i++ {
		p.warm = append(p.warm, fresh())
	}
	for _, offs := range p.offsets {
		picks := make([]int, len(offs))
		if workload == "serve-hot" {
			for j := range picks {
				picks[j] = p.warm[runRNG.Intn(len(p.warm))]
			}
		} else {
			first := len(p.reqs)
			for range picks {
				fresh()
			}
			for j, k := range runRNG.Perm(len(picks)) {
				picks[j] = first + k
			}
		}
		p.picks = append(p.picks, picks)
	}
	for _, r := range p.reqs {
		b, _ := json.Marshal(r.wire) // plain struct of strings and ints: cannot fail
		p.bodies = append(p.bodies, b)
	}
	return p
}

// serverProc is one running cmd/serve.
type serverProc struct {
	cmd     *exec.Cmd
	base    string
	log     *procLog
	done    chan struct{}
	waitErr error
	stopped bool
	peakMB  float64
}

// procLog collects a child's output and reports its listen address.
type procLog struct {
	mu     sync.Mutex
	buf    bytes.Buffer
	listen chan string
	sent   bool
}

var listenRE = regexp.MustCompile(`serve: listening on (\S+)`)

func (l *procLog) Write(b []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.buf.Write(b)
	if !l.sent {
		if m := listenRE.FindSubmatch(l.buf.Bytes()); m != nil {
			l.sent = true
			l.listen <- string(m[1])
		}
	}
	return len(b), nil
}

func (l *procLog) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.String()
}

// serveArgs is the cmd/serve command line: both cities at full scale,
// the audit ledger in auditDir, and the admission budget from the
// benchmark's command (every other setting is the default).
func serveArgs(cfg config, auditDir string) []string {
	return []string{
		"-addr", "127.0.0.1:0", "-city", "chicago,boston", "-scale", "1", "-seed", strconv.Itoa(citySeed),
		"-audit-dir", auditDir, "-capacity", strconv.Itoa(cfg.capacity), "-max-units", strconv.Itoa(cfg.maxUnits),
	}
}

// startServer execs cmd/serve and returns once /readyz answers 200,
// with the time from exec to that answer.
func startServer(ctx context.Context, cfg config, auditDir string) (*serverProc, time.Duration, error) {
	lg := &procLog{listen: make(chan string, 1)}
	cmd := exec.Command(cfg.serveBin, serveArgs(cfg, auditDir)...)
	cmd.Stdout, cmd.Stderr = lg, lg
	start := time.Now() //lint:allow wallclock benchmark timing; never feeds a result
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("starting cmd/serve: %w", err)
	}
	p := &serverProc{cmd: cmd, log: lg, done: make(chan struct{})}
	go func() {
		p.waitErr = cmd.Wait()
		close(p.done)
	}()
	deadline := time.After(150 * time.Second)
	select {
	case addr := <-lg.listen:
		p.base = "http://" + addr
	case <-p.done:
		return nil, 0, fmt.Errorf("cmd/serve exited during startup (%v):\n%s", p.waitErr, lg.String())
	case <-deadline:
		p.stop()
		return nil, 0, fmt.Errorf("cmd/serve did not listen within 150s:\n%s", lg.String())
	case <-ctx.Done():
		p.stop()
		return nil, 0, ctx.Err()
	}
	client := &http.Client{Timeout: 5 * time.Second}
	for {
		resp, err := client.Get(p.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return p, time.Since(start), nil //lint:allow wallclock benchmark timing; never feeds a result
			}
		}
		select {
		case <-time.After(2 * time.Millisecond):
		case <-deadline:
			p.stop()
			return nil, 0, fmt.Errorf("cmd/serve /readyz not 200 within 150s:\n%s", lg.String())
		case <-p.done:
			return nil, 0, fmt.Errorf("cmd/serve exited before ready (%v):\n%s", p.waitErr, lg.String())
		}
	}
}

// stop drains the server with SIGTERM (SIGKILL after a minute), waits
// for it to exit, and records its peak resident set. Idempotent.
func (p *serverProc) stop() error {
	if p.stopped {
		return nil
	}
	p.stopped = true
	_ = p.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
	select {
	case <-p.done:
	case <-time.After(time.Minute):
		_ = p.cmd.Process.Kill()
		<-p.done
		return fmt.Errorf("cmd/serve did not drain within a minute")
	}
	if ru, ok := p.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		p.peakMB = float64(ru.Maxrss) / 1024
	}
	if p.waitErr != nil {
		return fmt.Errorf("cmd/serve exited with %v:\n%s", p.waitErr, p.log.String())
	}
	return nil
}

// healthz and readyz are the parts of the server's health bodies the
// benchmark reads.
type healthz struct {
	Cities       []registry.ShardStats `json:"cities"`
	ResultCache  registry.CacheStats   `json:"result_cache"`
	PathsetCache registry.CacheStats   `json:"pathset_cache"`
	Coalescing   registry.GroupStats   `json:"coalescing"`
	Audit        *audit.Stats          `json:"audit"`
}

type readyz struct {
	Status        string `json:"status"`
	QueuedWaiters int    `json:"queued_waiters"`
}

func getJSON(ctx context.Context, url string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		return fmt.Errorf("GET %s: %w", url, err)
	}
	return nil
}

// counters are the differences of /healthz counters across the timed
// ladder.
type counters struct {
	resultHits, resultMisses, resultEvictions    int64
	pathsetHits, pathsetMisses, pathsetEvictions int64
	leaders, joins                               int64
	poolHits, poolMisses, poolStale              int64
	appended, fsyncs                             uint64
	lastFlushMS, freezeMS                        float64
}

func diffHealth(before, after healthz) counters {
	c := counters{
		resultHits:       after.ResultCache.Hits - before.ResultCache.Hits,
		resultMisses:     after.ResultCache.Misses - before.ResultCache.Misses,
		resultEvictions:  after.ResultCache.Evictions - before.ResultCache.Evictions,
		pathsetHits:      after.PathsetCache.Hits - before.PathsetCache.Hits,
		pathsetMisses:    after.PathsetCache.Misses - before.PathsetCache.Misses,
		pathsetEvictions: after.PathsetCache.Evictions - before.PathsetCache.Evictions,
		leaders:          after.Coalescing.Leaders - before.Coalescing.Leaders,
		joins:            after.Coalescing.Joins - before.Coalescing.Joins,
	}
	for i, a := range after.Cities {
		b := before.Cities[i]
		c.poolHits += a.PoolHits - b.PoolHits
		c.poolMisses += a.PoolMisses - b.PoolMisses
		c.poolStale += a.PoolStale - b.PoolStale
		c.freezeMS += float64(a.FreezeNS) / 1e6
	}
	if after.Audit != nil && before.Audit != nil {
		c.appended = after.Audit.Appended - before.Audit.Appended
		c.fsyncs = after.Audit.Fsyncs - before.Audit.Fsyncs
		c.lastFlushMS = after.Audit.LastFlushMS
	}
	return c
}

// runServe runs serve-cold or serve-hot.
func runServe(ctx context.Context, cfg config, stdout io.Writer) (outcome, error) {
	hot := cfg.workload == "serve-hot"
	lad := ladders[cfg.workload]
	// The generator shares the machine with the server: collect its
	// garbage less often, so its pauses add less lag to the requests.
	debug.SetGCPercent(400)
	nets, buildTime, err := buildCities()
	if err != nil {
		return outcome{}, err
	}
	plan := makePlan(cfg.workload, cfg.seed, cfg.seconds, cfg.trace, nets)

	var setups sample
	var srv *serverProc
	for i := 0; i < setupRepeats; i++ {
		if srv != nil {
			if err := srv.stop(); err != nil {
				return outcome{}, err
			}
		}
		dir := filepath.Join(cfg.workDir, fmt.Sprintf("audit-%d", i))
		var d time.Duration
		if srv, d, err = startServer(ctx, cfg, dir); err != nil {
			return outcome{}, err
		}
		setups = append(setups, d.Seconds())
	}
	defer srv.stop()

	gen := newGenerator(srv.base, runtime.NumCPU())
	defer gen.close()
	warmOffsets := make([]time.Duration, len(plan.warm))
	warm := gen.runRung(ctx, warmOffsets, plan.warm, plan.bodies)
	expect := map[int]reply{}
	for _, s := range warm {
		if !s.ok() {
			return outcome{}, fmt.Errorf("warm-up request %d failed: status %d kind %q err %v %s", s.req, s.status, s.rep.Kind, s.err, s.rep.Error)
		}
		expect[s.req] = s.rep
	}

	var before, after healthz
	if err := getJSON(ctx, srv.base+"/healthz", &before); err != nil {
		return outcome{}, err
	}
	queuedMax, stopPoll := 0, make(chan struct{})
	var pollWG sync.WaitGroup
	if cfg.trace {
		pollWG.Add(1)
		go func() {
			defer pollWG.Done()
			for {
				var rz readyz
				if getJSON(ctx, srv.base+"/readyz", &rz) == nil && rz.QueuedWaiters > queuedMax {
					queuedMax = rz.QueuedWaiters
				}
				select {
				case <-stopPoll:
					return
				case <-time.After(20 * time.Millisecond):
				}
			}
		}()
	}
	var shots [][]shot
	for i := range plan.rungs {
		shots = append(shots, gen.runRung(ctx, plan.offsets[i], plan.picks[i], plan.bodies))
	}
	close(stopPoll)
	pollWG.Wait()
	if err := getJSON(ctx, srv.base+"/healthz", &after); err != nil {
		return outcome{}, err
	}
	if err := srv.stop(); err != nil {
		return outcome{}, err
	}
	ctr := diffHealth(before, after)
	if err := writeShots(cfg, plan, shots); err != nil {
		return outcome{}, err
	}

	var stats []rateStats
	for i, r := range plan.rungs {
		st, err := summarize(r, shots[i], lad.limitMS)
		if err != nil {
			return outcome{}, err
		}
		stats = append(stats, st)
		fmt.Fprintf(stdout, "%s rate %-4s %6.1f/s sent=%5d failed=%d p50=%.3fms p%.1f=%.3fms lag.p95=%.3fms achieved=%.2f/s backlog_grows=%v meets_slo=%v\n",
			cfg.workload, r.name, r.rate, st.sent, st.failed, st.p50, 100*st.tailQ, st.tail, st.lagP95, st.achieved, st.backlogGrows, st.meetsSLO)
	}
	// The named rates' answers are the ones counted, checked and digested.
	named := shots[:min(namedRates, len(shots))]

	out := outcome{values: map[string]float64{}}
	v := out.values
	var acre sample
	var completed, namedSent int
	for _, rs := range shots {
		for _, s := range rs {
			out.attempted++
			if !s.ok() {
				out.failed++
			}
		}
	}
	for _, rs := range named {
		for _, s := range rs {
			namedSent++
			if s.ok() {
				completed++
				if s.status == http.StatusOK {
					acre = append(acre, s.rep.TotalCost)
				}
			}
		}
	}
	out.checkErr = checkServed(cfg, plan, nets, named, expect, ctr, hot)
	out.digest = serveDigest(plan, named, expect, hot)
	if hot {
		acre = nil
		for _, i := range plan.warm {
			acre = append(acre, expect[i].TotalCost)
		}
	}

	v["setup_s"] = setups.median()
	v["peak_rss_mb"] = srv.peakMB
	v["ok_ratio"] = ratio(float64(completed), float64(namedSent))
	var namedSpan float64
	var namedLat sample
	for _, st := range stats[:len(named)] {
		namedSpan += float64(st.sent-st.failed) / st.achieved
		namedLat = append(namedLat, st.lat...)
	}
	if v["gmean_ms"], err = namedLat.geomean(); err != nil {
		return outcome{}, fmt.Errorf("latencies: %w", err)
	}
	v["attacks_per_s"] = float64(completed) / namedSpan
	v["acre"] = acre.mean()
	v["slo_rps"] = 0
	for _, st := range stats {
		if st.meetsSLO {
			v["slo_rps"] = st.achieved
		}
	}
	if !cfg.trace {
		return out, nil
	}
	return out, traceServe(ctx, cfg, stdout, plan, nets, shots[0], stats[0], ctr, queuedMax, buildTime, hot, v)
}

// checkServed checks the answers of the named rungs: every cut's cost
// matches its edges; serve-cold never hits a cache and serve-hot always
// does, with the warm-up's exact answer; and a fixed seeded sample of
// served cuts is certified against p*.
func checkServed(cfg config, plan servePlan, nets []*roadnet.Network, shots [][]shot, expect map[int]reply, ctr counters, hot bool) error {
	var ok []shot
	for _, rs := range shots {
		for _, s := range rs {
			if !s.ok() {
				continue
			}
			ok = append(ok, s)
			req := plan.reqs[s.req]
			if s.status == http.StatusOK {
				if err := checkCost(nets[req.city], req.wire, s.rep); err != nil {
					return fmt.Errorf("request %d: %w", s.req, err)
				}
			}
			switch {
			case hot && !s.rep.Cached:
				return fmt.Errorf("serve-hot request %d was not served from the result cache", s.req)
			case hot && !sameReply(s.rep, expect[s.req]):
				return fmt.Errorf("serve-hot request %d: cached answer %v/%v differs from the computed %v/%v",
					s.req, s.rep.Removed, s.rep.TotalCost, expect[s.req].Removed, expect[s.req].TotalCost)
			case !hot && (s.rep.Cached || s.rep.Coalesced):
				return fmt.Errorf("serve-cold request %d was cached or coalesced; every request must be fresh", s.req)
			}
		}
	}
	if !hot && (ctr.resultHits != 0 || ctr.pathsetHits != 0) {
		return fmt.Errorf("serve-cold hit a cache (%d result hits, %d path-set hits); every request must be fresh", ctr.resultHits, ctr.pathsetHits)
	}
	// The certified sample: seeded picks among the answered requests
	// (serve-hot: the working set, whose answers every hit repeats).
	var pool []shot
	if hot {
		for _, i := range plan.warm {
			pool = append(pool, shot{req: i, status: http.StatusOK, rep: expect[i]})
		}
	} else {
		pool = ok
	}
	rng := rand.New(rand.NewSource(cfg.seed*7919 + 3))
	for k := 0; k < certifySample && len(pool) > 0; k++ {
		j := rng.Intn(len(pool))
		s := pool[j]
		pool = append(pool[:j], pool[j+1:]...)
		req := plan.reqs[s.req]
		net := nets[req.city]
		w := net.Weight(roadnet.WeightTime)
		pstar, err := core.PStarByRank(net.Graph(), graph.NodeID(req.wire.Source), graph.NodeID(req.wire.Dest), req.wire.Rank, w)
		if s.status != http.StatusOK {
			if err == nil {
				return fmt.Errorf("request %d was refused as rank-unavailable, but p* exists", s.req)
			}
			continue
		}
		if err != nil {
			return fmt.Errorf("request %d: computing p* to certify: %w", s.req, err)
		}
		cut := make([]graph.EdgeID, len(s.rep.Removed))
		for i, e := range s.rep.Removed {
			cut[i] = graph.EdgeID(e)
		}
		if err := certify(net.Graph(), w, pstar, cut); err != nil {
			return fmt.Errorf("request %d (%s %d→%d %s/%s): served cut not certified: %w",
				s.req, req.wire.City, req.wire.Source, req.wire.Dest, req.wire.Algorithm, req.wire.Cost, err)
		}
	}
	return nil
}

// checkCost recomputes a served cut's cost from its edges.
func checkCost(net *roadnet.Network, req wireRequest, rep reply) error {
	ct, err := roadnet.ParseCostType(req.Cost)
	if err != nil {
		return err
	}
	cost := net.Cost(ct)
	total := 0.0
	for _, e := range rep.Removed {
		if e < 0 || e >= int64(net.NumSegments()) {
			return fmt.Errorf("removed edge %d is not a segment", e)
		}
		total += cost(graph.EdgeID(e))
	}
	if d := total - rep.TotalCost; d > 1e-9*max(1, total) || -d > 1e-9*max(1, total) {
		return fmt.Errorf("reported cost %v, the cut's edges cost %v", rep.TotalCost, total)
	}
	return nil
}

func sameReply(a, b reply) bool {
	return a.TotalCost == b.TotalCost && fmt.Sprint(a.Removed) == fmt.Sprint(b.Removed) //lint:allow floateq a cached answer must repeat the computed bits
}

// serveDigest is one canonical line per answered request of the named
// rungs (serve-hot: per working-set entry, which every hit repeats).
func serveDigest(plan servePlan, shots [][]shot, expect map[int]reply, hot bool) []string {
	var lines []string
	line := func(i int, status int, rep reply) string {
		w := plan.reqs[i].wire
		return fmt.Sprintf("%s %d→%d %s/%s status=%d kind=%s removed=%v cost=%v",
			w.City, w.Source, w.Dest, w.Algorithm, w.Cost, status, rep.Kind, rep.Removed, rep.TotalCost)
	}
	if hot {
		for _, i := range plan.warm {
			lines = append(lines, line(i, http.StatusOK, expect[i]))
		}
		return lines
	}
	for _, rs := range shots {
		for _, s := range rs {
			lines = append(lines, line(s.req, s.status, s.rep))
		}
	}
	return lines
}

// writeShots stores every timed request's timing and answer summary.
func writeShots(cfg config, plan servePlan, shots [][]shot) error {
	dir := filepath.Join(cfg.root, ".bench_build", "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	type row struct {
		Rung            string  `json:"rung"`
		Req             int     `json:"req"`
		City            string  `json:"city"`
		Algorithm       string  `json:"algorithm"`
		Cost            string  `json:"cost"`
		ScheduledMS     float64 `json:"scheduled_ms"`
		LagMS           float64 `json:"lag_ms"`
		LatencyMS       float64 `json:"latency_ms"`
		Status          int     `json:"status"`
		Kind            string  `json:"kind,omitempty"`
		RuntimeMS       float64 `json:"runtime_ms"`
		Rounds          int     `json:"rounds"`
		ConstraintPaths int     `json:"constraint_paths"`
		Cached          bool    `json:"cached"`
		Coalesced       bool    `json:"coalesced"`
	}
	var b strings.Builder
	enc := json.NewEncoder(&b)
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	for i, rs := range shots {
		for _, s := range rs {
			w := plan.reqs[s.req].wire
			_ = enc.Encode(row{plan.rungs[i].name, s.req, w.City, w.Algorithm, w.Cost, ms(s.scheduled), ms(s.lag), ms(s.latency),
				s.status, s.rep.Kind, s.rep.RuntimeMS, s.rep.Rounds, s.rep.ConstraintPaths, s.rep.Cached, s.rep.Coalesced})
		}
	}
	name := fmt.Sprintf("%s-seed%d-trace%v.jsonl", cfg.workload, cfg.seed, cfg.trace)
	return os.WriteFile(filepath.Join(dir, name), []byte(b.String()), 0o644)
}
