package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"altroute/internal/citygen"
	"altroute/internal/core"
	"altroute/internal/experiment"
	"altroute/internal/graph"
	"altroute/internal/roadnet"
)

const (
	// pathRank is the paper's p*: the 100th-shortest path.
	pathRank = 100
	// citySeed fixes the generated cities, so the workload seed only
	// picks sources, hospitals and schedules on the same two graphs.
	citySeed = 1
	// setupRepeats is how often a run sets up; setup_s is the median.
	setupRepeats = 5
	// populationSeed fixes which sources the grid attacks and which
	// requests each serving rate sends. The workload seed varies what
	// happens to that population (LP rounding and unit order in the grid; order, arrival
	// times and working-set picks in serving), so runs with different
	// seeds measure the system on the same inputs, and their spread is
	// the system's, not the luck of which sources were drawn.
	populationSeed = 1
)

// gridCities are the paper's lattice and organic cities, smaller first:
// the printed per-city attack times read ".low" for Boston and ".mid"
// for Chicago, the lighter and the heavier per-attack load.
var gridCities = []citygen.City{citygen.Boston, citygen.Chicago}

// sourcesPerRound is how many sources per hospital each grid round
// samples. Each round samples its own sources (population seed + round)
// and runs the full table on them; throughput is the median over rounds,
// so a burst of noise from the machine moves one round, not the reported
// rate.
const sourcesPerRound = 2

// gridRounds sizes the grid from the run length: on the reference
// machine a round costs about six seconds over both cities, sampling and
// all twelve cells included.
func gridRounds(seconds int) int {
	return max(1, seconds/6)
}

// buildCities generates every grid city once and returns the time taken.
func buildCities() ([]*roadnet.Network, time.Duration, error) {
	start := time.Now() //lint:allow wallclock benchmark timing; never feeds a result
	var nets []*roadnet.Network
	for _, c := range gridCities {
		net, err := citygen.Build(c, 1.0, citySeed)
		if err != nil {
			return nil, 0, err
		}
		nets = append(nets, net)
	}
	return nets, time.Since(start), nil //lint:allow wallclock benchmark timing; never feeds a result
}

// setupCities builds the cities setupRepeats times and keeps the last.
func setupCities() ([]*roadnet.Network, sample, error) {
	var nets []*roadnet.Network
	var times sample
	for i := 0; i < setupRepeats; i++ {
		nets = nil
		runtime.GC()
		var d time.Duration
		var err error
		if nets, d, err = buildCities(); err != nil {
			return nil, nil, err
		}
		times = append(times, d.Seconds())
	}
	return nets, times, nil
}

// gridSpec is the experiment spec every grid run uses: weight TIME, rank
// 100, all four algorithms and all three cost types in the paper's order,
// default options, and the workload seed for the LP rounding. Units are
// sampled with the same spec under each round's population seed
// (sampleSpec) and then put in the workload seed's order (shuffleUnits).
// The cell order stays fixed: it decides which cells the workers run side
// by side, which moves the grid's wall time by more than a tenth.
func gridSpec(cfg config) experiment.Spec {
	return experiment.Spec{
		Scale:              1,
		Seed:               cfg.seed,
		WeightType:         roadnet.WeightTime,
		PathRank:           pathRank,
		SourcesPerHospital: sourcesPerRound,
		CostTypes:          roadnet.CostTypes(),
		Algorithms:         core.Algorithms(),
	}
}

// shuffleUnits puts one round's sampled units of a city in the workload
// seed's order.
func shuffleUnits(units []experiment.Unit, seed int64, round, city int) {
	rng := rand.New(rand.NewSource(seed*131 + int64(round)*7 + int64(city)))
	rng.Shuffle(len(units), func(i, j int) { units[i], units[j] = units[j], units[i] })
}

// sampleSpec is spec with round r's population seed, for
// experiment.SampleUnits.
func sampleSpec(spec experiment.Spec, r int) experiment.Spec {
	spec.Seed = populationSeed + int64(r)
	return spec
}

// attack is one recomputed grid attack, kept for certification.
type attack struct {
	city int
	unit int
	alg  core.Algorithm
	ct   roadnet.CostType
	res  core.Result
	err  error
}

func (a attack) key() string {
	return fmt.Sprintf("%s/%s/%d", a.alg, a.ct, a.unit)
}

// runGrid runs the paper-grid workload.
func runGrid(ctx context.Context, cfg config, stdout io.Writer) (outcome, error) {
	nets, setups, err := setupCities()
	if err != nil {
		return outcome{}, err
	}
	if cfg.trace {
		return runGridTraced(ctx, cfg, stdout, nets, setups)
	}
	spec := gridSpec(cfg)
	workers := runtime.NumCPU()
	out := outcome{values: map[string]float64{}}

	// units and records hold every round's units of a city, records keyed
	// by the unit's index in units.
	units := make([][]experiment.Unit, len(nets))
	records := make([]map[string]experiment.Record, len(nets))
	for ci := range nets {
		records[ci] = map[string]experiment.Record{}
	}
	var attackRates, unitRates sample
	var wall time.Duration
	for r := 0; r < gridRounds(cfg.seconds); r++ {
		var roundWall time.Duration
		done, roundUnits := 0, 0
		for ci, net := range nets {
			var mu sync.Mutex
			offset := len(units[ci])
			spec.Audit = func(rec experiment.Record) {
				rec.Unit += offset
				mu.Lock()
				records[ci][fmt.Sprintf("%s/%s/%d", rec.Algorithm, rec.CostType, rec.Unit)] = rec
				if rec.OK && !rec.Degraded {
					done++
				}
				mu.Unlock()
			}
			start := time.Now() //lint:allow wallclock benchmark timing; never feeds a result
			u, err := experiment.SampleUnits(net, sampleSpec(spec, r))
			if err != nil {
				return out, fmt.Errorf("%s round %d: sampling: %w", net.Name(), r, err)
			}
			shuffleUnits(u, cfg.seed, r, ci)
			if _, err := experiment.RunTableOnUnitsParallelCtx(ctx, net, u, spec, workers); err != nil {
				return out, fmt.Errorf("%s round %d: table: %w", net.Name(), r, err)
			}
			roundWall += time.Since(start) //lint:allow wallclock benchmark timing; never feeds a result
			units[ci] = append(units[ci], u...)
			roundUnits += len(u)
		}
		wall += roundWall
		attackRates = append(attackRates, float64(done)/roundWall.Seconds())
		unitRates = append(unitRates, float64(roundUnits)/roundWall.Seconds())
	}
	spec.Audit = nil
	peak := selfPeakRSSMB()

	// Everything below runs after timing: recompute each attack with the
	// inputs the table used, match it against the table's record, and
	// certify the cut.
	attacks := replayGrid(ctx, nets, units, spec, workers, nil)
	var byCity [2]sample
	var acre sample
	for ci := range nets {
		for _, r := range records[ci] {
			out.attempted++
			if !r.OK || r.Degraded {
				out.failed++
				continue
			}
			byCity[ci] = append(byCity[ci], r.RuntimeS*1000)
			acre = append(acre, r.Cost)
		}
	}
	sort.Float64s(acre) // records come from a map: fix the summation order
	out.checkErr = checkGrid(nets, units, records, attacks)
	out.digest = gridDigest(nets, units, attacks)

	totalUnits := len(units[0]) + len(units[1])
	v := out.values
	v["setup_s"] = setups.median()
	v["peak_rss_mb"] = peak
	v["ok_ratio"] = ratio(float64(out.attempted-out.failed), float64(out.attempted))
	v["attacks_per_s"] = attackRates.median()
	v["acre"] = acre.mean()
	v["slo_rps"] = unitRates.median()
	for ci, level := range []string{"low", "mid"} {
		p95, q, err := byCity[ci].tail(0.95)
		if err != nil {
			return out, fmt.Errorf("%s attack times: %w", nets[ci].Name(), err)
		}
		fmt.Fprintf(stdout, "paper-grid %s (%s): %d attacks p50=%.3fms p%.1f=%.3fms\n",
			nets[ci].Name(), level, len(byCity[ci]), byCity[ci].median(), 100*q, p95)
	}
	if v["gmean_ms"], err = append(append(sample(nil), byCity[0]...), byCity[1]...).geomean(); err != nil {
		return out, fmt.Errorf("attack times: %w", err)
	}
	fmt.Fprintf(stdout, "paper-grid: %d units (%d sources/hospital in each of %d rounds), %d attacks in %.3fs, %d workers; round rates %.2f attacks/s\n",
		totalUnits, spec.SourcesPerHospital, gridRounds(cfg.seconds), out.attempted, wall.Seconds(), workers, attackRates)
	return out, nil
}

// replayGrid recomputes every (unit, algorithm, cost type) attack exactly
// as the parallel table runner does: cells are handed to workers, each
// worker attacks its own clone of the city with the Problem fields the
// runner sets. With a tracer it records one span per core.RunCtx call.
func replayGrid(ctx context.Context, nets []*roadnet.Network, units [][]experiment.Unit, spec experiment.Spec, workers int, tr *tracer) []attack {
	type job struct {
		city int
		alg  core.Algorithm
		ct   roadnet.CostType
	}
	var jobs []job
	for ci := range nets {
		for _, alg := range spec.Algorithms {
			for _, ct := range spec.CostTypes {
				jobs = append(jobs, job{ci, alg, ct})
			}
		}
	}
	var mu sync.Mutex
	var out []attack
	jobCh := make(chan job)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			locals := make([]*roadnet.Network, len(nets))
			snaps := make([]*graph.Snapshot, len(nets))
			for j := range jobCh {
				if locals[j.city] == nil {
					locals[j.city] = nets[j.city].Clone()
					snaps[j.city] = locals[j.city].Snapshot(spec.WeightType)
				}
				local := locals[j.city]
				weight, cost := local.Weight(spec.WeightType), local.Cost(j.ct)
				for i, u := range units[j.city] {
					p := core.Problem{
						G: local.Graph(), Source: u.Source, Dest: u.Dest, PStar: u.PStar,
						Weight: weight, Cost: cost, Budget: spec.Budget, Snapshot: snaps[j.city],
					}
					opts := spec.Options
					opts.Seed = spec.Seed
					id := tr.begin("core."+j.alg.String(), -1, i)
					res, err := core.RunCtx(ctx, j.alg, p, opts)
					tr.end(id)
					mu.Lock()
					out = append(out, attack{city: j.city, unit: i, alg: j.alg, ct: j.ct, res: res, err: err})
					mu.Unlock()
				}
			}
		}()
	}
	for _, j := range jobs {
		jobCh <- j
	}
	close(jobCh)
	wg.Wait()
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.city != b.city {
			return a.city < b.city
		}
		if a.alg != b.alg {
			return a.alg < b.alg
		}
		if a.ct != b.ct {
			return a.ct < b.ct
		}
		return a.unit < b.unit
	})
	return out
}

// checkGrid matches every recomputed attack against the table's record
// (same outcome, edge count and cost) and certifies every distinct cut.
func checkGrid(nets []*roadnet.Network, units [][]experiment.Unit, records []map[string]experiment.Record, attacks []attack) error {
	for _, a := range attacks {
		r, ok := records[a.city][a.key()]
		switch {
		case !ok:
			return fmt.Errorf("%s %s: the table recorded no result", nets[a.city].Name(), a.key())
		case r.OK != (a.err == nil):
			return fmt.Errorf("%s %s: table ok=%v, recomputation error %v", nets[a.city].Name(), a.key(), r.OK, a.err)
		case r.OK && (r.Edges != len(a.res.Removed) || r.Cost != a.res.TotalCost): //lint:allow floateq the same deterministic computation must give the same bits
			return fmt.Errorf("%s %s: table cut (%d edges, cost %v) differs from recomputation (%d edges, cost %v)",
				nets[a.city].Name(), a.key(), r.Edges, r.Cost, len(a.res.Removed), a.res.TotalCost)
		}
	}
	return certifyAll(nets, units, attacks)
}

// certifyAll certifies every successful attack's cut, each distinct
// (city, unit, cut) once, on nproc goroutines.
func certifyAll(nets []*roadnet.Network, units [][]experiment.Unit, attacks []attack) error {
	type job struct {
		a   attack
		sig string
	}
	seen := map[string]bool{}
	var jobs []job
	for _, a := range attacks {
		if a.err != nil {
			return fmt.Errorf("%s %s: attack failed: %w", nets[a.city].Name(), a.key(), a.err)
		}
		cost := core.TotalCost(nets[a.city].Cost(a.ct), a.res.Removed)
		if diff := cost - a.res.TotalCost; diff > 1e-9*max(1, cost) || -diff > 1e-9*max(1, cost) {
			return fmt.Errorf("%s %s: reported cost %v, the cut's edges cost %v", nets[a.city].Name(), a.key(), a.res.TotalCost, cost)
		}
		sig := fmt.Sprintf("%d/%d/%v", a.city, a.unit, sortedEdges(a.res.Removed))
		if !seen[sig] {
			seen[sig] = true
			jobs = append(jobs, job{a, sig})
		}
	}
	errs := make([]error, len(jobs))
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				a := jobs[i].a
				net := nets[a.city]
				if err := certify(net.Graph(), net.Weight(roadnet.WeightTime), units[a.city][a.unit].PStar, a.res.Removed); err != nil {
					errs[i] = fmt.Errorf("%s %s: cut not certified: %w", net.Name(), a.key(), err)
				}
			}
		}()
	}
	for i := range jobs {
		next <- i
	}
	close(next)
	wg.Wait()
	return errors.Join(errs...)
}

func sortedEdges(es []graph.EdgeID) []graph.EdgeID {
	c := append([]graph.EdgeID(nil), es...)
	sort.Slice(c, func(i, j int) bool { return c[i] < c[j] })
	return c
}

// gridDigest is one line per attack, sorted: city, cell, source and
// hospital, the removed edges in the order chosen, and the total cost.
func gridDigest(nets []*roadnet.Network, units [][]experiment.Unit, attacks []attack) []string {
	lines := make([]string, 0, len(attacks))
	for _, a := range attacks {
		u := units[a.city][a.unit]
		lines = append(lines, fmt.Sprintf("%s %s/%s %d→%d removed=%v cost=%v",
			nets[a.city].Name(), a.alg, a.ct, u.Source, u.Dest, a.res.Removed, a.res.TotalCost))
	}
	sort.Strings(lines)
	return lines
}

// selfPeakRSSMB is this process's peak resident set (VmHWM) in MiB.
func selfPeakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// runGridTraced is the traced paper-grid mode. It repeats the sampler's
// loop with a span around each core.PStarByRank, runs the grid's attacks
// with a span around each core.RunCtx, and probes graph.Freeze,
// graph.EdgeEigenScores and Router.ReversePotential on the same inputs.
// The untraced sampler and table runner then run on the same inputs, for
// the tracing overhead and the time no span covers.
func runGridTraced(ctx context.Context, cfg config, stdout io.Writer, nets []*roadnet.Network, setups sample) (outcome, error) {
	spec := gridSpec(cfg)
	workers := runtime.NumCPU()
	tr := newTracer()
	out := outcome{values: map[string]float64{}}
	v := out.values

	var tried, accepted int
	units := make([][]experiment.Unit, len(nets))
	var tracedWall, untracedWall, tableWall time.Duration
	for _, net := range nets {
		w := net.Weight(spec.WeightType)
		tr.do("graph.Freeze", -1, -1, func() { graph.Freeze(net.Graph(), w) })
		tr.do("graph.EdgeEigenScores", -1, -1, func() { graph.EdgeEigenScores(net.Graph(), graph.EigenOptions{}) })
	}
	// The rounds' units: traced sampling, then the untraced sampler on the
	// same seed, which must pick the same units.
	roundUnits := make([][][]experiment.Unit, gridRounds(cfg.seconds))
	for r := range roundUnits {
		roundUnits[r] = make([][]experiment.Unit, len(nets))
		for ci, net := range nets {
			start := time.Now() //lint:allow wallclock benchmark timing; never feeds a result
			u, t, a := tracedSample(net, sampleSpec(spec, r), tr)
			tracedWall += time.Since(start) //lint:allow wallclock benchmark timing; never feeds a result
			tried, accepted = tried+t, accepted+a

			start = time.Now() //lint:allow wallclock benchmark timing; never feeds a result
			ref, err := experiment.SampleUnits(net, sampleSpec(spec, r))
			untracedWall += time.Since(start) //lint:allow wallclock benchmark timing; never feeds a result
			if err != nil {
				return out, fmt.Errorf("%s round %d: sampling: %w", net.Name(), r, err)
			}
			if err := sameUnits(u, ref); err != nil {
				return out, fmt.Errorf("%s: the traced sampler diverged from experiment.SampleUnits: %w", net.Name(), err)
			}
			shuffleUnits(u, cfg.seed, r, ci)
			roundUnits[r][ci] = u
			units[ci] = append(units[ci], u...)
		}
	}
	for ci, net := range nets {
		r := graph.NewRouter(net.Graph())
		r.UseSnapshot(net.Snapshot(spec.WeightType))
		w := net.Weight(spec.WeightType)
		for i, un := range units[ci] {
			tr.do("graph.ReversePotential", -1, i, func() { r.ReversePotential(un.Dest, w) })
		}
	}
	// The traced table runs round by round like the untraced one, so the
	// two walls compare the same work in the same grouping.
	var attacks []attack
	offsets := make([]int, len(nets))
	for r := range roundUnits {
		start := time.Now() //lint:allow wallclock benchmark timing; never feeds a result
		ra := replayGrid(ctx, nets, roundUnits[r], spec, workers, tr)
		tableWall += time.Since(start) //lint:allow wallclock benchmark timing; never feeds a result
		for i := range ra {
			ra[i].unit += offsets[ra[i].city]
		}
		attacks = append(attacks, ra...)
		for ci := range nets {
			offsets[ci] += len(roundUnits[r][ci])
		}
	}
	tracedWall += tableWall
	for r := range roundUnits {
		for ci, net := range nets {
			start := time.Now() //lint:allow wallclock benchmark timing; never feeds a result
			if _, err := experiment.RunTableOnUnitsParallelCtx(ctx, net, roundUnits[r][ci], spec, workers); err != nil {
				return out, fmt.Errorf("%s: table: %w", net.Name(), err)
			}
			untracedWall += time.Since(start) //lint:allow wallclock benchmark timing; never feeds a result
		}
	}

	out.attempted = len(attacks)
	for _, a := range attacks {
		if a.err != nil || a.res.Degraded {
			out.failed++
		}
	}
	out.checkErr = certifyAll(nets, units, attacks)
	out.digest = gridDigest(nets, units, attacks)
	path, err := tr.write(filepath.Join(cfg.root, ".bench_build", "traces"), fmt.Sprintf("paper-grid-seed%d.jsonl", cfg.seed))
	if err != nil {
		return out, err
	}
	fmt.Fprintf(stdout, "trace: %d spans in %s\n", len(tr.spans), path)

	self := byName(tr.spans)
	yen, attackMS := self["graph.yen"], sample{}
	for _, alg := range spec.Algorithms {
		attackMS = append(attackMS, self["core."+alg.String()]...)
	}
	v["citygen.build_s"] = setups.median()
	v["graph.freeze_ms"] = self["graph.Freeze"].sum()
	v["graph.yen_ms.p50"] = yen.median()
	v["graph.yen_ms.p95"] = yen.tailOrZero(0.95)
	v["graph.sample_accept_ratio"] = ratio(float64(accepted), float64(tried))
	v["graph.potential_ms"] = self["graph.ReversePotential"].median()
	v["graph.eigen_ms"] = self["graph.EdgeEigenScores"].mean()
	coreMetrics(v, spec.Algorithms, self, attacks)
	v["experiment.worker_busy_share"] = attackMS.sum() / (float64(workers) * float64(tableWall) / float64(time.Millisecond))
	covered := yen.sum() + attackMS.sum()/float64(workers)
	untracedMS := float64(untracedWall) / float64(time.Millisecond)
	v["trace.overhead_share"] = float64(tracedWall-untracedWall) / float64(untracedWall)
	v["trace.unaccounted_share"] = 1 - covered/untracedMS
	zeroMissing(v)
	fmt.Fprintf(stdout, "paper-grid traced: %d sources tried, %d accepted; traced %.3fs, untraced %.3fs\n",
		tried, accepted, tracedWall.Seconds(), untracedWall.Seconds())
	return out, nil
}

// coreMetrics fills the core.<alg> rows: self-time percentiles of each
// algorithm's core.RunCtx spans, and its rounds and constraint paths
// summed over the attacks (counts that repeat exactly).
func coreMetrics(v map[string]float64, algs []core.Algorithm, self map[string]sample, attacks []attack) {
	for _, alg := range algs {
		name := "core." + alg.String()
		ms := self[name]
		v[name+".ms.p50"] = ms.median()
		v[name+".ms.p95"] = ms.tailOrZero(0.95)
		rounds, paths := 0, 0
		for _, a := range attacks {
			if a.alg == alg && a.err == nil {
				rounds += a.res.Rounds
				paths += a.res.ConstraintPaths
			}
		}
		v[name+".rounds"] = float64(rounds)
		v[name+".constraint_paths"] = float64(paths)
	}
}

// tracedSample repeats experiment.SampleUnits' loop (same generator, same
// order, same resampling rule) with a span around each core.PStarByRank,
// and returns the units with the number of sources tried and accepted.
func tracedSample(net *roadnet.Network, spec experiment.Spec, tr *tracer) (units []experiment.Unit, tried, accepted int) {
	w := net.Weight(spec.WeightType)
	n := net.NumIntersections()
	rng := rand.New(rand.NewSource(spec.Seed ^ 0x5eed))
	for _, h := range net.POIsOfKind(citygen.KindHospital) {
		found := 0
		for attempt := 0; found < spec.SourcesPerHospital && attempt <= 80*spec.SourcesPerHospital; attempt++ {
			src := graph.NodeID(rng.Intn(n))
			if src == h.Node {
				continue
			}
			tried++
			var pstar graph.Path
			var err error
			tr.do("graph.yen", -1, tried, func() { pstar, err = core.PStarByRank(net.Graph(), src, h.Node, spec.PathRank, w) })
			if err != nil {
				continue
			}
			accepted++
			units = append(units, experiment.Unit{Source: src, Dest: h.Node, Hospital: h.Name, PStar: pstar})
			found++
		}
	}
	return units, tried, accepted
}

func sameUnits(a, b []experiment.Unit) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d units, want %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Source != b[i].Source || a[i].Dest != b[i].Dest || fmt.Sprint(a[i].PStar.Edges) != fmt.Sprint(b[i].PStar.Edges) {
			return fmt.Errorf("unit %d is %d→%d, want %d→%d", i, a[i].Source, a[i].Dest, b[i].Source, b[i].Dest)
		}
	}
	return nil
}

// zeroMissing sets every per-layer metric a workload does not exercise
// to 0, so each traced run prints the full declared list.
func zeroMissing(v map[string]float64) {
	for _, name := range perLayerNames() {
		if _, ok := v[name]; !ok {
			v[name] = 0
		}
	}
}

// perLayerNames lists every per-layer metric the traced modes can fill.
func perLayerNames() []string {
	names := []string{
		"citygen.build_s", "registry.preload_s", "graph.freeze_ms",
		"registry.result_hit_ratio", "registry.coalesce_joins",
		"registry.pathset_hit_ratio", "registry.pool_miss_ratio",
		"registry.result_hits", "registry.result_misses", "registry.result_evictions",
		"registry.pathset_hits", "registry.pathset_misses", "registry.pathset_evictions",
		"registry.coalesce_leaders", "registry.pool_hits", "registry.pool_misses", "registry.pool_stale",
		"graph.yen_ms.p50", "graph.yen_ms.p95", "graph.sample_accept_ratio",
		"graph.potential_ms", "graph.eigen_ms",
		"experiment.worker_busy_share",
		"server.non_attack_ms.p50", "server.queued_max", "server.rank_unavailable",
		"server.cached_replies", "server.coalesced_replies",
		"audit.append_us.p50", "audit.records_per_fsync", "audit.flush_ms", "audit.appended", "audit.fsyncs",
		"gen.lag_ms.p95", "trace.overhead_share", "trace.unaccounted_share",
	}
	for _, alg := range core.Algorithms() {
		for _, q := range []string{".ms.p50", ".ms.p95", ".rounds", ".constraint_paths"} {
			names = append(names, "core."+alg.String()+q)
		}
	}
	return names
}

// cityLabel is the server's name for a grid city.
func cityLabel(net *roadnet.Network) string { return strings.ToLower(net.Name()) }
