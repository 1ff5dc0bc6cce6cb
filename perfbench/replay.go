package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"sort"
	"time"

	"altroute/internal/audit"
	"altroute/internal/core"
	"altroute/internal/graph"
	"altroute/internal/registry"
	"altroute/internal/roadnet"
	"altroute/internal/server"
)

// The traced serving mode replays the low rate's requests in-process,
// calling the layers in the order the server's attack handler does:
//
//	cold: registry.Cache.Get (results, then path sets) → Shard.Potential →
//	      Router.KShortestWithPotential → Shard.AcquireClone → core.RunCtx →
//	      audit.Ledger.Append → JSON encode
//	hit:  registry.Cache.Get → audit.Ledger.Append → JSON encode
//
// HTTP, admission and coalescing are not replayed; the share of the
// served p50 they take is what trace.unaccounted_share reports.

type replayKey struct {
	city     int
	src, dst int64
	alg      core.Algorithm
	ct       roadnet.CostType
}

type replayPathKey struct {
	city     int
	src, dst int64
}

// replayer holds one replay's caches and ledger over shared shards.
type replayer struct {
	plan     servePlan
	shards   []*registry.Shard
	ledger   *audit.Ledger
	results  *registry.Cache[replayKey, core.Result]
	pathsets *registry.Cache[replayPathKey, []graph.Path]
	tr       *tracer

	tried, accepted int
	attacks         []attack
}

// replay serves the warm-up requests untraced (serve-hot fills its cache
// this way), then seq under tr, and returns the replayer, the answers to
// seq in order, and the wall time of seq.
func replay(ctx context.Context, plan servePlan, shards []*registry.Shard, ledgerDir string, seq []int, hot bool, tr *tracer) (*replayer, []reply, time.Duration, error) {
	ledger, err := audit.Open(audit.Config{Dir: ledgerDir, RotateBytes: 64 << 20, CompactKeep: 16})
	if err != nil {
		return nil, nil, 0, err
	}
	defer ledger.Close()
	rp := &replayer{
		plan: plan, shards: shards, ledger: ledger,
		results:  registry.NewCache[replayKey, core.Result](64 << 20),
		pathsets: registry.NewCache[replayPathKey, []graph.Path](16 << 20),
	}
	if hot {
		for _, i := range plan.warm {
			if _, err := rp.serve(ctx, -1, i); err != nil {
				return nil, nil, 0, err
			}
		}
	}
	rp.tr = tr
	answers := make([]reply, len(seq))
	start := time.Now() //lint:allow wallclock benchmark timing; never feeds a result
	for n, i := range seq {
		if answers[n], err = rp.serve(ctx, n, i); err != nil {
			return nil, nil, 0, err
		}
	}
	return rp, answers, time.Since(start), ledger.Err() //lint:allow wallclock benchmark timing; never feeds a result
}

// serve answers request i as the server would, with one span per layer
// call under a "request" span numbered n.
func (rp *replayer) serve(ctx context.Context, n, i int) (reply, error) {
	tr := rp.tr
	req := rp.plan.reqs[i]
	w := req.wire
	shard := rp.shards[req.city]
	alg, err := core.ParseAlgorithm(w.Algorithm)
	if err != nil {
		return reply{}, err
	}
	ct, err := roadnet.ParseCostType(w.Cost)
	if err != nil {
		return reply{}, err
	}
	wt := roadnet.WeightTime
	src, dst := graph.NodeID(w.Source), graph.NodeID(w.Dest)
	root := tr.begin("request", -1, n)
	defer tr.end(root)

	key := replayKey{req.city, w.Source, w.Dest, alg, ct}
	var res core.Result
	var hit bool
	tr.do("registry.Cache.Get", root, n, func() { res, hit = rp.results.Get(key) })
	rankErr := false
	if !hit {
		pk := replayPathKey{req.city, w.Source, w.Dest}
		var paths []graph.Path
		var ok bool
		tr.do("registry.Cache.Get", root, n, func() { paths, ok = rp.pathsets.Get(pk) })
		if !ok {
			var pot *graph.Potential
			tr.do("registry.Shard.Potential", root, n, func() { pot = shard.Potential(ctx, wt, dst) })
			tr.do("graph.KShortestWithPotential", root, n, func() {
				r := shard.AcquireRouter()
				r.SetContext(ctx)
				r.UseSnapshot(shard.Snapshot(wt))
				paths = r.KShortestWithPotential(src, dst, w.Rank, shard.Net().Weight(wt), pot)
				shard.ReleaseRouter(r)
			})
			rp.pathsets.Add(pk, paths, int64(64+len(paths)*256))
		}
		rp.tried++
		if len(paths) < w.Rank {
			rankErr = true
		} else {
			rp.accepted++
			var clone *roadnet.Network
			var gen uint64
			tr.do("registry.Shard.AcquireClone", root, n, func() { clone, gen = shard.AcquireClone() })
			p := core.Problem{
				G: clone.Graph(), Source: src, Dest: dst, PStar: paths[w.Rank-1],
				Weight: clone.Weight(wt), Cost: clone.Cost(ct), Snapshot: clone.Snapshot(wt),
				Potential: shard.Potential(ctx, wt, dst),
			}
			tr.do("core."+alg.String(), root, n, func() { res, err = core.RunCtx(ctx, alg, p, core.Options{Seed: w.Seed}) })
			shard.ReleaseClone(clone, gen)
			if err != nil {
				return reply{}, fmt.Errorf("replaying request %d: %w", i, err)
			}
			if n >= 0 {
				rp.attacks = append(rp.attacks, attack{city: req.city, unit: i, alg: alg, ct: ct, res: res})
			}
			rp.results.Add(key, res, int64(160+8*len(res.Removed)))
		}
	}

	rec := audit.Record{Kind: "attack", City: w.City, Source: w.Source, Dest: w.Dest, Rank: w.Rank,
		Algorithm: alg.String(), Weight: wt.String(), Cost: ct.String(), Seed: w.Seed}
	var body any
	var rep reply
	if rankErr {
		rec.FailKind = "rank"
		body = server.ErrorResponse{Error: "rank unavailable", Kind: "rank"}
		rep = reply{Kind: "rank"}
	} else {
		rec.OK, rec.Removed, rec.TotalCost, rec.Cached = true, len(res.Removed), res.TotalCost, hit
		removed := make([]int64, len(res.Removed))
		for k, e := range res.Removed {
			removed[k] = int64(e)
		}
		body = server.AttackResponse{City: w.City, Algorithm: alg.String(), Removed: removed, TotalCost: res.TotalCost,
			Rounds: res.Rounds, ConstraintPaths: res.ConstraintPaths, RuntimeMS: float64(res.Runtime) / float64(time.Millisecond),
			Breaker: "closed", Cached: hit}
		rep = reply{Removed: removed, TotalCost: res.TotalCost, Cached: hit}
	}
	var aerr error
	tr.do("audit.Ledger.Append", root, n, func() { _, aerr = rp.ledger.Append(rec) })
	if aerr != nil {
		return reply{}, aerr
	}
	tr.do("encode", root, n, func() { err = json.NewEncoder(io.Discard).Encode(body) })
	return rep, err
}

// traceServe is the traced serving mode's second half: with the server
// stopped, it builds the shards in-process, replays the low rate's
// requests untraced and then traced, checks the replayed answers against
// the served ones, and fills the per-layer metrics.
func traceServe(ctx context.Context, cfg config, stdout io.Writer, plan servePlan, nets []*roadnet.Network, low []shot, lowStats rateStats,
	ctr counters, queuedMax int, buildTime time.Duration, hot bool, v map[string]float64) error {
	tr := newTracer()
	shards := make([]*registry.Shard, len(nets))
	for i, net := range nets {
		var err error
		tr.do("registry.NewShard", -1, -1, func() { shards[i], err = registry.NewShard(ctx, cityLabel(net), net, cfg.capacity) })
		if err != nil {
			return err
		}
	}
	if !hot {
		for _, net := range nets {
			tr.do("graph.EdgeEigenScores", -1, -1, func() { graph.EdgeEigenScores(net.Graph(), graph.EigenOptions{}) })
		}
	}
	seq := plan.picks[0]
	_, _, untracedWall, err := replay(ctx, plan, shards, filepath.Join(cfg.workDir, "replay-untraced"), seq, hot, nil)
	if err != nil {
		return err
	}
	rp, answers, tracedWall, err := replay(ctx, plan, shards, filepath.Join(cfg.workDir, "replay-traced"), seq, hot, tr)
	if err != nil {
		return err
	}
	for n, s := range low {
		if s.ok() && (answers[n].Kind != s.rep.Kind || !sameReply(answers[n], s.rep)) {
			return fmt.Errorf("request %d: in-process replay answered %v/%v, the server %v/%v",
				s.req, answers[n].Removed, answers[n].TotalCost, s.rep.Removed, s.rep.TotalCost)
		}
	}
	path, err := tr.write(filepath.Join(cfg.root, ".bench_build", "traces"), fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "trace: %d spans in %s; replay traced %.3fs, untraced %.3fs\n", len(tr.spans), path, tracedWall.Seconds(), untracedWall.Seconds())

	self := byName(tr.spans)
	covered := sample{}
	perReq := map[int]float64{}
	for _, s := range tr.spans {
		if s.Parent >= 0 && tr.spans[s.Parent].Name == "request" {
			perReq[s.Req] += float64(s.dur()) / float64(time.Millisecond)
		}
	}
	for _, c := range perReq {
		covered = append(covered, c)
	}
	sort.Float64s(covered)
	var nonAttack sample
	rank, cached, coalesced := 0, 0, 0
	for _, s := range low {
		switch {
		case s.status == http.StatusUnprocessableEntity && s.rep.Kind == "rank":
			rank++
		case s.ok():
			rt := s.rep.RuntimeMS
			if s.rep.Cached {
				rt = 0 // a hit runs no attack; runtime_ms is the original computation's
			}
			nonAttack = append(nonAttack, float64(s.service)/float64(time.Millisecond)-rt)
		}
		if s.rep.Cached {
			cached++
		}
		if s.rep.Coalesced {
			coalesced++
		}
	}

	v["citygen.build_s"] = buildTime.Seconds()
	v["registry.preload_s"] = self["registry.NewShard"].sum() / 1000
	v["graph.freeze_ms"] = ctr.freezeMS
	v["registry.result_hit_ratio"] = ratio(float64(ctr.resultHits), float64(ctr.resultHits+ctr.resultMisses))
	v["registry.coalesce_joins"] = float64(ctr.joins)
	v["registry.pathset_hit_ratio"] = ratio(float64(ctr.pathsetHits), float64(ctr.pathsetHits+ctr.pathsetMisses))
	v["registry.pool_miss_ratio"] = ratio(float64(ctr.poolMisses), float64(ctr.poolHits+ctr.poolMisses))
	v["registry.result_hits"], v["registry.result_misses"], v["registry.result_evictions"] =
		float64(ctr.resultHits), float64(ctr.resultMisses), float64(ctr.resultEvictions)
	v["registry.pathset_hits"], v["registry.pathset_misses"], v["registry.pathset_evictions"] =
		float64(ctr.pathsetHits), float64(ctr.pathsetMisses), float64(ctr.pathsetEvictions)
	v["registry.coalesce_leaders"] = float64(ctr.leaders)
	v["registry.pool_hits"], v["registry.pool_misses"], v["registry.pool_stale"] =
		float64(ctr.poolHits), float64(ctr.poolMisses), float64(ctr.poolStale)
	yen := self["graph.KShortestWithPotential"]
	v["graph.yen_ms.p50"] = yen.median()
	v["graph.yen_ms.p95"] = yen.tailOrZero(0.95)
	if !hot {
		v["graph.sample_accept_ratio"] = ratio(float64(rp.accepted), float64(rp.tried))
	}
	v["graph.eigen_ms"] = self["graph.EdgeEigenScores"].mean()
	coreMetrics(v, core.Algorithms(), self, rp.attacks)
	v["server.non_attack_ms.p50"] = nonAttack.median()
	v["server.queued_max"] = float64(queuedMax)
	v["server.rank_unavailable"] = float64(rank)
	v["server.cached_replies"] = float64(cached)
	v["server.coalesced_replies"] = float64(coalesced)
	v["audit.append_us.p50"] = self["audit.Ledger.Append"].median() * 1000
	v["audit.records_per_fsync"] = ratio(float64(ctr.appended), float64(ctr.fsyncs))
	v["audit.flush_ms"] = ctr.lastFlushMS
	v["audit.appended"], v["audit.fsyncs"] = float64(ctr.appended), float64(ctr.fsyncs)
	v["gen.lag_ms.p95"] = lowStats.lagP95
	v["trace.overhead_share"] = float64(tracedWall-untracedWall) / float64(untracedWall)
	v["trace.unaccounted_share"] = 1 - covered.median()/lowStats.p50
	zeroMissing(v)
	return nil
}
