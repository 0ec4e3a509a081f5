package main

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"subgraphmatching/internal/core"
	"subgraphmatching/internal/intersect"
	"subgraphmatching/internal/service"
)

// traceReport is the outcome of a traced run: the per-layer metrics plus the
// operation counts of its timed phases.
type traceReport struct {
	metrics           []metric
	attempted, failed int
	wrong             error
}

// layerSums accumulates the per-request breakdown of a traced phase.
// The client's time per request (the traced passes' wall time over the
// requests, the inverse of their request rate) splits into admission wait,
// preprocessing (filter + build + order) and enumeration as the
// Response reports them; the service's overhead, the rest of the
// benchmark's span around Submit (plan-cache lookup, validation, spans,
// metrics, flight recorder, whether inside the service's own root span
// or not); and other, the client's loop outside Submit (building the
// request, checking the count, recording the sample). The five parts
// add up to the client's time.
type layerSums struct {
	n                                        int
	client, wall, queue, pre, enum, overhead time.Duration
	negative                                 int // requests with a part below zero
	hits                                     int
	candidates                               float64
	nodes                                    uint64
	kernels                                  intersect.KernelStats
	parallel                                 int
	balance                                  float64
	steals, splitTasks, probes               uint64
	predicted, measured                      uint64
}

// observe records one request: wall is the benchmark's span around Submit.
func (s *layerSums) observe(wall time.Duration, resp *service.Response) {
	res := resp.Result
	pre := res.FilterTime + res.BuildTime + res.OrderTime
	overhead := wall - resp.QueueWait - pre - res.EnumTime
	if overhead < 0 {
		s.negative++
	}
	s.n++
	s.wall += wall
	s.queue += resp.QueueWait
	s.pre += pre
	s.enum += res.EnumTime
	s.overhead += overhead
	if resp.CacheHit {
		s.hits++
	}
	s.candidates += res.MeanCandidates
	s.nodes += res.Nodes
	s.kernels.Add(res.Kernels)
	if len(res.WorkerNodes) > 0 {
		var sum, max uint64
		for _, n := range res.WorkerNodes {
			sum += n
			if n > max {
				max = n
			}
		}
		if max > 0 {
			s.parallel++
			s.balance += float64(sum) / float64(max)
		}
	}
	for _, ws := range res.Workers {
		s.steals += ws.Steals
	}
	if sp := res.Split; sp != nil {
		s.splitTasks += uint64(sp.SplitTasks)
		s.probes += sp.Probes
		s.predicted += sp.PredictedNodes
		s.measured += res.Nodes - sp.Probes
	}
}

// replayStats are the figures of the replay: every item preprocessed and
// enumerated directly through core.Preprocess and core.MatchPlan.
type replayStats struct {
	plans                int
	filter, build, order time.Duration
	planBytes            int64
	enumOne, enumMany    time.Duration // enumeration at one worker and at the workload's count
}

// replay builds every item's plan with core.Preprocess and enumerates it
// with core.MatchPlan, bypassing the service. On a parallel workload each
// plan is enumerated at one worker and at the workload's worker count,
// which gives the wall-clock parallel speedup.
func (w workload) replay(in *inputs) (replayStats, error) {
	var st replayStats
	workers := w.workers
	if workers < 1 {
		workers = 1
	}
	for _, it := range in.items {
		q := in.queries[it.query]
		plan, err := core.Preprocess(q, in.g, core.PresetConfig(it.preset, q, in.g), workers)
		if err != nil {
			return st, fmt.Errorf("%s: replay preprocess: %w", it.name(), err)
		}
		st.plans++
		st.filter += plan.FilterTime
		st.build += plan.BuildTime
		st.order += plan.OrderTime
		st.planBytes += plan.SizeBytes()
		if workers == 1 {
			continue
		}
		for _, p := range []int{1, workers} {
			t0 := time.Now()
			res, err := core.MatchPlan(plan, core.Limits{MaxEmbeddings: w.cap, Parallel: p, Cancel: new(atomic.Bool)})
			d := time.Since(t0)
			if err != nil {
				return st, fmt.Errorf("%s: replay at %d workers: %w", it.name(), p, err)
			}
			if res.Embeddings != it.want.count {
				return st, fmt.Errorf("%s: replay at %d workers: %d embeddings, reference counts %d",
					it.name(), p, res.Embeddings, it.want.count)
			}
			if p == 1 {
				st.enumOne += d
			} else {
				st.enumMany += d
			}
		}
	}
	return st, nil
}

// traced alternates untraced passes, as the end-to-end run makes them,
// with passes that record the per-request breakdown, until d has
// elapsed; alternating keeps the machine's drift out of the difference
// in mean latency, which is the tracing overhead. The replay then
// supplies the per-plan preprocessing figures and, on the parallel
// workload, the wall-clock speedup.
func (w workload) traced(ctx context.Context, r ready, in *inputs, st setupStats, d time.Duration) (*traceReport, error) {
	var base, p phase
	var s layerSums
	cache0 := r.svc.Stats().Cache
	for t0 := time.Now(); time.Since(t0) < d; {
		base.add(w.passes(ctx, r.svc, in, 0, nil))
		rec := w.passes(ctx, r.svc, in, 0, s.observe)
		s.client += rec.wall
		p.add(rec)
	}
	cache1 := r.svc.Stats().Cache
	untracedMean := float64(sum(base.latency)) / float64(len(base.latency))
	base.add(p)
	rp, err := w.replay(in)
	if err != nil {
		return &traceReport{wrong: err}, nil
	}
	if s.negative > 0 {
		return nil, fmt.Errorf("%d requests had a negative part in the layer breakdown", s.negative)
	}
	tr := &traceReport{attempted: base.attempted, failed: base.failed, wrong: base.wrong}
	all := float64(len(base.latency))
	n := float64(s.n)
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 / n }
	perPlanMS := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 / float64(rp.plans) }
	balance, speedup, predicted := 1.0, 1.0, 0.0
	if s.parallel > 0 {
		balance = s.balance / float64(s.parallel)
	}
	if rp.enumMany > 0 {
		speedup = float64(rp.enumOne) / float64(rp.enumMany)
	}
	if s.measured > 0 {
		predicted = float64(s.predicted) / float64(s.measured)
	}
	tr.metrics = []metric{
		{"request.wall_us", "us", us(s.client)},
		{"service.queue_wait_us", "us", us(s.queue)},
		{"request.preprocess_us", "us", us(s.pre)},
		{"enumerate.ms", "ms", us(s.enum) / 1e3},
		{"service.overhead_us", "us", us(s.overhead)},
		{"other_us", "us", us(s.client - s.wall)},
		{"service.cache_hit_ratio", "ratio", float64(s.hits) / n},
		{"service.evictions_per_req", "count", float64(cache1.Evictions-cache0.Evictions) / all},
		{"filter.ms", "ms", perPlanMS(rp.filter)},
		{"filter.candidates_per_qvertex", "count", s.candidates / n},
		{"candspace.build_ms", "ms", perPlanMS(rp.build)},
		{"candspace.plan_kb", "KiB", float64(rp.planBytes) / 1024 / float64(rp.plans)},
		{"order.ms", "ms", perPlanMS(rp.order)},
		{"enumerate.mnodes_per_s", "Mnodes/s", float64(s.nodes) / s.enum.Seconds() / 1e6},
		{"intersect.merge_per_req", "count", float64(s.kernels[intersect.KernelMerge]) / n},
		{"intersect.gallop_per_req", "count", float64(s.kernels[intersect.KernelGallop]) / n},
		{"intersect.block_per_req", "count", float64(s.kernels[intersect.KernelBlock]) / n},
		{"core.balance", "ratio", balance},
		{"core.wall_speedup", "ratio", speedup},
		{"core.steals_per_req", "count", float64(s.steals) / n},
		{"core.split_tasks_per_req", "count", float64(s.splitTasks) / n},
		{"core.probe_nodes_per_req", "count", float64(s.probes) / n},
		{"core.predicted_over_measured", "ratio", predicted},
		{"store.open_ms", "ms", median(st.openMS)},
		{"store.snapshot_mb", "MiB", st.snapshotMB},
		{"runtime.gc_cycles_per_kreq", "count", float64(base.gcCycles) * 1000 / all},
		{"trace.overhead_pct", "%", (float64(s.wall)/n - untracedMean) / untracedMean * 100},
	}
	return tr, nil
}

func sum(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}
