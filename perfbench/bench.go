package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	"subgraphmatching/internal/graph"
	"subgraphmatching/internal/service"
	"subgraphmatching/internal/store"
)

// A run brings a cold service to ready at least setupRounds times and
// until setupBudget has been spent on it (at most maxSetupRounds);
// setup_s is the median round. Serve-miss's set-up is one store.Open of
// a few milliseconds, so it takes many rounds to steady its median.
const (
	setupRounds    = 5
	setupBudget    = 2 * time.Second
	maxSetupRounds = 200
)

// workDir holds the benchmark's build output and its scratch data
// directories, relative to the checkout root the command runs from.
const workDir = ".bench_build"

// writeDataDir persists g into a fresh store directory and closes it, so
// that every set-up round opens the same checkpointed state (manifest,
// empty log, one snapshot).
func writeDataDir(dir string, g *graph.Graph) error {
	svc := service.New(service.Config{})
	mgr, err := store.Open(svc, store.Options{Dir: dir})
	if err != nil {
		return err
	}
	if _, err := mgr.RegisterGraph(graphName, g, false); err != nil {
		mgr.Close()
		return err
	}
	return mgr.Close()
}

// ready is a service brought up from the data directory.
type ready struct {
	svc *service.Service
	mgr *store.Manager
}

func (r ready) close() {
	r.mgr.Close()
	r.svc.Close()
}

// setupStats are the set-up figures of one run.
type setupStats struct {
	seconds    []float64 // cold service to ready, per round
	openMS     []float64 // store.Open alone, per round
	snapshotMB float64
}

// setUp brings a cold service to ready repeatedly: store.Open on
// the data directory (snapshot load and registry replay), then, on
// workloads that serve from warm plans, one build of every plan. It
// returns the last round's service.
func (w workload) setUp(ctx context.Context, dir string, in *inputs) (ready, setupStats, error) {
	var st setupStats
	var r ready
	var spent time.Duration
	for round := 0; round < maxSetupRounds && (round < setupRounds || spent < setupBudget); round++ {
		if round > 0 {
			r.close()
		}
		runtime.GC()
		r.svc = service.New(service.Config{})
		t0 := time.Now()
		mgr, err := store.Open(r.svc, store.Options{Dir: dir})
		if err != nil {
			return ready{}, st, fmt.Errorf("store.Open: %w", err)
		}
		r.mgr = mgr
		open := time.Since(t0)
		if w.warmPlans {
			for _, it := range in.items {
				if _, err := r.svc.Explain(ctx, w.request(in, it)); err != nil {
					r.close()
					return ready{}, st, fmt.Errorf("%s: plan build: %w", it.name(), err)
				}
			}
		}
		took := time.Since(t0)
		spent += took
		st.seconds = append(st.seconds, took.Seconds())
		st.openMS = append(st.openMS, float64(open.Nanoseconds())/1e6)
	}
	st.snapshotMB = float64(r.mgr.Stats().SnapBytes) / (1 << 20)
	return r, st, nil
}

// phase is what one pass loop measured.
type phase struct {
	attempted, failed int
	wall              time.Duration
	latency           []time.Duration   // completed requests, in order
	byItem            [][]time.Duration // completed requests, per item of the list
	nodes             uint64
	cpu               time.Duration // user + system
	allocBytes        uint64
	gcCycles          uint64
	rssPeakKB         int64
	wrong             error // first answer that disagreed with the reference
}

// add merges q, measured after p, into p.
func (p *phase) add(q phase) {
	p.attempted += q.attempted
	p.failed += q.failed
	p.wall += q.wall
	p.latency = append(p.latency, q.latency...)
	if p.byItem == nil {
		p.byItem = make([][]time.Duration, len(q.byItem))
	}
	for i, xs := range q.byItem {
		p.byItem[i] = append(p.byItem[i], xs...)
	}
	p.nodes += q.nodes
	p.cpu += q.cpu
	p.allocBytes += q.allocBytes
	p.gcCycles += q.gcCycles
	p.rssPeakKB = q.rssPeakKB
	if p.wrong == nil {
		p.wrong = q.wrong
	}
}

// passes runs the item list in whole passes, one request at a time,
// until at least d has elapsed. d = 0 runs exactly one pass (the
// warm-up). obs, when non-nil, sees every completed request.
func (w workload) passes(ctx context.Context, svc *service.Service, in *inputs, d time.Duration, obs func(wall time.Duration, resp *service.Response)) phase {
	p := phase{byItem: make([][]time.Duration, len(in.items))}
	cpu0 := cpuTime()
	alloc0, gc0 := readRuntime()
	t0 := time.Now()
	for {
		for i, it := range in.items {
			req := w.request(in, it)
			s := time.Now()
			resp, err := svc.Submit(ctx, req)
			lat := time.Since(s)
			p.attempted++
			if err != nil {
				p.failed++
				continue
			}
			p.latency = append(p.latency, lat)
			p.byItem[i] = append(p.byItem[i], lat)
			p.nodes += resp.Result.Nodes
			if got := resp.Result.Embeddings; got != it.want.count && p.wrong == nil {
				p.wrong = fmt.Errorf("%s: %d embeddings, reference counts %d", it.name(), got, it.want.count)
			}
			if obs != nil {
				obs(lat, resp)
			}
		}
		if time.Since(t0) >= d {
			break
		}
	}
	p.wall = time.Since(t0)
	p.cpu = cpuTime() - cpu0
	alloc1, gc1 := readRuntime()
	p.allocBytes, p.gcCycles = alloc1-alloc0, gc1-gc0
	p.rssPeakKB = rssPeakKB()
	return p
}

// endToEnd turns the set-up and the untraced timed phase into the
// end-to-end metrics. Each request of the list repeats once per pass;
// its time is the median of its repeats. Throughput and the latency
// percentiles come from these per-request times, so that the host
// taking the CPU away now and then (steal time, which on the machine
// the bounds were set on reached a third of a run's wall time) reads
// as the slow repeat it causes rather than as a slow request. The
// per-request means (CPU, allocation, nodes) are over every repeat.
func endToEnd(st setupStats, p phase) []metric {
	n := float64(len(p.latency))
	ms := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
	var typical []time.Duration
	var total time.Duration
	for _, xs := range p.byItem {
		if len(xs) == 0 {
			continue
		}
		fs := make([]float64, len(xs))
		for i, x := range xs {
			fs[i] = float64(x)
		}
		m := time.Duration(median(fs))
		typical = append(typical, m)
		total += m
	}
	sort.Slice(typical, func(i, j int) bool { return typical[i] < typical[j] })
	return []metric{
		{"setup_s", "s", median(st.seconds)},
		{"throughput_qps", "1/s", float64(len(typical)) / total.Seconds()},
		{"latency_p50_ms", "ms", ms(percentile(typical, 0.50))},
		{"latency_p90_ms", "ms", ms(percentile(typical, 0.90))},
		{"cpu_ms_per_req", "ms", ms(p.cpu) / n},
		{"alloc_kb_per_req", "KiB", float64(p.allocBytes) / 1024 / n},
		{"rss_peak_mb", "MiB", float64(p.rssPeakKB) / 1024},
		{"search_nodes_per_req", "nodes", float64(p.nodes) / n},
	}
}

// percentile is the nearest-rank percentile of sorted samples.
func percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.999999) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rssPeakKB is the process's peak resident set so far (Linux reports
// ru_maxrss in KiB).
func rssPeakKB() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return int64(ru.Maxrss)
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
}

// readRuntime returns the bytes allocated on the heap and the GC cycles
// completed since the process started.
func readRuntime() (allocs, cycles uint64) {
	metrics.Read(runtimeSamples)
	return runtimeSamples[0].Value.Uint64(), runtimeSamples[1].Value.Uint64()
}

// newDataDir makes a scratch store directory under workDir.
func newDataDir() (string, error) {
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(workDir, "data-")
}
