package main

import (
	"fmt"
	"hash/crc32"
	"math/rand"
	"sync"
	"sync/atomic"

	"subgraphmatching/internal/core"
	"subgraphmatching/internal/graph"
	"subgraphmatching/internal/querygen"
	"subgraphmatching/internal/rmat"
	"subgraphmatching/internal/service"
)

// paperCap is the paper's per-query embedding cap (10^5), used by the
// serving workloads.
const paperCap = 100_000

// graphSpec sizes one generated R-MAT data graph.
type graphSpec struct {
	vertices, edges, labels int
	skew                    float64
}

// workload is one benchmark input set: a data graph, a query list and
// how each query is submitted. Every field is fixed here; only the seed
// varies between runs.
type workload struct {
	name    string
	graph   graphSpec
	density querygen.Density
	qsize   int
	queries int              // distinct query graphs
	presets []core.Algorithm // every query is submitted once per preset
	cap     uint64           // Request.MaxEmbeddings (0 = uncapped)
	workers int              // Request.Parallel
	// band, when set, keeps only query candidates whose embedding
	// count lies in [band[0], band[1]), which bounds per-request work
	// where extraction gives a heavy-tailed count. Finding them takes
	// the reference matcher tens of seconds, so picks lists their
	// indices in the candidate stream, as `perfbench select` prints
	// them; every run re-checks the picked counts against the band.
	band  [2]uint64
	picks []int
	// checkStreams is how many items the verification pass streams and
	// checks embedding by embedding (0 = all); the timed phase already
	// checks every count.
	checkStreams int
	// warmPlans builds every plan in set-up (serve-hot, enum-heavy); the
	// timed phase then only hits the plan cache.
	warmPlans bool
}

// servingGraph is shared by serve-hot and serve-miss: a power-law graph
// whose CSR (about 1.6 MB) fits in L2, so preprocessing time depends on
// the queries rather than on cache luck.
var servingGraph = graphSpec{vertices: 1 << 15, edges: 5 << 15, labels: 16}

var servingPresets = []core.Algorithm{core.Optimized, core.DPIso, core.GraphQL}

var workloads = []workload{
	{
		// 85 queries x 3 presets = 255 plans: within the plan cache's
		// default bound of 256 entries, so every timed request hits.
		name: "serve-hot", graph: servingGraph, density: querygen.Dense, qsize: 8,
		queries: 85, presets: servingPresets, cap: paperCap, workers: 1, warmPlans: true,
	},
	{
		// 100 queries x 3 presets = 300 plans, cycled: longer than the
		// 256-entry bound, so under LRU every request misses and evicts.
		name: "serve-miss", graph: servingGraph, density: querygen.Dense, qsize: 8,
		queries: 100, presets: servingPresets, cap: paperCap, workers: 1,
	},
	{
		// 15 sparse queries with 1M-3M embeddings each, counted in full
		// by two workers over a label-skewed graph of about 0.4 MB CSR.
		name: "enum-heavy", graph: graphSpec{vertices: 8000, edges: 32000, labels: 8, skew: 0.5},
		density: querygen.Sparse, qsize: 6, queries: 15, presets: []core.Algorithm{core.Optimized},
		workers: 2, band: [2]uint64{1_000_000, 3_000_000}, checkStreams: 3, warmPlans: true,
		picks: []int{4, 27, 28, 31, 33, 38, 46, 58, 74, 81, 82, 89, 101, 102, 104},
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q (want serve-hot, serve-miss or enum-heavy)", name)
}

// item is one request of the list with the answer the reference matcher
// expects for it.
type item struct {
	query  int // index into inputs.queries
	preset core.Algorithm
	want   refResult
}

// inputs is everything a run generates from its seed before set-up.
type inputs struct {
	g       *graph.Graph
	queries []*graph.Graph
	items   []item
}

// graphName is the name the data graph is registered under.
const graphName = "data"

// structureSeed fixes the shape of every workload: the R-MAT data
// graph and the query list drawn from it. The run seed only relabels
// that fixed dataset (see generate), the way the paper's datasets are
// fixed and its runs repeat over them.
const structureSeed = 1

// generate builds the workload's inputs from seed. The data graph and
// the queries are drawn with structureSeed; seed then draws a random
// permutation of the label alphabet (applied to the data graph and the
// queries alike) and the order of the request list. Every seed therefore
// gives an isomorphic instance with the same search, node for node,
// while label ids, plan-cache keys and request order differ. Vertex ids
// stay as drawn: renumbering them changes the order in which a capped
// search meets its embeddings, and with it the search's size.
//
// The reference matcher runs here, on the relabelled inputs, once per
// distinct query, so its cost stays out of every timed and set-up figure.
func (w workload) generate(seed int64) (*inputs, error) {
	base, err := w.baseGraph()
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	lperm := rng.Perm(w.graph.labels)
	g, err := relabel(base, lperm)
	if err != nil {
		return nil, err
	}
	n, want := w.queries, w.picks
	if w.band[1] > 0 {
		if len(w.picks) != w.queries {
			return nil, fmt.Errorf("%s: %d picks for %d queries; run `perfbench select --workload %s`", w.name, len(w.picks), w.queries, w.name)
		}
		n = 0
		for _, p := range w.picks {
			n = max(n, p+1)
		}
	} else {
		want = make([]int, n)
		for i := range want {
			want[i] = i
		}
	}
	cands, err := w.candidates(base, n)
	if err != nil {
		return nil, err
	}
	in := &inputs{g: g}
	for _, p := range want {
		q, err := relabel(cands[p], lperm)
		if err != nil {
			return nil, err
		}
		in.queries = append(in.queries, q)
	}
	limit := w.cap
	if w.band[1] > 0 {
		limit = w.band[1]
	}
	for qi, ref := range referenceAll(in.queries, g, limit) {
		if w.band[1] > 0 && (ref.count < w.band[0] || ref.count >= w.band[1]) {
			return nil, fmt.Errorf("%s: picked candidate %d has %d embeddings, outside the band; run `perfbench select --workload %s`",
				w.name, want[qi], ref.count, w.name)
		}
		for _, p := range w.presets {
			in.items = append(in.items, item{query: qi, preset: p, want: ref})
		}
	}
	rng.Shuffle(len(in.items), func(i, j int) { in.items[i], in.items[j] = in.items[j], in.items[i] })
	return in, nil
}

func (w workload) baseGraph() (*graph.Graph, error) {
	return rmat.Generate(rmat.Config{
		NumVertices: w.graph.vertices, NumEdges: w.graph.edges,
		NumLabels: w.graph.labels, LabelSkew: w.graph.skew, Seed: structureSeed,
	})
}

// candidateBatch is how many queries one extraction call draws.
const candidateBatch = 16

// candidates returns the first n distinct query candidates the workload
// draws from base, always in the same order. Extraction seeds differ per
// workload, so serve-hot and serve-miss get different queries from the
// same graph.
func (w workload) candidates(base *graph.Graph, n int) ([]*graph.Graph, error) {
	qseed := structureSeed*1_000_003 + int64(crc32.ChecksumIEEE([]byte(w.name)))
	seen := make(map[string]bool)
	var out []*graph.Graph
	for batch := 0; len(out) < n; batch++ {
		if batch > 1000 {
			return nil, fmt.Errorf("%s: found %d of %d distinct queries", w.name, len(out), n)
		}
		qs, err := querygen.Generate(base, querygen.Config{
			NumVertices: w.qsize, Count: candidateBatch, Density: w.density, Seed: qseed + int64(batch),
		})
		if err != nil {
			return nil, err
		}
		for _, q := range qs {
			// The dense extractor can converge on the same core twice; a
			// repeated query would turn serve-miss requests into hits.
			if k := queryKey(q); !seen[k] && len(out) < n {
				seen[k] = true
				out = append(out, q)
			}
		}
	}
	return out, nil
}

// selectPicks runs the band selection: it walks the candidate stream,
// counts each candidate with the reference matcher (counts do not depend
// on the run seed's relabelling) and returns the indices of the first
// w.queries candidates inside the band.
func (w workload) selectPicks() ([]int, error) {
	base, err := w.baseGraph()
	if err != nil {
		return nil, err
	}
	var picks []int
	for n := candidateBatch; len(picks) < w.queries; n += candidateBatch {
		cands, err := w.candidates(base, n)
		if err != nil {
			return nil, err
		}
		for i, ref := range referenceAll(cands[n-candidateBatch:], base, w.band[1]) {
			if ref.count >= w.band[0] && ref.count < w.band[1] && len(picks) < w.queries {
				picks = append(picks, n-candidateBatch+i)
			}
		}
	}
	return picks, nil
}

// relabel returns g with label l replaced by lperm[l].
func relabel(g *graph.Graph, lperm []int) (*graph.Graph, error) {
	b := graph.NewBuilder(g.NumVertices(), g.NumEdges())
	for v := 0; v < g.NumVertices(); v++ {
		b.AddVertex(graph.Label(lperm[g.Label(graph.Vertex(v))]))
	}
	g.EachEdge(func(u, v graph.Vertex) bool {
		b.AddEdge(u, v)
		return true
	})
	return b.Build()
}

// request is the service request for one item.
func (w workload) request(in *inputs, it item) service.Request {
	return service.Request{
		Graph:         graphName,
		Query:         in.queries[it.query],
		Algorithm:     it.preset,
		MaxEmbeddings: w.cap,
		Parallel:      w.workers,
	}
}

// name identifies the item in failure messages; with the seed it is
// enough to regenerate the query.
func (it item) name() string {
	return fmt.Sprintf("query %d with preset %s", it.query, it.preset)
}

// queryKey identifies a query graph by its labels and edge list.
func queryKey(q *graph.Graph) string {
	return fmt.Sprint(q.Labels(), q.Edges())
}

// referenceWorkers is how many goroutines run the reference matcher
// during input generation, one per vCPU of the two-vCPU machine the
// benchmark is sized for.
const referenceWorkers = 2

// referenceAll runs referenceMatch over every query, in parallel.
func referenceAll(qs []*graph.Graph, g *graph.Graph, limit uint64) []refResult {
	out := make([]refResult, len(qs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < referenceWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(qs); i = int(next.Add(1)) - 1 {
				out[i] = referenceMatch(qs[i], g, limit)
			}
		}()
	}
	wg.Wait()
	return out
}
