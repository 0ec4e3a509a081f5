package main

import "subgraphmatching/internal/graph"

// reference is the benchmark's independent matcher: plain backtracking
// over the data graph's labels and sorted adjacency lists. It shares no
// code with the program's filter, order, enumerate, intersect or core
// packages, so agreement with it is evidence the program's answers are
// right, not merely self-consistent.
//
// The query is visited in BFS order from its rarest-label vertex. Each
// later query vertex is extended from the image of one earlier neighbour
// (its parent) and checked against the images of its other earlier
// neighbours by binary search; images must carry the query vertex's
// label and be distinct.
type reference struct {
	q, g   *graph.Graph
	order  []graph.Vertex // query vertices in visiting order
	parent []int          // parent[i] = position of order[i]'s parent, -1 for i = 0
	backs  [][]int        // positions of order[i]'s other earlier neighbours
	image  []graph.Vertex // image[i] = data vertex matched to order[i]
	pairs  []uint64       // pairs[i] = sum of pairHash over order[:i] and their images
	limit  uint64
	res    refResult
}

// refResult is the reference answer for one query: the embedding count
// (capped at the limit) and, when the count is below the limit, the
// fingerprint of the whole embedding set (see embeddingHash).
type refResult struct {
	count, fingerprint uint64
}

func newReference(q, g *graph.Graph) *reference {
	n := q.NumVertices()
	r := &reference{q: q, g: g, image: make([]graph.Vertex, n), pairs: make([]uint64, n+1)}
	start := graph.Vertex(0)
	for u := graph.Vertex(1); int(u) < n; u++ {
		if g.LabelFrequency(q.Label(u)) < g.LabelFrequency(q.Label(start)) {
			start = u
		}
	}
	pos := make([]int, n)
	for i := range pos {
		pos[i] = -1
	}
	r.order = append(r.order, start)
	pos[start] = 0
	for i := 0; i < len(r.order); i++ {
		for _, w := range q.Neighbors(r.order[i]) {
			if pos[w] < 0 {
				pos[w] = len(r.order)
				r.order = append(r.order, w)
			}
		}
	}
	r.parent = make([]int, len(r.order))
	r.backs = make([][]int, len(r.order))
	for i, u := range r.order {
		r.parent[i] = -1
		for _, w := range q.Neighbors(u) {
			p := pos[w]
			if p >= i {
				continue
			}
			if r.parent[i] < 0 {
				r.parent[i] = p
			} else {
				r.backs[i] = append(r.backs[i], p)
			}
		}
	}
	return r
}

// referenceMatch counts the embeddings of q in g, stopping at limit
// when limit > 0 (so the count is min(total, limit)), and sums their
// hashes into the set fingerprint.
func referenceMatch(q, g *graph.Graph, limit uint64) refResult {
	r := newReference(q, g)
	if q.NumVertices() == 0 || len(r.order) != q.NumVertices() {
		return refResult{} // empty and disconnected queries are outside the benchmark
	}
	r.limit = limit
	r.extend(0)
	return r.res
}

// extend maps order[i] and everything after it; it returns false once
// the limit is reached.
func (r *reference) extend(i int) bool {
	u := r.order[i]
	want := r.q.Label(u)
	var cands []graph.Vertex
	if i == 0 {
		cands = r.g.VerticesWithLabel(want)
	} else {
		cands = r.g.Neighbors(r.image[r.parent[i]])
	}
	last := i == len(r.order)-1
	for _, v := range cands {
		if r.g.Label(v) != want || r.used(v, i) {
			continue
		}
		ok := true
		for _, b := range r.backs[i] {
			if !adjacent(r.g, r.image[b], v) {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		r.image[i] = v
		if !last {
			r.pairs[i+1] = r.pairs[i] + pairHash(int(u), v)
			if !r.extend(i + 1) {
				return false
			}
			continue
		}
		r.res.count++
		r.res.fingerprint += finishHash(r.pairs[i] + pairHash(int(u), v))
		if r.limit > 0 && r.res.count >= r.limit {
			return false
		}
	}
	return true
}

func (r *reference) used(v graph.Vertex, depth int) bool {
	for _, w := range r.image[:depth] {
		if w == v {
			return true
		}
	}
	return false
}

// adjacent reports whether edge (a, b) is in g by binary search over
// the shorter sorted adjacency list.
func adjacent(g *graph.Graph, a, b graph.Vertex) bool {
	ns := g.Neighbors(a)
	if nb := g.Neighbors(b); len(nb) < len(ns) {
		ns, b = nb, a
	}
	lo, hi := 0, len(ns)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if ns[m] < b {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo < len(ns) && ns[lo] == b
}
