package main

import (
	"context"
	"encoding/binary"
	"fmt"

	"subgraphmatching/internal/graph"
	"subgraphmatching/internal/service"
)

// pairHash mixes one (query vertex, data vertex) pair into 64 bits.
func pairHash(u int, v graph.Vertex) uint64 {
	h := uint64(v) | uint64(u)<<32
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	return h ^ h>>31
}

// finishHash turns the sum of an embedding's pair hashes into the
// embedding's hash. Summing pairs first lets the reference matcher carry
// the sum down its search instead of rehashing every embedding.
func finishHash(pairs uint64) uint64 {
	pairs ^= pairs >> 33
	pairs *= 0xff51afd7ed558ccd
	pairs ^= pairs >> 33
	pairs *= 0xc4ceb9fe1a85ec53
	return pairs ^ pairs>>33
}

// embeddingHash hashes one embedding (indexed by query vertex). Summed
// over a set it gives that set's fingerprint: two embedding multisets
// with the same count and fingerprint are equal unless 64-bit hashes
// collide, which the mixing makes negligible.
func embeddingHash(m []graph.Vertex) uint64 {
	var pairs uint64
	for u, v := range m {
		pairs += pairHash(u, v)
	}
	return finishHash(pairs)
}

// embeddingChecker validates a stream of embeddings of q in g: labels
// match, the mapping is injective and every query edge is present.
// Repeats are caught exactly by a set when the stream is capped (its
// contents then depend on search order), and otherwise by comparing the
// stream's fingerprint with the reference matcher's, which equals it
// only if the stream holds every embedding exactly once.
type embeddingChecker struct {
	q, g           *graph.Graph
	seen           map[string]struct{} // nil unless exact
	key            []byte
	n, fingerprint uint64
}

func newEmbeddingChecker(q, g *graph.Graph, exact bool) *embeddingChecker {
	c := &embeddingChecker{q: q, g: g}
	if exact {
		c.seen = make(map[string]struct{})
	}
	return c
}

func (c *embeddingChecker) check(m []graph.Vertex) error {
	if len(m) != c.q.NumVertices() {
		return fmt.Errorf("embedding %v has %d vertices, query has %d", m, len(m), c.q.NumVertices())
	}
	for u, v := range m {
		if int(v) >= c.g.NumVertices() {
			return fmt.Errorf("embedding %v maps %d to %d, outside the data graph", m, u, v)
		}
		if c.g.Label(v) != c.q.Label(graph.Vertex(u)) {
			return fmt.Errorf("embedding %v maps %d (label %d) to %d (label %d)",
				m, u, c.q.Label(graph.Vertex(u)), v, c.g.Label(v))
		}
		for _, w := range m[:u] {
			if w == v {
				return fmt.Errorf("embedding %v is not injective", m)
			}
		}
		for _, w := range c.q.Neighbors(graph.Vertex(u)) {
			if int(w) < u && !adjacent(c.g, m[w], v) {
				return fmt.Errorf("embedding %v misses query edge (%d,%d)", m, w, u)
			}
		}
	}
	if c.seen != nil {
		c.key = c.key[:0]
		for _, v := range m {
			c.key = binary.LittleEndian.AppendUint32(c.key, v)
		}
		if _, dup := c.seen[string(c.key)]; dup {
			return fmt.Errorf("embedding %v repeats", m)
		}
		c.seen[string(c.key)] = struct{}{}
	}
	c.n++
	c.fingerprint += embeddingHash(m)
	return nil
}

// verify is the untimed pass after the timed phase: every item (or the
// first checkStreams) is streamed once through service.Stream and each embedding is checked.
// The streamed count must equal Result.Embeddings and the reference
// count; an uncapped stream must also carry the reference's fingerprint.
func (w workload) verify(ctx context.Context, svc *service.Service, in *inputs) error {
	items := in.items
	if w.checkStreams > 0 {
		items = items[:w.checkStreams]
	}
	for _, it := range items {
		q := in.queries[it.query]
		capped := w.cap > 0 && it.want.count >= w.cap
		c := newEmbeddingChecker(q, in.g, capped)
		var bad error
		resp, err := svc.Stream(ctx, w.request(in, it), func(m []graph.Vertex) bool {
			if bad == nil {
				bad = c.check(m)
			}
			return bad == nil
		})
		switch {
		case err != nil:
			return fmt.Errorf("%s: stream failed: %w", it.name(), err)
		case bad != nil:
			return fmt.Errorf("%s: %w", it.name(), bad)
		case c.n != resp.Result.Embeddings:
			return fmt.Errorf("%s: streamed %d embeddings, Result.Embeddings = %d", it.name(), c.n, resp.Result.Embeddings)
		case c.n != it.want.count:
			return fmt.Errorf("%s: streamed %d embeddings, reference counts %d", it.name(), c.n, it.want.count)
		case !capped && c.fingerprint != it.want.fingerprint:
			return fmt.Errorf("%s: streamed embedding set differs from the reference's (repeated or wrong embeddings)", it.name())
		}
	}
	return nil
}
