package main

import (
	"math/rand"
	"strings"
	"testing"

	"subgraphmatching/internal/graph"
	"subgraphmatching/internal/testutil"
)

// TestReferenceAgreesWithBruteForce checks the reference matcher against
// the repository's brute-force counter on small random graphs, uncapped
// and at caps below, at and above the true count; uncapped, its set
// fingerprint must equal the one of brute force's embedding list.
func TestReferenceAgreesWithBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tried := 0
	for trial := 0; trial < 300; trial++ {
		g := testutil.RandomGraph(rng, 8+rng.Intn(18), 12+rng.Intn(50), 1+rng.Intn(4))
		q := testutil.RandomConnectedQuery(rng, g, 2+rng.Intn(4))
		if q == nil {
			continue
		}
		tried++
		all := testutil.BruteForceMatches(q, g)
		var fp uint64
		for _, m := range all {
			fp += embeddingHash(m)
		}
		got := referenceMatch(q, g, 0)
		if want := testutil.BruteForceCount(q, g, 0); got.count != want || uint64(len(all)) != want {
			t.Fatalf("trial %d: reference counts %d, brute force %d (%d listed)", trial, got.count, want, len(all))
		}
		if got.fingerprint != fp {
			t.Fatalf("trial %d: reference fingerprint %x, brute force %x", trial, got.fingerprint, fp)
		}
		for _, limit := range []uint64{1, 2, 5, got.count, got.count + 1} {
			if limit == 0 {
				continue
			}
			want := testutil.BruteForceCount(q, g, limit)
			if c := referenceMatch(q, g, limit).count; c != want {
				t.Fatalf("trial %d limit %d: reference counts %d, brute force %d", trial, limit, c, want)
			}
		}
	}
	if tried < 200 {
		t.Fatalf("only %d of 300 trials produced a query", tried)
	}
}

// TestEmbeddingCheckerRejectsBadStreams feeds the verification pass's
// checker every embedding brute force finds, then one broken embedding
// of each kind it must reject.
func TestEmbeddingCheckerRejectsBadStreams(t *testing.T) {
	q, g := testutil.PaperQuery(), testutil.PaperData()
	all := testutil.BruteForceMatches(q, g)
	if len(all) == 0 {
		t.Fatal("paper example has no embeddings")
	}
	c := newEmbeddingChecker(q, g, true)
	for _, m := range all {
		if err := c.check(m); err != nil {
			t.Fatalf("valid embedding %v rejected: %v", m, err)
		}
	}
	if ref := referenceMatch(q, g, 0); c.n != ref.count || c.fingerprint != ref.fingerprint {
		t.Fatalf("checker saw %d embeddings (fingerprint %x), reference %d (%x)", c.n, c.fingerprint, ref.count, ref.fingerprint)
	}
	if err := c.check(all[0]); err == nil || !strings.Contains(err.Error(), "repeats") {
		t.Fatalf("repeated embedding: got %v", err)
	}
	first := append([]graph.Vertex(nil), all[0]...)
	broken := map[string][]graph.Vertex{"injective": append([]graph.Vertex(nil), first...)}
	broken["injective"][1] = first[0]
	for _, m := range [][]graph.Vertex{first} {
		// Swapping two images keeps the vertex set but breaks a label
		// or an edge unless the query is symmetric in them.
		swapped := append([]graph.Vertex(nil), m...)
		swapped[0], swapped[len(m)-1] = swapped[len(m)-1], swapped[0]
		broken["swapped"] = swapped
	}
	for kind, m := range broken {
		fresh := newEmbeddingChecker(q, g, true)
		if err := fresh.check(m); err == nil {
			t.Errorf("%s embedding %v accepted", kind, m)
		}
	}
}
