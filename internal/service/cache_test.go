package service

import (
	"context"
	"fmt"
	"testing"

	"ceci/internal/auto"
	"ceci/internal/gen"
	"ceci/internal/graph"
	"ceci/internal/verify"
)

// TestCacheBudgetNeverExceeded: property test — under a random add/get
// sequence the used-bytes total never exceeds the budget and is exactly
// the bytes of the entries held (nothing re-sizes an entry once it is in:
// add and evict are the only writers of the total), and entries larger
// than the whole budget are rejected outright.
func TestCacheBudgetNeverExceeded(t *testing.T) {
	const budget = 10_000
	c := newCache(budget)
	rng := gen.NewRNG(7)
	keys := make([]string, 0, 64)
	for i := 0; i < 500; i++ {
		switch rng.Intn(3) {
		case 0, 1:
			key := fmt.Sprintf("k%d", i)
			size := int64(1 + rng.Intn(4000))
			c.add(&entry{key: key, bytes: size})
			keys = append(keys, key)
		case 2:
			if len(keys) > 0 {
				c.get(keys[rng.Intn(len(keys))])
			}
		}
		s := c.stats()
		if s.UsedBytes > budget {
			t.Fatalf("step %d: used %d bytes > budget %d", i, s.UsedBytes, budget)
		}
		var held int64
		for el := c.lru.Front(); el != nil; el = el.Next() {
			held += el.Value.(*entry).bytes
		}
		if held != s.UsedBytes || c.lru.Len() != s.Entries {
			t.Fatalf("step %d: used %d bytes over %d entries, the %d held sum to %d", i, s.UsedBytes, s.Entries, c.lru.Len(), held)
		}
	}
	// Oversized entry: rejected, not partially admitted.
	before := c.stats()
	c.add(&entry{key: "huge", bytes: budget + 1})
	after := c.stats()
	if _, ok := c.get("huge"); ok {
		t.Fatal("entry larger than the budget was cached")
	}
	if after.Rejected != before.Rejected+1 {
		t.Errorf("rejected counter did not advance: %d -> %d", before.Rejected, after.Rejected)
	}
}

// TestCacheEvictsLRU: the least-recently-used entry goes first, and a
// get refreshes recency.
func TestCacheEvictsLRU(t *testing.T) {
	c := newCache(30)
	c.add(&entry{key: "a", bytes: 10})
	c.add(&entry{key: "b", bytes: 10})
	c.add(&entry{key: "c", bytes: 10})
	if _, ok := c.get("a"); !ok { // refresh a: b is now LRU
		t.Fatal("a missing")
	}
	c.add(&entry{key: "d", bytes: 10}) // must evict b
	if _, ok := c.get("b"); ok {
		t.Error("b survived eviction despite being LRU")
	}
	for _, k := range []string{"a", "c", "d"} {
		if _, ok := c.get(k); !ok {
			t.Errorf("%s evicted out of LRU order", k)
		}
	}
	if s := c.stats(); s.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", s.Evictions)
	}
}

// TestEvictionThenRebuildMatchesColdBuild: force evictions with a tiny
// byte budget, then re-run every query; each answer (rebuilt or cached)
// must equal the first answer bit-for-bit through the verify oracle.
func TestEvictionThenRebuildMatchesColdBuild(t *testing.T) {
	data := gen.WithRandomLabels(gen.ErdosRenyi(300, 1800, 5), 3, 17)
	// Budget fits roughly one index, so cycling through queries evicts.
	eng := New(data, Options{CacheBytes: 1 << 15, MaxLimit: 1 << 20})

	queries := []*graph.Graph{
		pathQuery(t, 0, 1),
		pathQuery(t, 1, 2),
		pathQuery(t, 2, 0, 1),
		pathQuery(t, 0, 2, 1),
	}
	first := make([][]string, len(queries))
	for i, q := range queries {
		resp, err := eng.Query(context.Background(), Request{Query: q})
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		first[i] = verify.CanonicalSet(resp.Page.Rows(), auto.Compute(q))
	}
	for round := 0; round < 2; round++ {
		for i, q := range queries {
			resp, err := eng.Query(context.Background(), Request{Query: q})
			if err != nil {
				t.Fatalf("round %d query %d: %v", round, i, err)
			}
			got := verify.CanonicalSet(resp.Page.Rows(), auto.Compute(q))
			if len(got) != len(first[i]) {
				t.Fatalf("round %d query %d: %d embeddings, first run had %d", round, i, len(got), len(first[i]))
			}
			for j := range got {
				if got[j] != first[i][j] {
					t.Fatalf("round %d query %d: results drifted at %d", round, i, j)
				}
			}
		}
	}
	s := eng.CacheStats()
	if s.UsedBytes > s.BudgetBytes {
		t.Errorf("cache over budget: %d > %d", s.UsedBytes, s.BudgetBytes)
	}
	if s.Evictions == 0 && s.Rejected == 0 {
		t.Logf("note: no evictions triggered (indexes smaller than expected); stats=%+v", s)
	}
}
