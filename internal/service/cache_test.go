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

// TestCacheBudgetNeverExceeded: property test — under a random sequence of
// adds, gets and wider re-adds of a held key, the used-bytes total never
// exceeds the budget and is exactly the bytes of the entries held (nothing
// re-sizes an entry once it is in: add — replacing included — and evict
// are the only writers of the total), a key is held once, a replacement is
// counted as grown and only ever widens, and entries larger than the whole
// budget are rejected outright, the incumbent of their key staying.
func TestCacheBudgetNeverExceeded(t *testing.T) {
	const budget = 10_000
	c := newCache(budget)
	rng := gen.NewRNG(7)
	keys := make([]string, 0, 64)
	var grown int64
	for i := 0; i < 800; i++ {
		switch rng.Intn(4) {
		case 0, 1:
			key := fmt.Sprintf("k%d", i)
			size := int64(1 + rng.Intn(4000))
			c.add(&entry{key: key, bytes: size, covered: 1})
			keys = append(keys, key)
		case 2:
			if len(keys) > 0 {
				c.get(keys[rng.Intn(len(keys))], 1)
			}
		case 3:
			// The replace path: a held or evicted key comes back covering
			// 1, 2 or every pivot, at any size up to past the budget.
			if len(keys) == 0 {
				continue
			}
			key := keys[rng.Intn(len(keys))]
			e := &entry{key: key, bytes: int64(1 + rng.Intn(budget+2000)), covered: []int{1, 2, everyPivot}[rng.Intn(3)]}
			old, held := c.byKey[key]
			c.add(e)
			now := c.byKey[key]
			switch {
			case held && (e.covered <= old.covered || e.bytes > budget):
				if now != old {
					t.Fatalf("step %d: an entry covering %d (%d bytes) displaced one covering %d", i, e.covered, e.bytes, old.covered)
				}
			case held:
				grown++
				if now != e {
					t.Fatalf("step %d: a wider entry that fits did not replace the incumbent", i)
				}
			case e.bytes <= budget && now != e:
				t.Fatalf("step %d: an entry that fits was not admitted", i)
			}
		}
		s := c.stats()
		if s.UsedBytes > budget {
			t.Fatalf("step %d: used %d bytes > budget %d", i, s.UsedBytes, budget)
		}
		var held int64
		for el := c.lru.Front(); el != nil; el = el.Next() {
			e := el.Value.(*entry)
			held += e.bytes
			if c.byKey[e.key] != e {
				t.Fatalf("step %d: key %s is on the list but not the one the map holds", i, e.key)
			}
		}
		if held != s.UsedBytes || c.lru.Len() != s.Entries {
			t.Fatalf("step %d: used %d bytes over %d entries, the %d held sum to %d", i, s.UsedBytes, s.Entries, c.lru.Len(), held)
		}
		if s.Grown != grown {
			t.Fatalf("step %d: grown counter %d, %d replacements made", i, s.Grown, grown)
		}
	}
	if grown == 0 {
		t.Fatal("the sequence never replaced an entry")
	}
	// Oversized entry: rejected, not partially admitted.
	before := c.stats()
	c.add(&entry{key: "huge", bytes: budget + 1})
	after := c.stats()
	if _, ok := c.get("huge", 1); ok {
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
	c.add(&entry{key: "a", bytes: 10, covered: 1})
	c.add(&entry{key: "b", bytes: 10, covered: 1})
	c.add(&entry{key: "c", bytes: 10, covered: 1})
	if _, ok := c.get("a", 1); !ok { // refresh a: b is now LRU
		t.Fatal("a missing")
	}
	c.add(&entry{key: "d", bytes: 10, covered: 1}) // must evict b
	if _, ok := c.get("b", 1); ok {
		t.Error("b survived eviction despite being LRU")
	}
	for _, k := range []string{"a", "c", "d"} {
		if _, ok := c.get(k, 1); !ok {
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
