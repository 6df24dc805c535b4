package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"

	"ceci/internal/auto"
	"ceci/internal/gen"
	"ceci/internal/graph"
	"ceci/internal/obs"
	"ceci/internal/verify"
)

// TestCacheBudgetNeverExceeded: property test — under a random sequence of
// adds, gets and wider re-adds of a held key, the used-bytes total never
// exceeds the budget and is exactly the bytes of the entries held (nothing
// re-sizes an entry once it is in: add — replacing included — and evict
// are the only writers of the total), a key is held once and is on the
// rank heap once, in the slot it believes it is in, the heap's root is its
// minimum, a replacement is counted as grown and only ever widens, the
// evicted-bytes counter is what came in less what was replaced and what is
// held, and entries larger than the whole budget are rejected outright,
// the incumbent of their key staying.
func TestCacheBudgetNeverExceeded(t *testing.T) {
	const budget = 10_000
	c := newCache(budget)
	rng := gen.NewRNG(7)
	keys := make([]string, 0, 64)
	var grown, admitted, released int64 // replacements made; bytes let in; bytes a replacement let go
	for i := 0; i < 800; i++ {
		switch rng.Intn(4) {
		case 0, 1:
			key := fmt.Sprintf("k%d", i)
			size := int64(1 + rng.Intn(4000))
			c.add(&entry{key: key, bytes: size, covered: 1})
			keys = append(keys, key)
			admitted += size
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
				released += old.bytes
				if now != e {
					t.Fatalf("step %d: a wider entry that fits did not replace the incumbent", i)
				}
			case e.bytes <= budget && now != e:
				t.Fatalf("step %d: an entry that fits was not admitted", i)
			}
			if now == e {
				admitted += e.bytes
			}
		}
		s := c.stats()
		if s.UsedBytes > budget {
			t.Fatalf("step %d: used %d bytes > budget %d", i, s.UsedBytes, budget)
		}
		var held int64
		for at, e := range c.byRank {
			held += e.bytes
			if c.byKey[e.key] != e {
				t.Fatalf("step %d: key %s is on the heap but not the one the map holds", i, e.key)
			}
			if e.at != at {
				t.Fatalf("step %d: key %s sits in slot %d and believes it is in %d", i, e.key, at, e.at)
			}
			if c.byRank.Less(at, 0) {
				t.Fatalf("step %d: %s (rank %v, seq %d) is below the root (rank %v, seq %d)", i, e.key, e.rank, e.seq, c.byRank[0].rank, c.byRank[0].seq)
			}
		}
		if held != s.UsedBytes || len(c.byRank) != s.Entries {
			t.Fatalf("step %d: used %d bytes over %d entries, the %d held sum to %d", i, s.UsedBytes, s.Entries, len(c.byRank), held)
		}
		if s.Grown != grown {
			t.Fatalf("step %d: grown counter %d, %d replacements made", i, s.Grown, grown)
		}
		if want := admitted - released - s.UsedBytes; s.EvictedBytes != want {
			t.Fatalf("step %d: %d bytes evicted over %d evictions, but %d came in, %d were replaced and %d are held", i, s.EvictedBytes, s.Evictions, admitted, released, s.UsedBytes)
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

// TestCacheEvictsLRU: the degenerate case of the rank. With equal sizes and
// equal uses every rank is equal and the victim is the oldest insert, which
// is the order a recency list gave; and a get, one more use, keeps its entry
// past the others.
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

// victims adds e and returns the keys that left the cache for it, in the
// order they were evicted.
func victims(c *cache, e *entry) []string {
	before := append(rankHeap(nil), c.byRank...)
	c.add(e)
	var out rankHeap
	for _, h := range before {
		if c.byKey[h.key] != h && h.key != e.key {
			out = append(out, h)
		}
	}
	// The heap evicts in its own order, and a victim keeps its rank and seq.
	sort.Sort(out)
	keys := make([]string, len(out))
	for i, h := range out {
		keys[i] = h.key
	}
	return keys
}

// TestCacheKeepsHotSetThroughScan: a small working set that is asked for
// again and again outlives a burst of one-off classes each a tenth of the
// budget — five times the budget in all. Recency alone evicts the whole set.
func TestCacheKeepsHotSetThroughScan(t *testing.T) {
	const budget = 1000
	c := newCache(budget)
	hot := []string{"h0", "h1", "h2", "h3", "h4"}
	for _, k := range hot {
		c.add(&entry{key: k, bytes: 20, covered: 1})
	}
	for round := 0; round < 5; round++ {
		for _, k := range hot {
			if _, ok := c.get(k, 1); !ok {
				t.Fatalf("%s missing before the scan", k)
			}
		}
	}
	for i := 0; i < 50; i++ {
		c.add(&entry{key: fmt.Sprintf("scan%d", i), bytes: budget / 10, covered: 1})
	}
	for _, k := range hot {
		if _, ok := c.get(k, 1); !ok {
			t.Errorf("%s (20 bytes, 6 uses) was evicted by a scan of one-use entries of %d bytes", k, budget/10)
		}
	}
	if s := c.stats(); s.Evictions == 0 || s.EvictedBytes != s.Evictions*(budget/10) {
		t.Errorf("the scan evicted %d entries of %d bytes in all: it should have turned over, and only itself", s.Evictions, s.EvictedBytes)
	}
}

// TestCacheAgesOutFormerlyHot: uses are not kept for ever. An entry with
// many of them that is never asked for again stays while the floor is below
// its rank and is the next to go once the floor reaches it.
func TestCacheAgesOutFormerlyHot(t *testing.T) {
	const budget = 1000
	c := newCache(budget)
	c.add(&entry{key: "was-hot", bytes: 100, covered: 1})
	for i := 0; i < 9; i++ {
		c.get("was-hot", 1)
	}
	was := c.byKey["was-hot"]
	if want := 10.0 * budget / 100; was.uses != 10 || was.rank != want {
		t.Fatalf("after an insert and 9 gets: %d uses, rank %v, want 10 and %v", was.uses, was.rank, want)
	}
	gone := -1
	for i := 0; i < 400 && gone < 0; i++ {
		floorBefore := c.floor
		out := victims(c, &entry{key: fmt.Sprintf("new%d", i), bytes: 100, covered: 1})
		if !slices.Contains(out, "was-hot") {
			continue
		}
		gone = i
		if floorBefore >= was.rank {
			t.Errorf("evicted at insert %d with the floor already at %v, past its rank %v: it should have gone before", i, floorBefore, was.rank)
		}
		if c.floor != was.rank {
			t.Errorf("floor %v after evicting an entry of rank %v", c.floor, was.rank)
		}
	}
	// Nine one-use newcomers fit beside it and each turn of them raises the
	// floor by their budget/bytes, 10: its rank, 100, takes 9 turns or so.
	if gone < 50 || gone > 150 {
		t.Errorf("the formerly hot entry left at insert %d, want it held for some 90 inserts and then gone", gone)
	}
}

// TestCacheEvictionIsDeterministic: the victims are a function of the
// sequence of adds and gets and nothing else — the same sequence twice
// evicts the same keys in the same order, ties included (a third of the
// entries share one size and are never asked for again).
func TestCacheEvictionIsDeterministic(t *testing.T) {
	run := func() []string {
		c := newCache(10_000)
		rng := gen.NewRNG(11)
		var keys, out []string
		for i := 0; i < 2000; i++ {
			if rng.Intn(3) == 0 && len(keys) > 0 {
				c.get(keys[rng.Intn(len(keys))], 1)
				continue
			}
			size := int64(500)
			if rng.Intn(3) > 0 {
				size = int64(100 + rng.Intn(3000))
			}
			key := fmt.Sprintf("k%d", i)
			keys = append(keys, key)
			out = append(out, victims(c, &entry{key: key, bytes: size, covered: 1})...)
		}
		return out
	}
	first, second := run(), run()
	if len(first) < 500 {
		t.Fatalf("only %d evictions in 2000 steps: the sequence exercised nothing", len(first))
	}
	if !slices.Equal(first, second) {
		t.Fatalf("the same call sequence evicted differently: %d victims, then %d", len(first), len(second))
	}
	// Equal ranks leave in insertion order.
	c := newCache(1000)
	var want []string
	for i := 0; i < 10; i++ {
		want = append(want, fmt.Sprintf("e%d", i))
		c.add(&entry{key: want[i], bytes: 100, covered: 1})
	}
	if got := victims(c, &entry{key: "wide", bytes: 1000, covered: 1}); !slices.Equal(got, want) {
		t.Errorf("ten entries of one rank were evicted as %v, want insertion order", got)
	}
}

// TestGrownEntryInheritsUses: the wider entry that replaces its class's
// incumbent starts from the incumbent's uses (its own insert is one more),
// so a popular class does not drop to the bottom of the heap the moment a
// request outgrows its first cluster; the lookup that found the incumbent
// too narrow was a miss and counted as no use.
func TestGrownEntryInheritsUses(t *testing.T) {
	c := newCache(1000)
	c.add(&entry{key: "a", bytes: 100, covered: 1})
	for i := 0; i < 4; i++ {
		c.get("a", 1)
	}
	if _, ok := c.get("a", everyPivot); ok {
		t.Fatal("a one-cluster entry answered a request for every cluster")
	}
	if narrow := c.byKey["a"]; narrow.uses != 5 {
		t.Fatalf("%d uses after an insert, 4 hits and a too-narrow lookup, want 5", narrow.uses)
	}
	wide := &entry{key: "a", bytes: 200, covered: everyPivot}
	c.add(wide)
	if c.byKey["a"] != wide || wide.uses != 6 || wide.rank != 6.0*1000/200 {
		t.Fatalf("the replacement holds %d uses at rank %v, want the incumbent's 5 and its own insert at %v", wide.uses, wide.rank, 6.0*1000/200)
	}
	// A fresh entry of its size would be the first to go; this one is not.
	for i := 0; i < 8; i++ {
		c.add(&entry{key: fmt.Sprintf("b%d", i), bytes: 100, covered: 1})
	}
	if got := victims(c, &entry{key: "c", bytes: 100, covered: 1}); !slices.Equal(got, []string{"b0"}) {
		t.Errorf("evicted %v, want the oldest one-use entry and not the grown one", got)
	}
	if s := c.stats(); s.Grown != 1 || s.Evictions != 1 {
		t.Errorf("grown %d, evictions %d, want 1 and 1: a replacement is not an eviction", s.Grown, s.Evictions)
	}
}

// TestEntryChargeCoversHeap: an entry is charged what it holds, not just its
// index columns. 20 000 distinct 3-vertex classes, most of whose labels the
// data graph does not have, make indexes of a few bytes each while every
// entry pins about 2 KB of key, query graph, tree and headers: the heap each
// one adds is within 0.5x-2x of its charge, and a 4 KiB budget holds a
// handful of them where PhysicalBytes alone admitted hundreds.
func TestEntryChargeCoversHeap(t *testing.T) {
	data := testData()
	class := func(i int) *graph.Graph {
		return pathQuery(t, graph.Label(i%40), graph.Label(i/40%40), graph.Label(i/1600))
	}
	heapInUse := func() uint64 {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	ask := func(eng *Engine, i int) {
		if _, err := eng.Query(context.Background(), Request{Query: class(i), Limit: 1}); err != nil {
			t.Fatalf("class %d: %v", i, err)
		}
	}
	const n = 20_000
	eng := New(data, Options{TraceSample: -1})
	// The flight recorder's ring and the allocator's first spans fill here.
	for i := 0; i < 1000; i++ {
		ask(eng, 40*40*40-1-i)
	}
	s0, h0 := eng.CacheStats(), heapInUse()
	for i := 0; i < n; i++ {
		ask(eng, i)
	}
	h1, s1 := heapInUse(), eng.CacheStats()
	entries := int64(s1.Entries - s0.Entries)
	if entries < n/2 || s1.Evictions != 0 {
		t.Fatalf("%d new entries for %d requests, %d evictions: the classes are not distinct or the budget is too small", entries, n, s1.Evictions)
	}
	var columns int64
	for _, e := range eng.cache.byKey {
		columns += e.ix.PhysicalBytes()
	}
	charged := float64(s1.UsedBytes-s0.UsedBytes) / float64(entries)
	held := float64(h1-h0) / float64(entries)
	t.Logf("%d entries: %.0f bytes of heap each, charged %.0f (index columns %.0f)", entries, held, charged, float64(columns)/float64(s1.Entries))
	if held < 0.5*charged || held > 2*charged {
		t.Errorf("an entry holds %.0f bytes of heap and is charged %.0f: outside 0.5x-2x", held, charged)
	}
	runtime.KeepAlive(eng)

	small := New(data, Options{CacheBytes: 4 << 10, TraceSample: -1})
	for i := 0; i < 500; i++ {
		ask(small, i)
	}
	if s := small.CacheStats(); s.Entries < 1 || s.Entries > 3 || s.UsedBytes > 4<<10 {
		t.Errorf("a 4 KiB budget holds %d near-empty entries (%d bytes charged), want the one to three their heap allows", s.Entries, s.UsedBytes)
	}
}

// TestEvictedBytesSurfaces: the bytes evictions released read the same at
// /cachez, in the cache source of /metrics.json and as a gauge.
func TestEvictedBytesSurfaces(t *testing.T) {
	reg := obs.NewRegistry()
	eng := New(testData(), Options{CacheBytes: 1 << 14, Registry: reg})
	srv := httptest.NewServer(eng.Handler())
	defer srv.Close()
	for _, q := range []*graph.Graph{pathQuery(t, 0, 1), pathQuery(t, 1, 2), pathQuery(t, 2, 0, 1), pathQuery(t, 0, 2, 1), pathQuery(t, 3, 1, 2)} {
		if _, err := eng.Query(context.Background(), Request{Query: q}); err != nil {
			t.Fatal(err)
		}
	}
	want := eng.CacheStats()
	if want.Evictions == 0 || want.EvictedBytes < want.Evictions {
		t.Fatalf("nothing was evicted from a 16 KiB cache: %+v", want)
	}
	cz, err := NewClient(srv.URL, srv.Client()).Cachez(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if *cz != want {
		t.Errorf("/cachez says %+v, the engine %+v", *cz, want)
	}
	body, _ := httpGet(t, srv, "/metrics.json")
	var doc struct {
		Sources map[string]map[string]int64 `json:"sources"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	if got, ok := doc.Sources["cache"]["evicted_bytes"]; !ok || got != want.EvictedBytes || len(doc.Sources["cache"]) != 9 {
		t.Errorf("/metrics.json cache source: %v, want 9 fields with evicted_bytes %d", doc.Sources["cache"], want.EvictedBytes)
	}
	prom, _ := httpGet(t, srv, "/metrics")
	if line := fmt.Sprintf("ceci_cache_evicted_bytes %d\n", want.EvictedBytes); !strings.Contains(string(prom), line) {
		t.Errorf("/metrics has no %q", line)
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
