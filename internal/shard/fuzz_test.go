package shard

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"ceci/internal/gen"
	"ceci/internal/graph"
	"ceci/internal/service"
)

// savedShard0 partitions the Figure 1 data graph three ways and returns
// the bytes Save wrote for shard 0: manifest.json, its map, its graph.
func savedShard0(tb testing.TB) (manifest, vmap, lg []byte) {
	data := gen.Fig1Data()
	parts, err := Split(data, PartitionOptions{Shards: 3, Radius: 1})
	if err != nil {
		tb.Fatal(err)
	}
	dir := tb.TempDir()
	if _, err := Save(dir, data, parts, false); err != nil {
		tb.Fatal(err)
	}
	read := func(name string) []byte {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			tb.Fatal(err)
		}
		return b
	}
	return read("manifest.json"), read("shard-0.map"), read("shard-0.lg")
}

// FuzzLoadPart: the manifest directory is the fleet's only on-disk
// format, so its three files are hostile bytes. LoadPart returns an
// error, or a partition a shard can serve — one global id per graph
// vertex, strictly ascending, owned locals ascending and in range — and
// either way allocates in proportion to the bytes it was given.
func FuzzLoadPart(f *testing.F) {
	// Live Save output and truncations of it; the hostile variants (escaping
	// names, wrong counts, huge ids) are in testdata/fuzz/FuzzLoadPart.
	manifest, vmap, lg := savedShard0(f)
	f.Add(manifest, vmap, lg)
	f.Add(manifest[:len(manifest)/2], vmap, lg)
	f.Add(manifest, vmap[:len(vmap)/2], lg)
	f.Add(manifest, vmap, lg[:len(lg)/2])
	f.Fuzz(func(t *testing.T, manifest, vmap, lg []byte) {
		dir := t.TempDir()
		for name, b := range map[string][]byte{"manifest.json": manifest, "shard-0.map": vmap, "shard-0.lg": lg} {
			if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		// 1 MiB is the graph file's read buffer; the rest scales with input.
		budget := uint64(1<<20 + 256<<10 + 512*(len(manifest)+len(vmap)+len(lg)))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		p, err := LoadPart(dir, 0)
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got > budget {
			t.Fatalf("loading %d+%d+%d bytes allocated %d, budget %d", len(manifest), len(vmap), len(lg), got, budget)
		}
		if err != nil {
			return
		}
		n := p.Graph.NumVertices()
		if len(p.Globals) != n {
			t.Fatalf("%d globals for %d vertices", len(p.Globals), n)
		}
		for i := 1; i < n; i++ {
			if p.Globals[i] <= p.Globals[i-1] {
				t.Fatalf("globals[%d] = %d after %d: not strictly ascending", i, p.Globals[i], p.Globals[i-1])
			}
		}
		if len(p.OwnedLocals) == 0 || p.Shards < 1 || p.Radius < 0 {
			t.Fatalf("accepted a partition nobody can serve: %d owned, %d shards, radius %d", len(p.OwnedLocals), p.Shards, p.Radius)
		}
		for i, lv := range p.OwnedLocals {
			if int(lv) >= n || (i > 0 && lv <= p.OwnedLocals[i-1]) {
				t.Fatalf("ownedLocals[%d] = %d: out of range [0,%d) or not ascending", i, lv, n)
			}
		}
	})
}

// FuzzRouterWindow: whatever the shards hold, the window and the fleet's
// bound, and whichever leg of either round fails, a routed page is the
// window over the usable shards' rows laid end to end in shard order; its
// count is the sum of their min(rows, offset+limit); and no leg is asked
// for a row outside the window as it stood when the leg was sent — so
// when nothing fails, every row a shard ships is on the page. Three fake shards of 0–40 rows serve a router that is never
// started (every replica is tried).
func FuzzRouterWindow(f *testing.F) {
	// rows of shards 0, 1, 2; offset; limit (0: the default page); the
	// fleet's MaxLimit; the shard that fails (3: none); the round its
	// failing leg is in (the shard's first or second query).
	f.Add(uint8(40), uint8(40), uint8(40), uint8(0), uint8(30), uint8(95), uint8(3), uint8(0))
	f.Add(uint8(3), uint8(12), uint8(3), uint8(2), uint8(4), uint8(9), uint8(3), uint8(0))
	f.Add(uint8(5), uint8(5), uint8(5), uint8(3), uint8(4), uint8(20), uint8(1), uint8(1))
	f.Add(uint8(5), uint8(5), uint8(5), uint8(3), uint8(4), uint8(20), uint8(0), uint8(0))
	f.Add(uint8(0), uint8(7), uint8(9), uint8(6), uint8(0), uint8(15), uint8(2), uint8(1))
	shards := make([]*pageShard, 3)
	urls := make([][]string, 3)
	for i := range shards {
		shards[i] = &pageShard{maxLimit: 1 << 10}
		srv := httptest.NewServer(shards[i])
		f.Cleanup(srv.Close)
		urls[i] = []string{srv.URL}
	}
	f.Fuzz(func(t *testing.T, r0, r1, r2, offset8, limit8, max8, failShard, failRound uint8) {
		offset, limit, maxLimit := int64(offset8%64), int64(limit8%64), 1+int64(max8%96)
		for i, r := range []uint8{r0, r1, r2} {
			failAt := 0
			if int(failShard%4) == i {
				failAt = 1 + int(failRound%2)
			}
			shards[i].reset(pageOf(graph.VertexID(1000*(i+1)), int(r%41), 2), failAt)
		}
		rt, err := NewRouter(RouterOptions{Shards: urls, Radius: 1, MaxLimit: maxLimit})
		if err != nil {
			t.Fatal(err)
		}
		body, _ := json.Marshal(pageWire(offset, limit))
		rec := httptest.NewRecorder()
		rt.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body)))
		var resp RouteResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("HTTP %d: %v in %s", rec.Code, err, rec.Body.Bytes())
		}

		size := limit
		if size == 0 || size > maxLimit {
			size = maxLimit
		}
		end := offset + size
		var rows [][]graph.VertexID
		var count int64
		var failed []int
		shipped := 0
		for i, s := range shards {
			legs, n, fail := s.take()
			shipped += n
			if end > maxLimit {
				if len(legs) > 0 {
					t.Fatalf("a refused window (offset %d, limit %d, max %d) sent shard %d %d legs", offset, size, maxLimit, i, len(legs))
				}
				continue
			}
			for k, leg := range legs {
				if err := legInWindow(leg, offset, size, i == 0 && k == 0); err != nil {
					t.Fatalf("shard %d leg %d %+v: %v", i, k, leg, err)
				}
			}
			if fail {
				failed = append(failed, i)
				continue
			}
			rows = append(rows, s.rows...)
			count += min(int64(len(s.rows)), end)
		}
		if end > maxLimit {
			if rec.Code != http.StatusBadRequest {
				t.Fatalf("offset %d + limit %d past max %d: HTTP %d", offset, size, maxLimit, rec.Code)
			}
			return
		}
		want := rows[min(offset, int64(len(rows))):min(end, int64(len(rows)))]
		if len(want) == 0 {
			want = nil
		}
		if rec.Code != http.StatusOK || resp.Count != count || !reflect.DeepEqual(resp.Embeddings, want) ||
			!slices.Equal(resp.ShardsFailed, failed) || resp.Partial != (len(failed) > 0) {
			t.Fatalf("HTTP %d count %d (want %d) failed %v (want %v) partial %v\npage %v\nwant %v",
				rec.Code, resp.Count, count, resp.ShardsFailed, failed, resp.Partial, resp.Embeddings, want)
		}
		// A fill that fails moves the window onto later rows of the
		// shards after it, which may have shipped rows for where it was.
		if shipped != len(want) && len(failed) == 0 {
			t.Fatalf("the shards shipped %d rows for a page of %d", shipped, len(want))
		}
	})
}

// legInWindow checks one leg of a window [offset, offset+size): the page
// leg (shard 0's first) and every count leg are asked the window itself;
// a fill leg is asked for rows below its end, no more than it holds.
func legInWindow(leg service.QueryRequest, offset, size int64, pageLeg bool) error {
	switch {
	case pageLeg && (leg.CountOnly || leg.Offset != offset || leg.Limit != size):
		return fmt.Errorf("the page leg is not the window (%d, %d)", offset, size)
	case leg.CountOnly && (leg.Offset != offset || leg.Limit != size):
		return fmt.Errorf("a count leg is not the window (%d, %d)", offset, size)
	case !leg.CountOnly && (leg.Offset < 0 || leg.Limit < 1 || leg.Limit > size || leg.Offset+leg.Limit > offset+size):
		return fmt.Errorf("rows outside the window (%d, %d)", offset, size)
	}
	return nil
}
