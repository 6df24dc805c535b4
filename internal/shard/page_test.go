package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"testing"

	"ceci/internal/graph"
	"ceci/internal/service"
)

// pageOf is rows embeddings of the given width with ids counting up
// from base — recognisable in a merged page.
func pageOf(base graph.VertexID, rows, width int) [][]graph.VertexID {
	page := make([][]graph.VertexID, rows)
	for i := range page {
		page[i] = make([]graph.VertexID, width)
		for j := range page[i] {
			page[i][j] = base + graph.VertexID(i*width+j)
		}
	}
	return page
}

// pageShard is a fake shard that pages the way an engine does: it honours
// offset and limit, silently clamps a page's limit to its own MaxLimit,
// and counts up to offset+limit whether it pages or only counts. It
// records the legs it is asked and the rows it ships, and answers its
// failAt-th query with a 500 when failAt is set.
type pageShard struct {
	rows     [][]graph.VertexID
	maxLimit int64
	failAt   int

	mu      sync.Mutex
	legs    []service.QueryRequest
	shipped int
	failed  bool
}

// reset gives the shard new rows and a new failAt, and forgets its legs.
func (s *pageShard) reset(rows [][]graph.VertexID, failAt int) {
	s.take()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.rows, s.failAt = rows, failAt
}

// answer is the shard's reply to wire, nil when it fails the leg.
func (s *pageShard) answer(wire service.QueryRequest) *service.QueryResponse {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.legs = append(s.legs, wire)
	if len(s.legs) == s.failAt {
		s.failed = true
		return nil
	}
	limit := wire.Limit
	if !wire.CountOnly && (limit <= 0 || limit > s.maxLimit) {
		limit = s.maxLimit
	}
	resp := &service.QueryResponse{Count: int64(len(s.rows)), CacheHit: true, EnumMS: 0.5, QueryHash: "00f067aa0ba902b7"}
	if limit > 0 {
		resp.Count = min(resp.Count, wire.Offset+limit)
	}
	if !wire.CountOnly {
		resp.Embeddings = s.rows[min(wire.Offset, resp.Count):resp.Count]
		s.shipped += len(resp.Embeddings)
	}
	return resp
}

// take returns the legs the shard was asked and the rows it shipped since
// the last take, whether it failed one, and forgets them.
func (s *pageShard) take() (legs []service.QueryRequest, shipped int, failed bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	legs, shipped, failed = s.legs, s.shipped, s.failed
	s.legs, s.shipped, s.failed = nil, 0, false
	return legs, shipped, failed
}

// result is the shard's answer to leg as the router holds it.
func (s *pageShard) result(shard int, leg service.QueryRequest) shardResult {
	resp := s.answer(leg)
	if resp == nil {
		return shardResult{shard: shard, err: &service.APIError{StatusCode: http.StatusInternalServerError, Message: "disk on fire"}}
	}
	var page service.Page
	for _, row := range resp.Embeddings {
		page.Width = len(row)
		page.IDs = append(page.IDs, row...)
	}
	resp.Embeddings = nil
	return shardResult{shard: shard, resp: resp, page: page, from: leg.Offset}
}

// answeredProbe answers a fake shard's readiness probe and reports
// whether r was one.
func answeredProbe(w http.ResponseWriter, r *http.Request) bool {
	if r.URL.Path != "/healthz" {
		return false
	}
	service.WriteJSON(w, http.StatusOK, map[string]any{"status": "ok", "ready": true})
	return true
}

func (s *pageShard) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if answeredProbe(w, r) {
		return
	}
	var wire service.QueryRequest
	if err := json.NewDecoder(r.Body).Decode(&wire); err != nil {
		service.WriteJSON(w, http.StatusBadRequest, service.QueryResponse{Error: err.Error()})
		return
	}
	if resp := s.answer(wire); resp != nil {
		service.WriteJSON(w, http.StatusOK, resp)
	} else {
		service.WriteJSON(w, http.StatusInternalServerError, service.QueryResponse{Error: "disk on fire"})
	}
}

// failingShard answers its probes and fails every query with a 500.
var failingShard = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
	if !answeredProbe(w, r) {
		service.WriteJSON(w, http.StatusInternalServerError, service.QueryResponse{Error: "disk on fire"})
	}
})

func oneReplicaEach(shards ...http.Handler) [][]http.Handler {
	fleet := make([][]http.Handler, len(shards))
	for i, h := range shards {
		fleet[i] = []http.Handler{h}
	}
	return fleet
}

// postRaw posts body to the router's /query and returns the status and
// the bytes of the reply.
func postRaw(t *testing.T, url string, body io.Reader) (int, []byte) {
	t.Helper()
	hresp, err := http.Post(url+"/query", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	raw, err := io.ReadAll(hresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return hresp.StatusCode, raw
}

func pageWire(offset, limit int64) service.QueryRequest {
	wire := edgeWire()
	wire.CountOnly = false
	wire.Offset, wire.Limit = offset, limit
	return wire
}

// TestRouterPaginationWindow: the merged page is the caller's window over
// the shards' rows laid end to end, and a window that reaches past what
// a shard will return (its MaxLimit) is refused, not filled with the
// wrong rows. Shard 0 is asked to page the window and every other shard
// to count it; a shard the window then reaches is asked for exactly its
// slice of it.
func TestRouterPaginationWindow(t *testing.T) {
	const maxLimit = 10
	shards := []*pageShard{
		{rows: pageOf(100, 3, 2), maxLimit: maxLimit},
		{rows: pageOf(200, 12, 2), maxLimit: maxLimit},
		{rows: pageOf(300, 3, 2), maxLimit: maxLimit},
	}
	var all [][]graph.VertexID
	for _, s := range shards {
		all = append(all, s.rows...)
	}
	rsrv := handlerFleet(t, oneReplicaEach(shards[0], shards[1], shards[2]), RouterOptions{MaxLimit: maxLimit})

	for _, tc := range []struct {
		name          string
		offset, limit int64
		from, to      int // the window over all; to < 0 means refused (-2: as overflowing)
	}{
		{"inside the first shard", 0, 2, 0, 2},
		{"straddling two shards", 2, 4, 2, 6},
		{"starting on a shard boundary", 3, 4, 3, 7},
		{"up to the bound", 5, 5, 5, 10},
		{"no limit means the max", 0, 0, 0, 10},
		{"a limit past the max is clamped", 0, 50, 0, 10},
		{"one past the bound", 6, 5, 0, -1},
		{"an offset under the default limit", 1, 0, 0, -1},
		{"an offset under a clamped limit", 1, 50, 0, -1},
		// Refused by the window check the engine shares (service.Frame),
		// before the fleet's bound is looked at.
		{"a sum that overflows int64", math.MaxInt64, math.MaxInt64, 0, -2},
	} {
		resp, status := postRoute(t, rsrv.URL, pageWire(tc.offset, tc.limit))
		if tc.to < 0 {
			says := "exceeds the fleet's max limit 10"
			if tc.to == -2 {
				says = "overflows"
			}
			if status != http.StatusBadRequest || !strings.Contains(resp.Error, says) || resp.Embeddings != nil {
				t.Errorf("%s: HTTP %d %q, want a 400 saying %q", tc.name, status, resp.Error, says)
			}
			continue
		}
		if status != http.StatusOK || !reflect.DeepEqual(resp.Embeddings, all[tc.from:tc.to]) {
			t.Errorf("%s: HTTP %d %q, page %v, want %v", tc.name, status, resp.Error, resp.Embeddings, all[tc.from:tc.to])
		}
		limit, end, start := int64(tc.to-tc.from), int64(tc.to), int64(0)
		for i, s := range shards {
			// The page leg enumerates offset+limit; each count leg is
			// asked the same window; a fill leg asks for exactly its slice.
			want := []service.QueryRequest{{Offset: tc.offset, Limit: limit, CountOnly: i > 0}}
			n := min(int64(len(s.rows)), end)
			if lo, hi := max(tc.offset-start, 0), min(end-start, n); i > 0 && lo < hi {
				want = append(want, service.QueryRequest{Offset: lo, Limit: hi - lo})
			}
			start += n
			legs, _, _ := s.take()
			var got []service.QueryRequest
			for _, leg := range legs {
				got = append(got, service.QueryRequest{Offset: leg.Offset, Limit: leg.Limit, CountOnly: leg.CountOnly})
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: shard %d was asked %+v, want %+v", tc.name, i, got, want)
			}
		}
	}

	// Counting is not paged: any offset goes through.
	wire := pageWire(math.MaxInt64, 0)
	wire.CountOnly = true
	if resp, status := postRoute(t, rsrv.URL, wire); status != http.StatusOK || resp.Count != 18 || resp.Embeddings != nil {
		t.Errorf("count_only: HTTP %d, count %d, %d embeddings", status, resp.Count, len(resp.Embeddings))
	}
}

// TestRouterShipsOnlyTheWindow: a shard ships the rows of the window it
// holds and no others. On fleet_scatter's shape — three shards of 1000
// rows, a page of 1000 — shard 0 fills the page and shards 1 and 2 only
// count; a window straddling shards 0 and 1 ships exactly the rows it
// returns, and shard 2 ships none.
func TestRouterShipsOnlyTheWindow(t *testing.T) {
	shards := make([]*pageShard, 3)
	for i := range shards {
		shards[i] = &pageShard{rows: pageOf(graph.VertexID(i*10000), 1000, 3), maxLimit: 10000}
	}
	rsrv := handlerFleet(t, oneReplicaEach(shards[0], shards[1], shards[2]), RouterOptions{MaxLimit: 10000})
	wire := pageWire(0, 1000)
	wire.Labels, wire.Edges = []uint32{0, 0, 0}, [][2]uint32{{0, 1}, {1, 2}}
	for _, tc := range []struct {
		name          string
		offset, limit int64
		shipped       []int
	}{
		{"shard 0 fills the page", 0, 1000, []int{1000, 0, 0}},
		{"straddling shards 0 and 1", 500, 1000, []int{500, 500, 0}},
		{"inside shard 1", 1200, 100, []int{0, 100, 0}},
		{"the whole fleet", 0, 3000, []int{1000, 1000, 1000}},
	} {
		wire.Offset, wire.Limit = tc.offset, tc.limit
		resp, status := postRoute(t, rsrv.URL, wire)
		if status != http.StatusOK || resp.Count != 3*min(1000, tc.offset+tc.limit) || int64(len(resp.Embeddings)) != tc.limit {
			t.Fatalf("%s: HTTP %d %q, count %d, %d rows", tc.name, status, resp.Error, resp.Count, len(resp.Embeddings))
		}
		for i, s := range shards {
			if _, shipped, _ := s.take(); shipped != tc.shipped[i] {
				t.Errorf("%s: shard %d shipped %d rows, want %d", tc.name, i, shipped, tc.shipped[i])
			}
		}
	}
}

// TestRouterFillLegFailure: a shard whose count leg answered but whose
// fill leg failed is a failed shard like any other — in shards_failed
// and shard_errors, the reply partial, its count left out — and the
// window moves on to the next shard's rows.
func TestRouterFillLegFailure(t *testing.T) {
	shards := []*pageShard{
		{rows: pageOf(100, 3, 2), maxLimit: 100},
		{rows: pageOf(200, 5, 2), maxLimit: 100, failAt: 2}, // the count leg, then the fill
		{rows: pageOf(300, 4, 2), maxLimit: 100},
	}
	rsrv := handlerFleet(t, oneReplicaEach(shards[0], shards[1], shards[2]), RouterOptions{MaxLimit: 100})
	resp, status := postRoute(t, rsrv.URL, pageWire(1, 4))
	if status != http.StatusOK || !resp.Partial || resp.ShardsOK != 2 || !reflect.DeepEqual(resp.ShardsFailed, []int{1}) {
		t.Fatalf("HTTP %d partial %v ok %d failed %v", status, resp.Partial, resp.ShardsOK, resp.ShardsFailed)
	}
	if msg := resp.ShardErrors["1"]; !strings.Contains(msg, "disk on fire") || len(resp.ShardErrors) != 1 {
		t.Fatalf("shard_errors %v", resp.ShardErrors)
	}
	if resp.Count != 3+4 {
		t.Fatalf("count %d, want shards 0 and 2's 3+4", resp.Count)
	}
	want := append(pageOf(100, 3, 2)[1:], pageOf(300, 2, 2)...)
	if !reflect.DeepEqual(resp.Embeddings, want) {
		t.Fatalf("page %v, want the window over shards 0 and 2: %v", resp.Embeddings, want)
	}
	if legs, _, failed := shards[1].take(); len(legs) != 2 || legs[0].CountOnly == legs[1].CountOnly || !failed {
		t.Fatalf("shard 1 was asked %+v (failed %v), want a count leg and then a fill leg", legs, failed)
	}
}

// TestRouterCountOnlyWindow: a count_only request goes to every shard
// as it came, offset included, so a bounded count is what a page of the
// same window counts — each shard's min(total, offset+limit), summed —
// and no shard ships a row.
func TestRouterCountOnlyWindow(t *testing.T) {
	shards := []*pageShard{
		{rows: pageOf(100, 3, 2), maxLimit: 100},
		{rows: pageOf(200, 12, 2), maxLimit: 100},
		{rows: pageOf(300, 3, 2), maxLimit: 100},
	}
	rsrv := handlerFleet(t, oneReplicaEach(shards[0], shards[1], shards[2]), RouterOptions{MaxLimit: 100})
	for _, countOnly := range []bool{true, false} {
		wire := pageWire(2, 3)
		wire.CountOnly = countOnly
		resp, status := postRoute(t, rsrv.URL, wire)
		if status != http.StatusOK || resp.Count != 3+5+3 {
			t.Fatalf("count_only %v: HTTP %d %q, count %d; want 3+5+3", countOnly, status, resp.Error, resp.Count)
		}
		for i, s := range shards {
			legs, shipped, _ := s.take()
			if countOnly && (len(legs) != 1 || !legs[0].CountOnly || legs[0].Offset != 2 || legs[0].Limit != 3 || shipped != 0) {
				t.Errorf("count_only: shard %d was asked %+v and shipped %d rows", i, legs, shipped)
			}
		}
	}
}

// TestRouterBodyIsEncodingJSON: the bytes the router writes are what
// encoding/json writes for the RouteResponse they decode to — with a
// page, with a failed shard's accounting, counting only, and with every
// shard down.
func TestRouterBodyIsEncodingJSON(t *testing.T) {
	a := &pageShard{rows: pageOf(0, 40, 2), maxLimit: 100}
	b := &pageShard{rows: [][]graph.VertexID{{math.MaxUint32, 0}}, maxLimit: 100}
	healthy := handlerFleet(t, oneReplicaEach(a, b), RouterOptions{MaxLimit: 100})
	degraded := handlerFleet(t, oneReplicaEach(a, failingShard, b), RouterOptions{MaxLimit: 100})
	down := handlerFleet(t, oneReplicaEach(failingShard, failingShard), RouterOptions{MaxLimit: 100})

	countOnly := edgeWire()
	for _, tc := range []struct {
		name   string
		url    string
		wire   service.QueryRequest
		status int
		rows   int
		failed []int
	}{
		{"page", healthy.URL, pageWire(0, 0), http.StatusOK, 41, nil},
		{"window", healthy.URL, pageWire(38, 3), http.StatusOK, 3, nil},
		{"count only", healthy.URL, countOnly, http.StatusOK, 0, nil},
		{"shard failed", degraded.URL, pageWire(0, 0), http.StatusOK, 41, []int{1}},
		{"all failed", down.URL, pageWire(0, 0), http.StatusBadGateway, 0, []int{0, 1}},
		{"refused", healthy.URL, pageWire(1, 100), http.StatusBadRequest, 0, nil},
	} {
		body, _ := json.Marshal(tc.wire)
		status, raw := postRaw(t, tc.url, bytes.NewReader(body))
		var v RouteResponse
		if err := json.Unmarshal(raw, &v); err != nil {
			t.Fatalf("%s: %v in %s", tc.name, err, raw)
		}
		want, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(raw, append(want, '\n')) {
			t.Errorf("%s: body is not encoding/json's for its value:\n got %s\nwant %s", tc.name, raw, want)
		}
		if status != tc.status || len(v.Embeddings) != tc.rows || !reflect.DeepEqual(v.ShardsFailed, tc.failed) {
			t.Errorf("%s: HTTP %d, %d rows, failed %v; want %d, %d, %v", tc.name, status, len(v.Embeddings), v.ShardsFailed, tc.status, tc.rows, tc.failed)
		}
		if len(tc.failed) > 0 && (!v.Partial || len(v.ShardErrors) != len(tc.failed)) {
			t.Errorf("%s: partial %v, shard_errors %v", tc.name, v.Partial, v.ShardErrors)
		}
	}
}

// TestRouterEmpty200IsFailedLeg: a shard that answers 200 with no
// document has not answered. It used to merge as "0 embeddings, cache
// hit"; it must show up in shards_failed like any other lost leg.
func TestRouterEmpty200IsFailedLeg(t *testing.T) {
	hollow := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		answeredProbe(w, r) // and to a query: 200, empty body
	})
	good := &pageShard{rows: pageOf(0, 4, 2), maxLimit: 100}
	rsrv := handlerFleet(t, oneReplicaEach(good, hollow), RouterOptions{MaxLimit: 100})
	resp, status := postRoute(t, rsrv.URL, pageWire(0, 0))
	if status != http.StatusOK || !resp.Partial || resp.ShardsOK != 1 || !reflect.DeepEqual(resp.ShardsFailed, []int{1}) {
		t.Fatalf("HTTP %d partial %v ok %d failed %v", status, resp.Partial, resp.ShardsOK, resp.ShardsFailed)
	}
	if msg := resp.ShardErrors["1"]; !strings.Contains(msg, "200 without a JSON object") {
		t.Fatalf("shard_errors[1] = %q", msg)
	}
	if resp.Count != 4 || len(resp.Embeddings) != 4 {
		t.Fatalf("count %d, %d embeddings; want the good shard's 4", resp.Count, len(resp.Embeddings))
	}
}

// TestRouterQueryBodyBounded: the router reads no more of a request than
// the engine would, and says so in its own envelope.
func TestRouterQueryBodyBounded(t *testing.T) {
	shard := &pageShard{maxLimit: 100}
	rsrv := handlerFleet(t, oneReplicaEach(shard), RouterOptions{})
	huge := `{"query":"` + strings.Repeat("# padding\\n", service.MaxRequestBytes/10) + `"}`
	status, raw := postRaw(t, rsrv.URL, strings.NewReader(huge))
	var v RouteResponse
	if err := json.Unmarshal(raw, &v); err != nil {
		t.Fatalf("%v in %s", err, raw)
	}
	if status != http.StatusRequestEntityTooLarge || !strings.Contains(v.Error, "request body exceeds 1048576 bytes") {
		t.Fatalf("HTTP %d %q", status, v.Error)
	}
	if status, _ := postRaw(t, rsrv.URL, strings.NewReader(`{"labels":`)); status != http.StatusBadRequest {
		t.Fatalf("malformed body: HTTP %d", status)
	}
	if legs, _, _ := shard.take(); len(legs) != 0 {
		t.Fatal("a refused body was scattered")
	}
}

// mergeFixture is what fleet_scatter's router holds when it merges wire:
// the legs of three shards of 1000×3 rows each behind a router that was
// never started — shard 0's page and the others' counts, and a fill leg
// from each shard the window reaches past shard 0. shards lets a caller
// corrupt a shard first.
func mergeFixture(tb testing.TB, wire service.QueryRequest, shards ...*pageShard) (*Router, []shardResult) {
	rt, err := NewRouter(RouterOptions{Shards: [][]string{{"http://a"}, {"http://b"}, {"http://c"}}})
	if err != nil {
		tb.Fatal(err)
	}
	shards = append(shards, make([]*pageShard, 3-len(shards))...)
	for i, s := range shards {
		if s == nil {
			shards[i] = &pageShard{rows: pageOf(graph.VertexID(i*10000), 1000, 3), maxLimit: 10000}
		}
	}
	return rt, legsOf(rt, wire, 3, shards)
}

// legsOf runs the router's rounds of wire against in-memory shards.
func legsOf(rt *Router, wire service.QueryRequest, width int, shards []*pageShard) []shardResult {
	return rt.window(wire).legs(len(shards), width, func(shard int, f *fill) shardResult {
		return shards[shard].result(shard, rt.legRequest(context.Background(), wire, shard, f))
	})
}

// TestRouteMergeAllocs: merging pages costs no allocation per row. A
// window inside one shard's page is a view of it (1 allocation: the
// response); one that straddles shards copies the ids into one new array
// (2). The bound leaves room for the race detector's runtime;
// BenchmarkRouteMerge reports the exact figures.
func TestRouteMergeAllocs(t *testing.T) {
	for _, tc := range []struct {
		name          string
		offset, limit int64
		first, last   graph.VertexID
	}{
		{"first page", 0, 1000, 0, 2997},
		{"inside the second shard", 1200, 100, 10600, 10897},
		{"straddling", 500, 1000, 1500, 11497},
	} {
		wire := pageWire(tc.offset, tc.limit)
		rt, results := mergeFixture(t, wire)
		resp, page, status := rt.merge(wire, 3, results)
		rows := page.Rows()
		if status != http.StatusOK || resp.Count != 3000 || int64(len(rows)) != tc.limit ||
			rows[0][0] != tc.first || rows[len(rows)-1][0] != tc.last {
			t.Fatalf("%s: HTTP %d count %d, %d rows from %d to %d", tc.name, status, resp.Count, len(rows), rows[0][0], rows[len(rows)-1][0])
		}
		if n := testing.AllocsPerRun(100, func() { rt.merge(wire, 3, results) }); n > 4 {
			t.Errorf("%s: %v allocations per merge, want 1 or 2 (<= 4)", tc.name, n)
		}
		// The window must not have written into a leg's own page.
		if p := results[0].page; p.Len() > 0 && p.IDs[len(p.IDs)-3] != 2997 {
			t.Fatalf("%s: merge overwrote shard 0's page: %d", tc.name, p.IDs[len(p.IDs)-3])
		}
	}

	// A leg answering a different query's width is a failed leg, not rows
	// spliced into the page at the wrong stride: its shard leaves the
	// lay-out, and the next round fills the window from shard 2.
	rt, results := mergeFixture(t, pageWire(0, 2000), nil, &pageShard{rows: pageOf(10000, 1000, 2), maxLimit: 10000})
	resp, page, _ := rt.merge(pageWire(0, 2000), 3, results)
	if !reflect.DeepEqual(resp.ShardsFailed, []int{1}) || !resp.Partial || resp.Count != 2000 ||
		page.Len() != 2000 || page.IDs[1000*3] != 20000 || !strings.Contains(resp.ShardErrors["1"], "embeddings of 2 vertices") {
		t.Fatalf("mismatched width: failed %v partial %v count %d, %d rows, errors %v", resp.ShardsFailed, resp.Partial, resp.Count, page.Len(), resp.ShardErrors)
	}
}

func BenchmarkRouteMerge(b *testing.B) {
	for _, bc := range []struct {
		name string
		wire service.QueryRequest
	}{{"first-page", pageWire(0, 1000)}, {"straddling", pageWire(500, 1000)}} {
		rt, results := mergeFixture(b, bc.wire)
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				rt.merge(bc.wire, 3, results)
			}
		})
	}
}
