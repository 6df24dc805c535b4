package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	ceciroot "ceci"
	"ceci/internal/auto"
	"ceci/internal/gen"
	"ceci/internal/graph"
	"ceci/internal/obs"
	"ceci/internal/order"
	"ceci/internal/service"
	"ceci/internal/verify"
)

// shardEngine builds a shard-mode service engine for one partition.
func shardEngine(p *Partition, opts service.Options) *service.Engine {
	if opts.MaxLimit == 0 {
		opts.MaxLimit = 1 << 20
	}
	opts.Shard = &service.ShardConfig{
		ID:          p.ID,
		Shards:      p.Shards,
		Radius:      p.Radius,
		Globals:     p.Globals,
		OwnedLocals: p.OwnedLocals,
	}
	return service.New(p.Graph, opts)
}

// startFleet partitions data and serves each shard over httptest,
// returning a started router in front of the fleet.
func startFleet(t *testing.T, data *graph.Graph, shards, radius int,
	sopts service.Options, ropts RouterOptions) (*Router, *httptest.Server) {
	t.Helper()
	return startWrappedFleet(t, data, shards, radius, sopts, ropts, nil)
}

// startWrappedFleet is startFleet with each shard's handler passed
// through wrap (when non-nil) before it is served.
func startWrappedFleet(t *testing.T, data *graph.Graph, shards, radius int, sopts service.Options,
	ropts RouterOptions, wrap func(shard int, h http.Handler) http.Handler) (*Router, *httptest.Server) {
	t.Helper()
	parts, err := Split(data, PartitionOptions{Shards: shards, Radius: radius})
	if err != nil {
		t.Fatal(err)
	}
	urls := make([][]string, len(parts))
	for i, p := range parts {
		o := sopts
		// Each shard needs its own tracer: shards are separate processes
		// in production, and Tracer.Detach is destructive per trace id.
		if o.TraceSample > 0 {
			o.Tracer = obs.NewTracer(obs.TracerOptions{})
		}
		h := shardEngine(p, o).Handler()
		if wrap != nil {
			h = wrap(i, h)
		}
		srv := httptest.NewServer(h)
		t.Cleanup(srv.Close)
		urls[i] = []string{srv.URL}
	}
	ropts.Shards = urls
	ropts.Radius = radius
	if ropts.MaxLimit == 0 {
		ropts.MaxLimit = 1 << 20
	}
	rt, err := NewRouter(ropts)
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	t.Cleanup(rt.Stop)
	rsrv := httptest.NewServer(rt.Handler())
	t.Cleanup(rsrv.Close)
	return rt, rsrv
}

// wireText renders a query graph as the .lg wire form.
func wireText(t *testing.T, q *graph.Graph) string {
	t.Helper()
	var buf bytes.Buffer
	if err := graph.WriteLabeled(&buf, q); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// postRoute posts a query to the router and decodes the RouteResponse.
func postRoute(t *testing.T, url string, wire service.QueryRequest) (*RouteResponse, int) {
	t.Helper()
	body, err := json.Marshal(wire)
	if err != nil {
		t.Fatal(err)
	}
	hresp, err := http.Post(url+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	out := &RouteResponse{}
	if err := json.NewDecoder(hresp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
	return out, hresp.StatusCode
}

// TestRouterDifferentialVsSingleNode is the sharding oracle: for seeded
// (data, query) pairs and fleet sizes 2, 3, and 5, the router's merged
// count — and the canonical embedding set — must equal a cold
// single-node build. This is the claim the whole partitioning contract
// exists to uphold.
//
// A shard answers a small page from an index of its first owned cluster
// alone, so each fleet is asked for a page of two first, while every
// shard's cache is empty, and again once the full query has left complete
// entries behind: both must be the first two rows of the full page (the
// merge lays the shards' pages end to end, and a shard's short page is the
// head of its long one), the count what the shards' capped counts add up
// to. Somewhere a shard must have answered the first of them from one
// cluster of several: its entry was not widened for the small page and
// was for the full one.
func TestRouterDifferentialVsSingleNode(t *testing.T) {
	const small = 2
	fromFirstCluster := 0
	for seed := int64(1); seed <= 4; seed++ {
		data, query := gen.RandomPair(seed)
		_, ecc := order.Anchor(query)
		radius := ecc
		if radius < 1 {
			radius = 1
		}

		m, err := ceciroot.Match(data, query, &ceciroot.Options{Workers: 1})
		if err != nil {
			t.Fatalf("seed %d: cold match: %v", seed, err)
		}
		wantEmbs := m.Collect()
		want := verify.CanonicalSet(wantEmbs, auto.Compute(query))

		for _, shards := range []int{2, 3, 5} {
			if shards > data.NumVertices() {
				continue
			}
			rt, rsrv := startFleet(t, data, shards, radius, service.Options{}, RouterOptions{})
			cl := service.NewClient(rsrv.URL, nil)
			grown := func() []int64 {
				out := make([]int64, shards)
				for i := range out {
					s, err := service.NewClient(rt.shards[i][0].URL, nil).Cachez(context.Background())
					if err != nil {
						t.Fatalf("seed %d shards %d: shard %d /cachez: %v", seed, shards, i, err)
					}
					out[i] = s.Grown
				}
				return out
			}
			smallPage := func() *service.QueryResponse {
				resp, err := cl.Query(context.Background(), service.QueryRequest{Query: wireText(t, query), Limit: small})
				if err != nil || resp.Partial {
					t.Fatalf("seed %d shards %d: page of %d: %v (partial %v)", seed, shards, small, err, resp != nil && resp.Partial)
				}
				return resp
			}
			first := smallPage()
			afterSmall := grown()

			resp, err := cl.Query(context.Background(), service.QueryRequest{
				Query: wireText(t, query),
				Limit: 1 << 20,
			})
			if err != nil {
				t.Fatalf("seed %d shards %d: %v", seed, shards, err)
			}
			if resp.Partial {
				t.Fatalf("seed %d shards %d: unexpected partial result", seed, shards)
			}
			if resp.Count != int64(len(wantEmbs)) {
				t.Fatalf("seed %d shards %d: count %d, single-node found %d",
					seed, shards, resp.Count, len(wantEmbs))
			}
			got := verify.CanonicalSet(resp.Embeddings, auto.Compute(query))
			if len(got) != len(want) {
				t.Fatalf("seed %d shards %d: %d embeddings, want %d", seed, shards, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("seed %d shards %d: embedding sets diverge at %d: %q vs %q",
						seed, shards, i, got[i], want[i])
				}
			}

			for i, g := range grown() {
				if afterSmall[i] == 0 && g == 1 {
					fromFirstCluster++
				}
			}
			head := resp.Embeddings[:min(small, len(resp.Embeddings))]
			for when, page := range map[string]*service.QueryResponse{"on empty caches": first, "on complete entries": smallPage()} {
				if len(page.Embeddings) != len(head) || (len(head) > 0 && !reflect.DeepEqual(page.Embeddings, head)) {
					t.Errorf("seed %d shards %d: page of %d %s is %v, the full page starts %v",
						seed, shards, small, when, page.Embeddings, head)
				}
				if page.Count < int64(len(head)) || page.Count > min(resp.Count, int64(small*shards)) {
					t.Errorf("seed %d shards %d: page of %d %s counts %d of %d embeddings over %d shards",
						seed, shards, small, when, page.Count, resp.Count, shards)
				}
			}
			if first.CacheHit {
				t.Errorf("seed %d shards %d: the first query of a fleet reports a cache hit", seed, shards)
			}
		}
	}
	if fromFirstCluster == 0 {
		t.Error("no shard ever answered the small page from its first owned cluster alone")
	}
}

// TestRouterRejectsOverRadiusQuery: a query whose anchor eccentricity
// exceeds the fleet's halo radius is refused with 400 at the router —
// scattering it could silently miss embeddings — and so is every other
// request the router can tell is unanswerable once it has decoded the
// query graph. Each refusal is a finished query: one /queryz record with
// outcome 400, one observation in the latency histogram, no leg sent.
func TestRouterRejectsOverRadiusQuery(t *testing.T) {
	data := gen.WithRandomLabels(gen.ErdosRenyi(60, 240, 3), 2, 5)
	var legs atomic.Int64
	rt, rsrv := startWrappedFleet(t, data, 2, 1, service.Options{}, RouterOptions{MaxLimit: 100},
		func(_ int, h http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path == "/query" {
					legs.Add(1)
				}
				h.ServeHTTP(w, r)
			})
		})
	path3 := service.QueryRequest{Labels: []uint32{0, 1, 0}, Edges: [][2]uint32{{0, 1}, {1, 2}}}
	windowed := func(offset, limit int64) service.QueryRequest {
		wire := path3
		wire.Offset, wire.Limit = offset, limit
		return wire
	}
	for i, tc := range []struct {
		name string
		wire service.QueryRequest
		says string
	}{
		// A 5-path has anchor eccentricity 2 > radius 1.
		{"over the radius", service.QueryRequest{Labels: []uint32{0, 0, 0, 0, 0},
			Edges: [][2]uint32{{0, 1}, {1, 2}, {2, 3}, {3, 4}}}, "exceeds fleet halo radius 1"},
		{"disconnected", service.QueryRequest{Labels: []uint32{0, 1, 0}, Edges: [][2]uint32{{0, 1}}}, "must be connected"},
		{"negative offset", windowed(-1, 5), "negative limit/offset"},
		{"negative limit", windowed(0, -5), "negative limit/offset"},
		{"window past the max limit", windowed(96, 5), "exceeds the fleet's max limit 100"},
		{"window end overflows", windowed(math.MaxInt64, 1), "offset 9223372036854775807 + limit 1 overflows"},
		{"counted window end overflows", service.QueryRequest{Labels: path3.Labels, Edges: path3.Edges,
			Offset: math.MaxInt64 - 1, Limit: 1 << 40, CountOnly: true}, "overflows"},
	} {
		resp, status := postRoute(t, rsrv.URL, tc.wire)
		if status != http.StatusBadRequest || !strings.Contains(resp.Error, tc.says) {
			t.Errorf("%s: status %d %q, want 400 saying %q", tc.name, status, resp.Error, tc.says)
		}
		recent := rt.Flight().Recent()
		if len(recent) != i+1 || recent[0].Outcome != http.StatusBadRequest || recent[0].QueryVertices != len(tc.wire.Labels) {
			t.Errorf("%s: %d flight records, newest %+v; want one more, outcome 400", tc.name, len(recent), recent[0])
		}
		if n := rt.frame.Latency().Snapshot().Count; n != int64(i+1) {
			t.Errorf("%s: %d latency observations after %d requests", tc.name, n, i+1)
		}
	}
	if n := legs.Load(); n != 0 {
		t.Errorf("%d legs were sent for refused requests", n)
	}
	// The same window inside the bound is answered.
	if resp, status := postRoute(t, rsrv.URL, windowed(95, 5)); status != http.StatusOK {
		t.Errorf("a window up to the max limit: status %d %q", status, resp.Error)
	}
}

// TestRouterHugeLabelCostsItsLength is service's test of the same name
// through the fleet: the router and both shards each build the query
// graph from the body, and together stay under the bound one label-value-
// keyed index broke 384 times over.
func TestRouterHugeLabelCostsItsLength(t *testing.T) {
	data := gen.WithRandomLabels(gen.ErdosRenyi(60, 240, 3), 2, 5)
	_, rsrv := startFleet(t, data, 2, 1, service.Options{Workers: 1}, RouterOptions{})
	wire := service.QueryRequest{Labels: []uint32{graph.MaxLabelValue}}
	postRoute(t, rsrv.URL, wire) // connections, lazily built state
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	resp, status := postRoute(t, rsrv.URL, wire)
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Errorf("routing a one-vertex query allocated %d bytes", got)
	}
	if status != http.StatusOK || resp.Count != 0 || resp.Error != "" || resp.ShardsOK != 2 {
		t.Fatalf("status %d, reply %+v: want 200, count 0, both shards ok", status, resp)
	}
}

// TestRouterTraceStitching: one sampled query's /tracez document on the
// router must contain the full fleet tree — route-query at the root,
// one scatter child per leg, each adopting that shard's service-query
// subtree with its parent id intact: one per shard in the first round,
// and one per fill leg, marked round=fill, when the window reaches past
// shard 0's rows. The subtrees came with the leg replies: the query is
// one request per leg and no more, and reading the tree afterwards
// contacts no shard at all.
func TestRouterTraceStitching(t *testing.T) {
	data, query := gen.RandomPair(7)
	_, ecc := order.Anchor(query)
	const shards = 3
	var requests [shards]atomic.Int64 // everything but the health probes
	_, rsrv := startWrappedFleet(t, data, shards, ecc,
		service.Options{TraceSample: 1},
		RouterOptions{Tracer: obs.NewTracer(obs.TracerOptions{}), TraceSample: 1},
		func(shard int, h http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path != "/healthz" {
					requests[shard].Add(1)
				}
				h.ServeHTTP(w, r)
			})
		})

	cl := service.NewClient(rsrv.URL, nil)
	for name, wire := range map[string]service.QueryRequest{
		"count only": {Query: wireText(t, query), CountOnly: true},
		"a page":     {Query: wireText(t, query), Limit: 50},
		// Past shard 0's rows: the fill legs' subtrees are stitched too.
		"every row": {Query: wireText(t, query), Limit: 1 << 20},
	} {
		for i := range requests {
			requests[i].Store(0)
		}
		resp, err := cl.Query(context.Background(), wire)
		if err != nil {
			t.Fatal(err)
		}
		if resp.TraceID == "" {
			t.Fatalf("%s: sampled query returned no trace id", name)
		}
		roots := routerSpans(t, rsrv.URL, resp.TraceID)
		if chrome, err := cl.Tracez(context.Background(), resp.TraceID); err != nil || !bytes.Contains(chrome, []byte(`"service-query"`)) {
			t.Fatalf("%s: chrome export: %v", name, err)
		}

		if len(roots) != 1 || roots[0].Name != "route-query" {
			t.Fatalf("%s: want a single route-query root, got %d roots", name, len(roots))
		}
		var fills [shards]int64
		scatters, stitched, phases := 0, 0, 0
		for _, c := range roots[0].Children {
			if c.Name != "scatter" || c.ParentSpanID != roots[0].SpanID {
				continue
			}
			scatters++
			if c.Attrs["round"] == "fill" {
				i, _ := strconv.Atoi(c.Attrs["shard"])
				fills[i]++
			}
			for _, g := range c.Children {
				if g.Name == "service-query" && g.ParentSpanID == c.SpanID && g.TraceID == resp.TraceID {
					stitched++
					phases += len(g.Children) // build, enumerate: a shard without pivots has none
				}
			}
		}
		// One leg per shard, and one more per fill leg the window sent it.
		legs := shards
		for i := range requests {
			legs += int(fills[i])
			if n := requests[i].Load(); n != 1+fills[i] {
				t.Errorf("%s: shard %d served %d requests for one routed query, %d fill legs and two reads of its trace, want %d",
					name, i, n, fills[i], 1+fills[i])
			}
		}
		if name == "every row" && legs == shards {
			t.Fatalf("%s: the window past shard 0 sent no fill leg", name)
		}
		if scatters != legs {
			t.Fatalf("%s: found %d scatter spans, want %d", name, scatters, legs)
		}
		if stitched != legs || phases == 0 {
			t.Fatalf("%s: %d of %d scatter spans adopted a shard service-query subtree, %d phases under them", name, stitched, legs, phases)
		}
	}
}

// routerSpans reads a routed query's stitched span forest from the
// router's /tracez/{id}?format=jsonl.
func routerSpans(t *testing.T, url, traceID string) []*obs.SpanNode {
	t.Helper()
	hresp, err := http.Get(url + "/tracez/" + traceID + "?format=jsonl")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("GET /tracez/%s: HTTP %d", traceID, hresp.StatusCode)
	}
	roots, err := obs.ReadSpanJSONL(hresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return roots
}

// stubShard is a fake shard server for routing-behavior tests: answers
// readiness, records hits and the propagated deadline, can stall, and
// replies to queries with status (0: 200).
type stubShard struct {
	hits        atomic.Int64
	lastTimeout atomic.Int64
	delay       time.Duration
	status      int
	resp        service.QueryResponse
	// spans, when set, makes the reply's "spans" member from the trace
	// position the router sent.
	spans func(obs.TraceContext) string
}

// oneSpan is a stub's span subtree: a single span of the given name
// under the caller's, padded with an attribute of pad bytes.
func oneSpan(name string, pad int) func(obs.TraceContext) string {
	return func(tc obs.TraceContext) string {
		return fmt.Sprintf(`[{"name":%q,"trace_id":"%s","span_id":"%016x","parent_span_id":"%s","attrs":{"pad":"%s"},"start_us":1,"dur_us":2}]`,
			name, tc.TraceID, len(name), tc.SpanID, strings.Repeat("x", pad))
	}
}

func (s *stubShard) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Path {
	case "/healthz":
		service.WriteJSON(w, http.StatusOK, map[string]any{"status": "ok", "ready": true})
	case "/query":
		s.hits.Add(1)
		var wire service.QueryRequest
		if err := json.NewDecoder(r.Body).Decode(&wire); err != nil {
			service.WriteJSON(w, http.StatusBadRequest, service.QueryResponse{Error: err.Error()})
			return
		}
		s.lastTimeout.Store(wire.TimeoutMS)
		if s.delay > 0 {
			select {
			case <-time.After(s.delay):
			case <-r.Context().Done():
				return
			}
		}
		status := s.status
		if status == 0 {
			status = http.StatusOK
		}
		if s.spans == nil {
			service.WriteJSON(w, status, s.resp)
			return
		}
		tc, _ := obs.ParseTraceparent(r.Header.Get("traceparent"))
		body, _ := json.Marshal(s.resp)
		w.WriteHeader(status)
		fmt.Fprintf(w, `%s,"spans":%s}`+"\n", body[:len(body)-1], s.spans(tc))
	default:
		http.NotFound(w, r)
	}
}

// stubRouter builds a router over stub replicas for one shard.
func stubRouter(t *testing.T, stubs []*stubShard, ropts RouterOptions) *httptest.Server {
	t.Helper()
	replicas := make([]http.Handler, len(stubs))
	for i, s := range stubs {
		replicas[i] = s
	}
	return handlerFleet(t, [][]http.Handler{replicas}, ropts)
}

// handlerFleet builds a started router over fake shard servers:
// fleet[i] lists the handlers standing in for shard i's replicas.
func handlerFleet(t *testing.T, fleet [][]http.Handler, ropts RouterOptions) *httptest.Server {
	t.Helper()
	ropts.Shards = make([][]string, len(fleet))
	for i, replicas := range fleet {
		for _, h := range replicas {
			srv := httptest.NewServer(h)
			t.Cleanup(srv.Close)
			ropts.Shards[i] = append(ropts.Shards[i], srv.URL)
		}
	}
	if ropts.Radius == 0 {
		ropts.Radius = 1
	}
	rt, err := NewRouter(ropts)
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	t.Cleanup(rt.Stop)
	// The rotation orders the probed-healthy subset, which grows one
	// replica at a time during the first probe round: wait that round out.
	deadline := time.Now().Add(5 * time.Second)
	for _, reps := range rt.shards {
		for _, rep := range reps {
			for !rep.Checked() && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
		}
	}
	rsrv := httptest.NewServer(rt.Handler())
	t.Cleanup(rsrv.Close)
	return rsrv
}

// edgeWire is the minimal routable query: a connected 2-path.
func edgeWire() service.QueryRequest {
	return service.QueryRequest{Labels: []uint32{0, 0}, Edges: [][2]uint32{{0, 1}}, CountOnly: true}
}

// TestRoundRobinSpreadsPrimaries: with three replicas and six queries,
// the rotation must land two primaries on each.
func TestRoundRobinSpreadsPrimaries(t *testing.T) {
	stubs := []*stubShard{{resp: service.QueryResponse{Count: 1}}, {resp: service.QueryResponse{Count: 1}}, {resp: service.QueryResponse{Count: 1}}}
	rsrv := stubRouter(t, stubs, RouterOptions{Policy: NewRoundRobin()})
	for i := 0; i < 6; i++ {
		resp, status := postRoute(t, rsrv.URL, edgeWire())
		if status != http.StatusOK || resp.Count != 1 {
			t.Fatalf("query %d: status %d count %d", i, status, resp.Count)
		}
	}
	for i, s := range stubs {
		if got := s.hits.Load(); got != 2 {
			t.Errorf("replica %d served %d queries, want 2", i, got)
		}
	}
}

// TestQueryzFiltersHTTP exercises ?limit= and ?min_ms= through the HTTP
// surface, including the 400 on malformed values — against the engine
// and against the router, which serve /queryz from the same handlers.
func TestQueryzFiltersHTTP(t *testing.T) {
	engine := httptest.NewServer(service.New(gen.Fig1Data(), service.Options{}).Handler())
	t.Cleanup(engine.Close)
	router := stubRouter(t, []*stubShard{{resp: service.QueryResponse{Count: 1}}}, RouterOptions{})

	cases := []struct {
		query           string
		status          int
		recent, slowest int // list lengths after filtering (status 200 only)
	}{
		{"", http.StatusOK, 3, 3},
		{"?limit=2", http.StatusOK, 2, 2},
		{"?min_ms=0.000001&limit=1", http.StatusOK, 1, 1},
		// An impossibly high floor empties both lists but keeps the total.
		{"?min_ms=3600000", http.StatusOK, 0, 0},
		{"?limit=-1", http.StatusBadRequest, 0, 0},
		{"?limit=two", http.StatusBadRequest, 0, 0},
		{"?min_ms=-5", http.StatusBadRequest, 0, 0},
		{"?min_ms=NaN", http.StatusBadRequest, 0, 0},
	}
	for name, srv := range map[string]*httptest.Server{"engine": engine, "router": router} {
		t.Run(name, func(t *testing.T) {
			for i := 0; i < 3; i++ {
				if _, status := postRoute(t, srv.URL, edgeWire()); status != http.StatusOK {
					t.Fatalf("query %d: status %d", i, status)
				}
			}
			for _, tc := range cases {
				resp, err := http.Get(srv.URL + "/queryz" + tc.query)
				if err != nil {
					t.Fatal(err)
				}
				var qz service.QueryzResponse
				err = json.NewDecoder(resp.Body).Decode(&qz)
				resp.Body.Close()
				if resp.StatusCode != tc.status {
					t.Errorf("/queryz%s: status %d, want %d", tc.query, resp.StatusCode, tc.status)
					continue
				}
				if tc.status != http.StatusOK {
					continue
				}
				if err != nil {
					t.Fatalf("/queryz%s: %v", tc.query, err)
				}
				if qz.Total != 3 || len(qz.Recent) != tc.recent || len(qz.Slowest) != tc.slowest {
					t.Errorf("/queryz%s: total %d recent %d slowest %d, want 3/%d/%d",
						tc.query, qz.Total, len(qz.Recent), len(qz.Slowest), tc.recent, tc.slowest)
				}
			}
		})
	}
}

// TestLegFailsOverInOrder: a leg asks its shard's replicas one at a
// time, the rotated primary first. A replica that fails outright hands
// the leg to the next at once, and only the answering replica's spans
// reach the trace; a 400 ends the leg unanswered by any other replica; a
// shard whose every replica fails is named in shards_failed.
func TestLegFailsOverInOrder(t *testing.T) {
	// The first query's primary is replica 0.
	failed := &stubShard{status: http.StatusInternalServerError,
		resp: service.QueryResponse{Error: "down"}, spans: oneSpan("failed", 0)}
	answers := &stubShard{resp: service.QueryResponse{Count: 3}, spans: oneSpan("answered", 0)}
	rsrv := stubRouter(t, []*stubShard{failed, answers}, RouterOptions{Tracer: obs.NewTracer(obs.TracerOptions{})})
	resp, status := postRoute(t, rsrv.URL, edgeWire())
	if status != http.StatusOK || resp.Count != 3 || resp.Partial || resp.Failovers != 1 {
		t.Fatalf("status %d count %d partial %v failovers %d: want 200, 3, whole, 1 failover",
			status, resp.Count, resp.Partial, resp.Failovers)
	}
	for i, s := range []*stubShard{failed, answers} {
		if n := s.hits.Load(); n != 1 {
			t.Errorf("replica %d saw %d requests, want 1", i, n)
		}
	}
	roots := routerSpans(t, rsrv.URL, resp.TraceID)
	if len(roots) != 1 || len(roots[0].Children) != 1 || roots[0].Children[0].Name != "scatter" {
		t.Fatalf("want route-query over one scatter, got %d roots", len(roots))
	}
	if legs := roots[0].Children[0].Children; len(legs) != 1 || legs[0].Name != "answered" {
		t.Errorf("the scatter span adopted %d subtrees (first %+v), want the answering replica's alone", len(legs), legs)
	}

	// A 400 is the query's fault: no other replica is asked.
	refuses := &stubShard{status: http.StatusBadRequest, resp: service.QueryResponse{Error: "refused"}}
	spare := &stubShard{resp: service.QueryResponse{Count: 3}}
	rsrv = stubRouter(t, []*stubShard{refuses, spare}, RouterOptions{})
	resp, status = postRoute(t, rsrv.URL, edgeWire())
	if msg := resp.ShardErrors["0"]; status != http.StatusBadGateway || !strings.Contains(msg, "HTTP 400") || resp.Failovers != 0 {
		t.Errorf("status %d, shard 0 error %q, failovers %d: want 502 carrying the leg's 400", status, msg, resp.Failovers)
	}
	if refuses.hits.Load() != 1 || spare.hits.Load() != 0 {
		t.Errorf("after a 400 the replicas saw %d and %d requests, want 1 and 0", refuses.hits.Load(), spare.hits.Load())
	}

	// Every replica fails: the shard is missing, and it was the only one.
	down := []*stubShard{{status: http.StatusInternalServerError}, {status: http.StatusInternalServerError}}
	rsrv = stubRouter(t, down, RouterOptions{})
	resp, status = postRoute(t, rsrv.URL, edgeWire())
	if status != http.StatusBadGateway || !reflect.DeepEqual(resp.ShardsFailed, []int{0}) || resp.ShardsOK != 0 {
		t.Errorf("status %d, shards_failed %v, shards_ok %d: want 502, [0], 0", status, resp.ShardsFailed, resp.ShardsOK)
	}
	for i, s := range down {
		if n := s.hits.Load(); n != 1 {
			t.Errorf("failing replica %d saw %d requests, want 1", i, n)
		}
	}
}

// TestLegSpansBoundedAndIsolated: the router keeps at most
// maxLegSpanBytes of spans from a leg — more is dropped and the scatter
// span says how much — and a member that turns out not to be spans when
// /tracez decodes it costs that shard's subtree, not the document.
func TestLegSpansBoundedAndIsolated(t *testing.T) {
	notSpans := func(obs.TraceContext) string { return `[{"name":5},"service-query"]` }
	fleet := oneReplicaEach(
		&stubShard{resp: service.QueryResponse{Count: 1}, spans: oneSpan("fits", maxLegSpanBytes-400)},
		&stubShard{resp: service.QueryResponse{Count: 1}, spans: oneSpan("too big", maxLegSpanBytes)},
		&stubShard{resp: service.QueryResponse{Count: 1}, spans: notSpans},
	)
	rsrv := handlerFleet(t, fleet, RouterOptions{Tracer: obs.NewTracer(obs.TracerOptions{})})
	resp, status := postRoute(t, rsrv.URL, edgeWire())
	if status != http.StatusOK || resp.Count != 3 || resp.Partial {
		t.Fatalf("status %d count %d partial %v: a leg's spans must not cost its answer", status, resp.Count, resp.Partial)
	}
	roots := routerSpans(t, rsrv.URL, resp.TraceID)
	if len(roots) != 1 || len(roots[0].Children) != 3 {
		t.Fatalf("want route-query over three scatters, got %d roots", len(roots))
	}
	for _, sc := range roots[0].Children {
		dropped, legs := sc.Attrs["spans_dropped"], len(sc.Children)
		switch sc.Attrs["shard"] {
		case "0":
			if dropped != "" || legs != 1 || sc.Children[0].Name != "fits" {
				t.Errorf("shard 0: dropped %q, %d subtrees", dropped, legs)
			}
		case "1":
			if n, _ := strconv.Atoi(dropped); n <= maxLegSpanBytes || legs != 0 {
				t.Errorf("shard 1: spans_dropped %q, %d subtrees; want the byte count and none", dropped, legs)
			}
		case "2":
			if dropped != "" || legs != 0 {
				t.Errorf("shard 2: dropped %q, %d subtrees", dropped, legs)
			}
		}
	}
}

// TestDeadlinePropagation: the per-shard sub-request's timeout must be
// the caller's budget minus the router's merge margin, never more — and
// a fill leg's, the budget left when it is sent.
func TestDeadlinePropagation(t *testing.T) {
	stub := &stubShard{resp: service.QueryResponse{Count: 0}}
	rsrv := stubRouter(t, []*stubShard{stub}, RouterOptions{DeadlineMargin: 100 * time.Millisecond})
	wire := edgeWire()
	wire.TimeoutMS = 1000
	if _, status := postRoute(t, rsrv.URL, wire); status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	got := stub.lastTimeout.Load()
	if got <= 0 || got > 900 {
		t.Fatalf("shard saw timeout_ms %d, want in (0, 900]", got)
	}

	// A fill leg is sent once the first round is back, with the budget
	// left then: shard 1's count leg took 200ms, so its fill leg carries
	// at least that much less.
	const stall = 200 * time.Millisecond
	counted := &pageShard{rows: pageOf(200, 5, 2), maxLimit: 100}
	slow := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/query" {
			time.Sleep(stall)
		}
		counted.ServeHTTP(w, r)
	})
	fleet := oneReplicaEach(&pageShard{rows: pageOf(100, 1, 2), maxLimit: 100}, slow)
	rsrv = handlerFleet(t, fleet, RouterOptions{DeadlineMargin: 100 * time.Millisecond, MaxLimit: 100})
	wire = pageWire(0, 4)
	wire.TimeoutMS = 1000
	if resp, status := postRoute(t, rsrv.URL, wire); status != http.StatusOK || len(resp.Embeddings) != 4 {
		t.Fatalf("HTTP %d %q, %d rows", status, resp.Error, len(resp.Embeddings))
	}
	legs, _, _ := counted.take()
	if len(legs) != 2 || !legs[0].CountOnly || legs[1].CountOnly {
		t.Fatalf("shard 1 was asked %+v, want a count leg and a fill leg", legs)
	}
	if first, fill := legs[0].TimeoutMS, legs[1].TimeoutMS; first <= 0 || first > 900 || fill <= 0 || fill > first-stall.Milliseconds()+1 {
		t.Fatalf("timeout_ms %d on the count leg and %d on the fill leg, want the fill's at least %v less", first, fill, stall)
	}
}

// TestRoundRobinPickRotation exercises the rotation directly: per
// shard, independent counters across shards.
func TestRoundRobinPickRotation(t *testing.T) {
	reps := []*Replica{{URL: "a"}, {URL: "b"}, {URL: "c"}}
	p := NewRoundRobin()
	wantFirst := []string{"a", "b", "c", "a"}
	for round, want := range wantFirst {
		ordered := p.Pick(0, reps)
		if len(ordered) != 3 || ordered[0].URL != want {
			t.Fatalf("round %d: primary %s, want %s", round, ordered[0].URL, want)
		}
	}
	// A different shard's rotation is independent.
	ordered := p.Pick(1, reps)
	if ordered[0].URL != "a" {
		t.Fatalf("shard 1 first pick = %s, want a", ordered[0].URL)
	}
}
