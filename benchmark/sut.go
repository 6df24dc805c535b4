package main

// sut.go is the only file of the benchmark that imports ceci/internal/...
// (imports_test.go enforces it). Everything the harness needs from the
// system under test — datasets, query shapes, the three library stages,
// the engine and the fleet wired the way cmd/ceciserve and cmd/ceciroute
// wire them — goes through the functions below, so a refactor of the
// service or shard packages re-points this one file.

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"time"

	"ceci"
	icec "ceci/internal/ceci"
	"ceci/internal/datasets"
	"ceci/internal/enum"
	"ceci/internal/gen"
	"ceci/internal/obs"
	"ceci/internal/order"
	"ceci/internal/service"
	"ceci/internal/shard"
	"ceci/internal/stats"
	"ceci/internal/telemetry"
	"ceci/internal/verify"
)

// relabelSeed fixes the labels injected into an unlabeled dataset, so
// the data graphs are the same on every run and every seed.
const relabelSeed = 7

// makeDataset generates one of the fixed internal/datasets substitutes,
// optionally injecting `relabel` uniformly random labels (the paper's
// §6.2 recipe).
func makeDataset(name string, relabel int) (*ceci.Graph, error) {
	g, err := datasets.Load(name)
	if err != nil {
		return nil, err
	}
	if relabel > 0 {
		g = gen.WithRandomLabels(g, relabel, relabelSeed)
	}
	return g, nil
}

// queryGrower draws DFS-grown query graphs (paper §6.2) from one seed.
type queryGrower struct{ rng *gen.RNG }

func newQueryGrower(seed int64) *queryGrower { return &queryGrower{rng: gen.NewRNG(seed)} }

func (q *queryGrower) dfs(g *ceci.Graph, size int) (*ceci.Graph, error) {
	return gen.DFSQuery(g, size, q.rng)
}

func (q *queryGrower) intn(n int) int { return q.rng.Intn(n) }

// shapeQuery returns one of the paper's Figure 6 shapes (QG1..QG5).
func shapeQuery(name string) *ceci.Graph { return gen.QueryGraphs()[name] }

// anchorEcc is the eccentricity of the query's centre: a shard fleet of
// halo radius r answers exactly the queries with anchorEcc <= r.
func anchorEcc(q *ceci.Graph) int {
	_, ecc := order.Anchor(q)
	return ecc
}

// libStages runs the sequence ceci.MatchCtx + CountCtx runs — order.Preprocess,
// ceci.BuildCtx, enum.NewMatcher(...).CountCtx — one stage after another,
// each under a span of request req, and returns the count and the built
// index's size. delay is slept inside the ceci.build span (the
// sensitivity test's injected fault; zero in every real run).
func libStages(ctx context.Context, tr *tracer, req int64, data, query *ceci.Graph,
	workers int, limit int64, st *ceci.Stats, led *ceci.Ledger, delay time.Duration) (count int64, ix indexSize, err error) {

	var tree *order.QueryTree
	tr.record("order.preprocess", req, func() {
		tree, err = order.Preprocess(data, query, order.Options{ForcedRoot: -1, Heuristic: order.BFSOrder})
	})
	if err != nil {
		return 0, ix, err
	}
	var index *icec.Index
	tr.record("ceci.build", req, func() {
		time.Sleep(delay)
		index, err = icec.BuildCtx(ctx, data, tree, icec.Options{Workers: workers, Stats: st})
	})
	if err != nil {
		return 0, ix, err
	}
	ix = indexSize{candidateEdges: index.CandidateEdges(), bytes: index.PhysicalBytes()}
	tr.record("enum.count", req, func() {
		count, err = enum.NewMatcher(index, enum.Options{
			Workers: workers, Limit: limit, Stats: st, Ledger: led,
		}).CountCtx(ctx)
	})
	return count, ix, err
}

// filtered sums the candidates the index build dropped, over every
// filter (label, degree, NLC, cascade, refine).
func filtered(st *ceci.Stats) int64 {
	return st.FilteredLabel.Load() + st.FilteredDegree.Load() + st.FilteredNLC.Load() +
		st.FilteredCascade.Load() + st.FilteredRefine.Load()
}

func unitsAndSplits(st *ceci.Stats) (units, splits int64) {
	return st.UnitsScheduled.Load(), st.ExtremeSplits.Load()
}

// server is a handler served on a real loopback listener.
type server struct {
	url  string
	stop func()
}

func serve(h http.Handler) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve(ln) // returns ErrServerClosed on stop
	}()
	return &server{
		url: "http://" + ln.Addr().String(),
		stop: func() {
			srv.Close()
			<-done
		},
	}, nil
}

// engineOptions mirrors what cmd/ceciserve wires from its default flags.
// bare drops the telemetry hub and the tracer and disables sampling — the
// "observability off" side of obs.overhead_frac.
func engineOptions(cacheBytes int64, bare bool) (service.Options, func()) {
	opts := service.Options{
		QueueDepth:     64,
		DefaultTimeout: 30 * time.Second,
		MaxTimeout:     5 * time.Minute,
		MaxLimit:       10000,
		CacheBytes:     cacheBytes,
		Workers:        1,
		Order:          order.BFSOrder,
		Registry:       obs.NewRegistry(),
		Stats:          &stats.Counters{},
	}
	if bare {
		opts.TraceSample = -1
		return opts, func() {}
	}
	hub := telemetry.NewHub(telemetry.Options{
		SampleInterval: 10 * time.Second,
		SLO: telemetry.SLOConfig{
			LatencyTarget:         500 * time.Millisecond,
			LatencyObjective:      0.99,
			AvailabilityObjective: 0.999,
		},
	})
	hub.Start()
	opts.Telemetry = hub
	opts.Tracer = obs.NewTracer(obs.TracerOptions{})
	opts.TraceSample = 1
	return opts, hub.Stop
}

// sutHandle is a running engine or fleet: where to send queries, where
// each engine's /metrics.json lives, and how to stop everything.
type sutHandle struct {
	url     string
	engines []string // base URLs whose /metrics.json carries cache and service counters
	stop    func()

	splitMS   float64 // fleet only
	haloRatio float64 // fleet only: Σ shard vertices ÷ |V|
}

// startEngine serves one ceciserve engine over data. wrap, when non-nil,
// is the benchmark's middleware around Engine.Handler().
func startEngine(data *ceci.Graph, cacheBytes int64, bare bool, wrap func(http.Handler) http.Handler) (*sutHandle, error) {
	opts, stopHub := engineOptions(cacheBytes, bare)
	h := service.New(data, opts).Handler()
	if wrap != nil {
		h = wrap(h)
	}
	srv, err := serve(h)
	if err != nil {
		stopHub()
		return nil, err
	}
	return &sutHandle{url: srv.url, engines: []string{srv.url}, stop: func() {
		srv.stop()
		stopHub()
	}}, nil
}

// startFleet cuts data into shards, serves one shard-mode engine per
// part and a round-robin, unhedged router in front of them — the
// cmd/ceciroute defaults — and returns once the router reports ready.
func startFleet(data *ceci.Graph, shards, radius int, cacheBytes int64, bare bool,
	wrapRoute func(http.Handler) http.Handler, wrapLeg func(shard int, h http.Handler) http.Handler) (*sutHandle, error) {

	var stops []func()
	stopAll := func() {
		for i := len(stops) - 1; i >= 0; i-- {
			stops[i]()
		}
	}
	t0 := time.Now()
	parts, err := shard.Split(data, shard.PartitionOptions{Shards: shards, Radius: radius})
	if err != nil {
		return nil, err
	}
	out := &sutHandle{splitMS: msSince(t0)}
	var urls [][]string
	for _, p := range parts {
		out.haloRatio += float64(p.Graph.NumVertices()) / float64(data.NumVertices())
		opts, stopHub := engineOptions(cacheBytes, bare)
		stops = append(stops, stopHub)
		opts.Shard = &service.ShardConfig{
			ID: p.ID, Shards: p.Shards, Radius: p.Radius,
			Globals: p.Globals, OwnedLocals: p.OwnedLocals,
		}
		h := service.New(p.Graph, opts).Handler()
		if wrapLeg != nil {
			h = wrapLeg(p.ID, h)
		}
		srv, err := serve(h)
		if err != nil {
			stopAll()
			return nil, err
		}
		stops = append(stops, srv.stop)
		urls = append(urls, []string{srv.url})
		out.engines = append(out.engines, srv.url)
	}

	ropts := shard.RouterOptions{
		Shards:         urls,
		Radius:         radius,
		Policy:         shard.NewRoundRobin(),
		HealthInterval: time.Second,
		HealthTimeout:  2 * time.Second,
		HealthFails:    2,
		DefaultTimeout: 30 * time.Second,
		MaxTimeout:     5 * time.Minute,
		DeadlineMargin: 50 * time.Millisecond,
		MaxLimit:       10000,
		Registry:       obs.NewRegistry(),
	}
	if bare {
		ropts.TraceSample = -1
	} else {
		hub := telemetry.NewHub(telemetry.Options{})
		hub.Start()
		stops = append(stops, hub.Stop)
		ropts.Telemetry = hub
		ropts.Tracer = obs.NewTracer(obs.TracerOptions{})
		ropts.TraceSample = 1
	}
	rt, err := shard.NewRouter(ropts)
	if err != nil {
		stopAll()
		return nil, err
	}
	rt.Start()
	stops = append(stops, rt.Stop)
	for deadline := time.Now().Add(5 * time.Second); !rt.Ready(); {
		if time.Now().After(deadline) {
			stopAll()
			return nil, fmt.Errorf("router not ready after 5s")
		}
		time.Sleep(time.Millisecond)
	}
	h := rt.Handler()
	if wrapRoute != nil {
		h = wrapRoute(h)
	}
	srv, err := serve(h)
	if err != nil {
		stopAll()
		return nil, err
	}
	stops = append(stops, srv.stop)
	out.url = srv.url
	out.stop = stopAll
	return out, nil
}

// traceparent builds the W3C header that carries a benchmark request id
// through the router to every shard leg: the trace id's low 8 bytes are
// the id. The sampled flag is set, which is what trace-sample 1 decides
// for a request without the header.
func traceparent(req int64) string {
	var tc obs.TraceContext
	tc.TraceID[0] = 0xbe
	tc.SpanID[0] = 0xbe
	for i := 0; i < 8; i++ {
		tc.TraceID[15-i] = byte(req >> (8 * i))
	}
	tc.Sampled = true
	return tc.Traceparent()
}

// requestID recovers the id traceparent encoded; ok is false for a
// request the benchmark did not tag (health probes, span fetches).
func requestID(r *http.Request) (req int64, ok bool) {
	tc, err := obs.ParseTraceparent(r.Header.Get("traceparent"))
	if err != nil || tc.TraceID[0] != 0xbe {
		return 0, false
	}
	for i := 8; i < 16; i++ {
		req = req<<8 | int64(tc.TraceID[i])
	}
	return req, true
}

// The replay functions re-run, off the clock, one step of the query path
// on bytes recorded during a traced phase.

// replayDecode times QueryRequest decode + Graph() and returns the graph.
func replayDecode(body []byte) (time.Duration, *ceci.Graph, error) {
	t0 := time.Now()
	var wire service.QueryRequest
	if err := json.Unmarshal(body, &wire); err != nil {
		return 0, nil, err
	}
	g, err := wire.Graph()
	return time.Since(t0), g, err
}

// replayCanon times verify.CanonicalGraph, the cache-key step.
func replayCanon(q *ceci.Graph) time.Duration {
	t0 := time.Now()
	verify.CanonicalGraph(q)
	return time.Since(t0)
}

// replayEncode times json.Marshal of a recorded reply.
func replayEncode(reply []byte, fleet bool) (time.Duration, error) {
	var v any
	if fleet {
		v = &shard.RouteResponse{}
	} else {
		v = &service.QueryResponse{}
	}
	if err := json.Unmarshal(reply, v); err != nil {
		return 0, err
	}
	t0 := time.Now()
	_, err := json.Marshal(v)
	return time.Since(t0), err
}
