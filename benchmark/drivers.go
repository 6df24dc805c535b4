package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ceci"
)

// traceState is one run's tracer and its on/off switch. The middleware is
// installed when the servers are built, before the phases are known; it
// records only while on is set and only requests the client tagged.
type traceState struct {
	tr *tracer
	on atomic.Bool
	// inject sleeps inside the named wrapper ("ceci.build", "service.http",
	// "shard.leg" on shard 1). Only the sensitivity test sets it.
	inject map[string]time.Duration
}

// wraps reports whether the servers need the middleware at all: an
// untraced run without injected faults serves the bare handlers.
func (ts *traceState) wraps() bool { return ts.tr != nil || len(ts.inject) > 0 }

// middleware records one span per tagged request around next.
func (ts *traceState) middleware(name, under string, shard int) func(http.Handler) http.Handler {
	delay := ts.inject[name]
	if name == "shard.leg" && shard != 1 {
		delay = 0
	}
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			req, tagged := requestID(r)
			record := tagged && ts.on.Load()
			start := ts.tr.now()
			if r.URL.Path == "/query" { // not health probes or span fetches
				time.Sleep(delay)
			}
			next.ServeHTTP(w, r)
			if record {
				ts.tr.add(span{Req: req, Name: name, under: under, Shard: shard, Start: start, End: ts.tr.now()})
			}
		})
	}
}

// libCase is one library operation: a query, its data graph and answer.
type libCase struct {
	data  *ceci.Graph
	query *ceci.Graph
	limit int64
	want  int64
}

// libCounts are the counters the public Options.Stats and Options.Ledger
// expose, summed over traced library operations.
type libCounts struct {
	filtered       int64
	candidateEdges int64
	indexBytes     int64
	units, splits  int64
	recursive      int64
	embeddings     int64
	cpuUS          int64
	peakScratch    int64
	kernels        map[string]*kernelCount
}

type kernelCount struct{ calls, scanned, emitted int64 }

type indexSize struct{ candidateEdges, bytes int64 }

func newLibCounts() *libCounts { return &libCounts{kernels: make(map[string]*kernelCount)} }

// libDriver runs library operations in process.
type libDriver struct {
	cases  []libCase
	stream *stream
	ts     *traceState
	mu     sync.Mutex
	// counts, when non-nil, makes traced operations attach Options.Stats
	// and Options.Ledger and add their counters here. Only the warm-up
	// pass sets it: the counters cost the enumeration ~10%, which the
	// timed phases must not pay.
	counts *libCounts
}

func (d *libDriver) run(i int) (time.Time, bool) {
	c := &d.cases[d.stream.class(i)]
	var n int64
	var err error
	if d.ts.on.Load() || d.ts.inject["ceci.build"] > 0 {
		n, err = d.runStages(c)
	} else {
		var m *ceci.Matcher
		m, err = ceci.Match(c.data, c.query, &ceci.Options{Workers: libWorkers, Limit: c.limit})
		if err == nil {
			n = m.Count()
		}
	}
	return time.Now(), err == nil && n == c.want
}

// runStages runs the operation as its three stages, each under a span
// when the run is traced.
func (d *libDriver) runStages(c *libCase) (int64, error) {
	var tr *tracer
	if d.ts.on.Load() {
		tr = d.ts.tr
	}
	req := tr.newID()
	var st *ceci.Stats
	var led *ceci.Ledger
	if d.counts != nil {
		st, led = &ceci.Stats{}, ceci.NewLedger()
	}
	start := tr.now()
	n, ix, err := libStages(context.Background(), tr, req, c.data, c.query, libWorkers, c.limit,
		st, led, d.ts.inject["ceci.build"])
	tr.add(span{ID: req, Req: req, Name: "loadgen.request", Start: start, End: tr.now()})
	if err != nil || d.counts == nil {
		return n, err
	}
	res := led.Snapshot()
	d.mu.Lock()
	defer d.mu.Unlock()
	k := d.counts
	k.filtered += filtered(st)
	k.candidateEdges += ix.candidateEdges
	k.indexBytes += ix.bytes
	u, s := unitsAndSplits(st)
	k.units += u
	k.splits += s
	k.recursive += res.RecursiveCalls
	k.embeddings += res.Embeddings
	k.cpuUS += res.CPUUS
	k.peakScratch = max(k.peakScratch, res.PeakScratchBytes)
	for _, mix := range res.Kernels {
		kc := k.kernels[mix.Kernel]
		if kc == nil {
			kc = &kernelCount{}
			k.kernels[mix.Kernel] = kc
		}
		kc.calls += mix.Calls
		kc.scanned += mix.Scanned
		kc.emitted += mix.Emitted
	}
	return n, nil
}

// wireRequest and wireReply are the JSON the servers speak, written out
// here so the load generator depends on the wire format, not on the
// server's Go types.
type wireRequest struct {
	Labels []uint32    `json:"labels"`
	Edges  [][2]uint32 `json:"edges"`
	Limit  int64       `json:"limit"`
}

type wireReply struct {
	Count      int64      `json:"count"`
	Embeddings [][]uint32 `json:"embeddings"`
	CacheHit   bool       `json:"cache_hit"`
	Partial    bool       `json:"partial"`
	BuildMS    float64    `json:"build_ms"`
	EnumMS     float64    `json:"enum_ms"`
	// Router replies only.
	ShardsTotal  int   `json:"shards_total"`
	ShardsOK     int   `json:"shards_ok"`
	ShardsFailed []int `json:"shards_failed"`
}

// replyObs is what one traced reply reported about itself, as measured.
type replyObs struct {
	at                       int64 // tracer time the reply was read
	hit                      bool
	buildMS, enumMS, queueMS float64
}

// httpObs is what traced requests reported about themselves.
type httpObs struct {
	replies   []replyObs
	bytes     int64
	partial   int
	bodies    [][]byte
	replyBody [][]byte
}

// replaySamples bounds the request/reply pairs kept for the off-the-clock
// decode, canonicalise and encode replays.
const replaySamples = 1000

// httpDriver sends the serving request stream to an engine or a router.
type httpDriver struct {
	url    string
	client *http.Client
	data   *ceci.Graph // the whole data graph: replies speak global vertex ids
	pool   *pool
	stream *stream
	limit  int64
	seed   int64
	fleet  bool
	ts     *traceState
	mu     sync.Mutex
	obs    httpObs
	// firstErr keeps the first failed check for the run's error report.
	firstErr error
}

func newHTTPClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConns: conns, MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns,
		DisableCompression: true,
	}}
}

// request is operation i of the stream.
func (d *httpDriver) request(i int) (c *class, perm []int, body []byte) {
	return d.requestFor(d.stream.class(i), i)
}

// requestFor states class k's query under the vertex permutation of
// operation i, as a POST /query body.
func (d *httpDriver) requestFor(k, i int) (c *class, perm []int, body []byte) {
	c = &d.pool.Classes[k]
	perm = opRNG(d.seed, streamPerm, i).Perm(len(c.Labels))
	w := wireRequest{Labels: make([]uint32, len(c.Labels)), Edges: make([][2]uint32, len(c.Edges)), Limit: d.limit}
	for v, l := range c.Labels {
		w.Labels[perm[v]] = l
	}
	for k, e := range c.Edges {
		w.Edges[k] = [2]uint32{uint32(perm[e[0]]), uint32(perm[e[1]])}
	}
	body, _ = json.Marshal(w) // cannot fail: plain integers
	return c, perm, body
}

func (d *httpDriver) run(i int) (time.Time, bool) {
	c, perm, body := d.request(i)
	return d.send(i, c, perm, body)
}

// runClass requests class k once (the cache-filling warm-up).
func (d *httpDriver) runClass(k int) (time.Time, bool) {
	c, perm, body := d.requestFor(k, -1-k)
	return d.send(k, c, perm, body)
}

func (d *httpDriver) send(i int, c *class, perm []int, body []byte) (time.Time, bool) {
	traced := d.ts.on.Load()
	hreq, err := http.NewRequest(http.MethodPost, d.url+"/query", bytes.NewReader(body))
	if err != nil {
		return time.Now(), d.fail(i, err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	var req, start int64
	if traced {
		req = d.ts.tr.newID()
		hreq.Header.Set("traceparent", traceparent(req))
		start = d.ts.tr.now()
	}
	resp, err := d.client.Do(hreq)
	if err != nil {
		return time.Now(), d.fail(i, err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	end := time.Now()
	if traced {
		d.ts.tr.add(span{ID: req, Req: req, Name: "loadgen.request", Start: start, End: d.ts.tr.now()})
	}
	if err != nil {
		return end, d.fail(i, err)
	}
	if resp.StatusCode != http.StatusOK {
		return end, d.fail(i, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(raw)))
	}
	reply, err := decodeReply(raw)
	if err != nil {
		return end, d.fail(i, err)
	}
	if reply.Partial {
		d.mu.Lock()
		d.obs.partial++
		d.mu.Unlock()
	}
	if err := d.check(c, perm, &reply); err != nil {
		return end, d.fail(i, err)
	}
	if traced {
		d.observe(req, resp.Header.Get("Server-Timing"), &reply, body, raw)
	}
	return end, true
}

func (d *httpDriver) fail(i int, err error) bool {
	d.mu.Lock()
	if d.firstErr == nil {
		d.firstErr = fmt.Errorf("operation %d: %w", i, err)
	}
	d.mu.Unlock()
	return false
}

// check verifies one reply against the pinned count and the data graph.
func (d *httpDriver) check(c *class, perm []int, r *wireReply) error {
	if r.Partial {
		return fmt.Errorf("partial reply")
	}
	want := d.pool.expected(c, d.limit)
	switch {
	case !d.fleet || c.Count <= d.limit:
		// Single node, or a class small enough that no shard stops early:
		// the merged fleet count must equal the single-node count.
		if r.Count != want {
			return fmt.Errorf("count %d, want %d", r.Count, want)
		}
	default:
		// Each shard stops at the limit on its own, so the merged count
		// lies between the limit and what the shards could each deliver.
		hi := fleetShards * d.limit
		if c.Count < d.pool.Cap {
			hi = min(hi, c.Count)
		}
		if r.Count < d.limit || r.Count > hi {
			return fmt.Errorf("fleet count %d outside [%d, %d]", r.Count, d.limit, hi)
		}
	}
	if d.fleet && (r.ShardsOK != fleetShards || r.ShardsTotal != fleetShards || len(r.ShardsFailed) > 0) {
		return fmt.Errorf("fleet reply from %d of %d shards", r.ShardsOK, r.ShardsTotal)
	}
	if int64(len(r.Embeddings)) != want {
		return fmt.Errorf("%d embeddings, want %d", len(r.Embeddings), want)
	}
	nv := uint32(d.data.NumVertices())
	for _, emb := range r.Embeddings {
		if len(emb) != len(c.Labels) {
			return fmt.Errorf("embedding of %d vertices for a query of %d", len(emb), len(c.Labels))
		}
		for v, l := range c.Labels {
			dv := emb[perm[v]]
			if dv >= nv || !d.data.HasLabel(dv, l) {
				return fmt.Errorf("embedding %v: query vertex %d (label %d) mapped to %d", emb, perm[v], l, dv)
			}
			for w := 0; w < v; w++ {
				if emb[perm[w]] == dv {
					return fmt.Errorf("embedding %v is not injective", emb)
				}
			}
		}
		for _, e := range c.Edges {
			if !d.data.HasEdge(emb[perm[e[0]]], emb[perm[e[1]]]) {
				return fmt.Errorf("embedding %v: query edge %d-%d has no data edge", emb, perm[e[0]], perm[e[1]])
			}
		}
	}
	return nil
}

// observe records what a traced reply said about its own phases. On a
// single engine the reply's queue, build and enum times become children
// of the service.http span, so that span's self time is the shell.
func (d *httpDriver) observe(req int64, serverTiming string, r *wireReply, body, raw []byte) {
	queueMS := serverTimingDur(serverTiming, "queue")
	if !d.fleet {
		for _, ch := range []struct {
			name string
			ms   float64
		}{{"service.queue", queueMS}, {"service.build", r.BuildMS}, {"service.enum", r.EnumMS}} {
			d.ts.tr.add(span{Req: req, Name: ch.name, under: "service.http", reported: true,
				End: int64(ch.ms * float64(time.Millisecond))})
		}
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	o := &d.obs
	o.replies = append(o.replies, replyObs{d.ts.tr.now(), r.CacheHit, r.BuildMS, r.EnumMS, queueMS})
	o.bytes += int64(len(raw))
	if len(o.bodies) < replaySamples {
		o.bodies = append(o.bodies, body)
		o.replyBody = append(o.replyBody, raw)
	}
}

// serverTimingDur extracts one `name;dur=X` entry (milliseconds) from a
// Server-Timing header; 0 when absent (the router sends none).
func serverTimingDur(h, name string) float64 {
	for _, part := range strings.Split(h, ",") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(part), name+";dur="); ok {
			v, _ := strconv.ParseFloat(rest, 64)
			return v
		}
	}
	return 0
}
