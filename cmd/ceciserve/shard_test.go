package main

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"
	"time"

	"ceci"
	"ceci/internal/graph"
	"ceci/internal/service"
	"ceci/internal/shard"
)

// baseConfig is the shared test scaffolding for serve runs.
func baseConfig() serveConfig {
	return serveConfig{
		listen:     "127.0.0.1:0",
		queueDepth: 8,
		cacheMB:    64,
		workers:    1,
		timeout:    30 * time.Second,
		maxTimeout: time.Minute,
		maxLimit:   1 << 20,
		drain:      5 * time.Second,
		errw:       io.Discard,
	}
}

// TestReadinessGate: the server listens before the data graph loads;
// during that window /healthz answers 200 (live) but ?ready=1 answers
// 503, and both flip once the engine is resident.
func TestReadinessGate(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	listenc := make(chan string, 1)
	readyc := make(chan string, 1)
	cfg := baseConfig()
	cfg.dataPath = "../../testdata/fig1_data.lg"
	cfg.listening = func(a string) { listenc <- a }
	cfg.ready = func(a string) { readyc <- a }
	done := make(chan error, 1)
	go func() { done <- run(ctx, cfg) }()

	var addr string
	select {
	case addr = <-listenc:
	case err := <-done:
		t.Fatalf("server exited before listening: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("server not listening after 10s")
	}

	// The gate phase is a race against a fast data load; we can't assert
	// we observed it, but any pre-ready response must be the gate's: 200
	// liveness, 503 readiness, never a query success. Probe once here;
	// the load of fig1 is fast so this usually lands post-ready — both
	// shapes are checked below.
	cl := service.NewClient("http://"+addr, nil)
	if h, err := cl.Healthz(ctx); err != nil {
		t.Fatalf("liveness during startup must stay 200: %v", err)
	} else if h.Status != "ok" && h.Status != "starting" {
		t.Fatalf("healthz status %q, want ok or starting", h.Status)
	}

	select {
	case <-readyc:
	case err := <-done:
		t.Fatalf("server exited before ready: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("server not ready after 10s")
	}

	// Post-ready: readiness answers 200 and Ready is reported.
	if err := cl.Ready(ctx); err != nil {
		t.Fatalf("ready probe after load: %v", err)
	}
	h, err := cl.Healthz(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || !h.Ready {
		t.Fatalf("post-ready healthz = %+v", h)
	}

	cancel()
	if err := <-done; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// newGateTestServer serves the pre-ready gate handler over httptest.
func newGateTestServer(t *testing.T) string {
	t.Helper()
	srv := httptest.NewServer(gateHandler())
	t.Cleanup(srv.Close)
	return srv.URL
}

// mustLoadQuery parses labeled-graph text.
func mustLoadQuery(t *testing.T, text []byte) *graph.Graph {
	t.Helper()
	q, err := graph.LoadLabeled(bytes.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// TestGateHandlerShape: the pre-ready handler's contract, checked
// directly — liveness 200, readiness 503, queries 503.
func TestGateHandlerShape(t *testing.T) {
	srv := newGateTestServer(t)
	for _, c := range []struct {
		path string
		want int
	}{
		{"/healthz", http.StatusOK},
		{"/healthz?ready=1", http.StatusServiceUnavailable},
		{"/query", http.StatusServiceUnavailable},
		{"/cachez", http.StatusServiceUnavailable},
	} {
		resp, err := http.Get(srv + c.path)
		if err != nil {
			t.Fatalf("%s: %v", c.path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Errorf("%s: status %d, want %d", c.path, resp.StatusCode, c.want)
		}
	}
}

// TestServeShardMode: partition fig1 into two shards, serve one, and
// check the health document names the partition while queries answer
// only the owned pivots' share.
func TestServeShardMode(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	data, err := ceci.LoadGraphFile("../../testdata/fig1_data.lg")
	if err != nil {
		t.Fatal(err)
	}
	parts, err := shard.Split(data, shard.PartitionOptions{Shards: 2, Radius: 2})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := shard.Save(dir, data, parts, false); err != nil {
		t.Fatal(err)
	}

	queryText, err := os.ReadFile("../../testdata/fig1_query.lg")
	if err != nil {
		t.Fatal(err)
	}

	// Serve both shards; their counts must sum to the single-node count.
	var total int64
	for id := 0; id < 2; id++ {
		readyc := make(chan string, 1)
		cfg := baseConfig()
		cfg.shardDir = dir
		cfg.shardID = id
		cfg.ready = func(a string) { readyc <- a }
		sctx, scancel := context.WithCancel(ctx)
		done := make(chan error, 1)
		go func() { done <- run(sctx, cfg) }()

		var addr string
		select {
		case addr = <-readyc:
		case err := <-done:
			t.Fatalf("shard %d exited before ready: %v", id, err)
		case <-time.After(10 * time.Second):
			t.Fatalf("shard %d not ready after 10s", id)
		}
		cl := service.NewClient("http://"+addr, nil)
		h, err := cl.Healthz(ctx)
		if err != nil {
			t.Fatalf("shard %d healthz: %v", id, err)
		}
		if h.ShardID == nil || *h.ShardID != id || h.ShardCount != 2 || h.ShardRadius != 2 {
			t.Fatalf("shard %d healthz shard fields = %+v", id, h)
		}
		if h.ShardOwned <= 0 || h.ShardOwned >= data.NumVertices() {
			t.Fatalf("shard %d owns %d of %d vertices; want a proper subset", id, h.ShardOwned, data.NumVertices())
		}
		resp, err := cl.Query(ctx, service.QueryRequest{Query: string(queryText)})
		if err != nil {
			t.Fatalf("shard %d query: %v", id, err)
		}
		// Embeddings come back in global vertex ids: all within range.
		for _, emb := range resp.Embeddings {
			for _, v := range emb {
				if int(v) >= data.NumVertices() {
					t.Fatalf("shard %d emitted local id %d beyond the global graph", id, v)
				}
			}
		}
		total += resp.Count
		scancel()
		if err := <-done; err != nil {
			t.Fatalf("shard %d shutdown: %v", id, err)
		}
	}

	m, err := ceci.Match(data, mustLoadQuery(t, queryText), &ceci.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := int64(len(m.Collect()))
	if total != want {
		t.Fatalf("shard counts sum to %d, single-node count is %d", total, want)
	}
}

// TestServeShardFlagValidation: the flag cross-checks reject
// inconsistent shard configurations.
func TestServeShardFlagValidation(t *testing.T) {
	cfg := baseConfig()
	cfg.shardDir = t.TempDir() // no manifest inside
	cfg.shardID = 0
	if err := run(context.Background(), cfg); err == nil {
		t.Error("missing manifest.json should fail")
	}

	cfg = baseConfig()
	cfg.shardDir = "somewhere"
	cfg.shardID = -1
	if err := run(context.Background(), cfg); err == nil {
		t.Error("-shard-manifest without -shard-id should fail")
	}

	cfg = baseConfig()
	cfg.shardDir = "somewhere"
	cfg.shardID = 0
	cfg.dataPath = "also-data.lg"
	if err := run(context.Background(), cfg); err == nil {
		t.Error("-shard-manifest with -data should fail")
	}
}
