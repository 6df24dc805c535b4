package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ceci/internal/service"
)

// TestServeSmoke boots the full server on the paper's Figure 1 pair,
// exercises healthz/query/cachez through the typed client, and checks
// the SIGINT path (modeled by context cancellation) shuts down cleanly.
func TestServeSmoke(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	addrc := make(chan string, 1)
	cfg := serveConfig{
		dataPath:   "../../testdata/fig1_data.lg",
		listen:     "127.0.0.1:0",
		queueDepth: 8,
		cacheMB:    64,
		workers:    1,
		timeout:    30 * time.Second,
		maxTimeout: time.Minute,
		maxLimit:   100,
		drain:      5 * time.Second,
		errw:       io.Discard,
		ready:      func(a string) { addrc <- a },
	}
	done := make(chan error, 1)
	go func() { done <- run(ctx, cfg) }()

	var addr string
	select {
	case addr = <-addrc:
	case err := <-done:
		t.Fatalf("server exited before ready: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("server not ready after 10s")
	}
	cl := service.NewClient("http://"+addr, nil)

	h, err := cl.Healthz(ctx)
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	if h.Status != "ok" || h.DataVertices == 0 {
		t.Fatalf("healthz = %+v", h)
	}

	queryText, err := os.ReadFile("../../testdata/fig1_query.lg")
	if err != nil {
		t.Fatal(err)
	}
	req := service.QueryRequest{Query: string(queryText)}
	first, err := cl.Query(ctx, req)
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	if first.Count == 0 || len(first.Embeddings) == 0 {
		t.Fatalf("fig1 query found nothing: %+v", first)
	}
	if first.CacheHit {
		t.Error("first query reported a cache hit")
	}

	second, err := cl.Query(ctx, req)
	if err != nil {
		t.Fatalf("repeat query: %v", err)
	}
	if !second.CacheHit {
		t.Error("repeat query missed the cache")
	}
	if second.Count != first.Count {
		t.Errorf("counts differ across cache hit: %d vs %d", second.Count, first.Count)
	}

	cs, err := cl.Cachez(ctx)
	if err != nil {
		t.Fatalf("cachez: %v", err)
	}
	if cs.Hits < 1 || cs.Entries != 1 {
		t.Errorf("cache stats = %+v, want >=1 hit and 1 entry", cs)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server did not shut down within 10s")
	}
}

// TestServeTraceAuditFlush boots a server with the audit log enabled
// (-audit), runs a traced query, checks the tracing endpoints, then shuts
// down and verifies the log was flushed to disk — the SIGINT/SIGTERM
// flush path.
func TestServeTraceAuditFlush(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	dir := t.TempDir()
	auditPath := filepath.Join(dir, "audit.jsonl")
	addrc := make(chan string, 1)
	cfg := serveConfig{
		dataPath:   "../../testdata/fig1_data.lg",
		listen:     "127.0.0.1:0",
		queueDepth: 8,
		cacheMB:    64,
		workers:    1,
		timeout:    30 * time.Second,
		maxTimeout: time.Minute,
		maxLimit:   100,
		drain:      5 * time.Second,
		auditPath:  auditPath,
		errw:       io.Discard,
		ready:      func(a string) { addrc <- a },
	}
	done := make(chan error, 1)
	go func() { done <- run(ctx, cfg) }()

	var addr string
	select {
	case addr = <-addrc:
	case err := <-done:
		t.Fatalf("server exited before ready: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("server not ready after 10s")
	}
	cl := service.NewClient("http://"+addr, nil)

	h, err := cl.Healthz(ctx)
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	if h.Build.GoVersion == "" {
		t.Fatalf("healthz missing build info: %+v", h)
	}

	queryText, err := os.ReadFile("../../testdata/fig1_query.lg")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := cl.Query(ctx, service.QueryRequest{Query: string(queryText)})
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	if resp.TraceID == "" {
		t.Fatal("response has no trace ID")
	}
	qz, err := cl.Queryz(ctx)
	if err != nil {
		t.Fatalf("queryz: %v", err)
	}
	if qz.Total != 1 || len(qz.Recent) != 1 || qz.Recent[0].TraceID != resp.TraceID {
		t.Fatalf("queryz = %+v, want the one traced query", qz)
	}
	if _, err := cl.Tracez(ctx, resp.TraceID); err != nil {
		t.Fatalf("tracez: %v", err)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server did not shut down within 10s")
	}

	// The log must be flushed and valid JSONL after shutdown.
	raw, err := os.ReadFile(auditPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) == 0 || lines[0] == "" {
		t.Fatalf("%s is empty after shutdown", auditPath)
	}
	for _, line := range lines {
		var doc map[string]any
		if err := json.Unmarshal([]byte(line), &doc); err != nil {
			t.Fatalf("%s: bad JSONL line %q: %v", auditPath, line, err)
		}
	}
	// The audit line is the flight record of our query.
	if !strings.Contains(string(raw), resp.TraceID) {
		t.Fatalf("audit log does not mention trace %s:\n%s", resp.TraceID, raw)
	}
}

// TestServeVersion: -version prints the build identity and exits
// without needing a data graph.
func TestServeVersion(t *testing.T) {
	var out strings.Builder
	cfg := serveConfig{version: true, outw: &out, errw: io.Discard}
	if err := run(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "go1.") {
		t.Fatalf("version output missing go version: %q", out.String())
	}
}

// TestServeStatzSmoke boots a server with the telemetry hub enabled,
// runs a query, and checks the /statz surfaces (JSON + text) carry the
// query's ledger and the SLO state.
func TestServeStatzSmoke(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	addrc := make(chan string, 1)
	cfg := serveConfig{
		dataPath:        "../../testdata/fig1_data.lg",
		listen:          "127.0.0.1:0",
		queueDepth:      8,
		cacheMB:         64,
		workers:         1,
		timeout:         30 * time.Second,
		maxTimeout:      time.Minute,
		maxLimit:        100,
		drain:           5 * time.Second,
		telemetry:       true,
		telemetrySample: 10 * time.Millisecond,
		sloLatency:      500 * time.Millisecond,
		errw:            io.Discard,
		ready:           func(a string) { addrc <- a },
	}
	done := make(chan error, 1)
	go func() { done <- run(ctx, cfg) }()

	var addr string
	select {
	case addr = <-addrc:
	case err := <-done:
		t.Fatalf("server exited before ready: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("server not ready after 10s")
	}
	cl := service.NewClient("http://"+addr, nil)

	queryText, err := os.ReadFile("../../testdata/fig1_query.lg")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Query(ctx, service.QueryRequest{Query: string(queryText)}); err != nil {
		t.Fatalf("query: %v", err)
	}

	// The flight record carries the resource ledger.
	qz, err := cl.Queryz(ctx)
	if err != nil {
		t.Fatalf("queryz: %v", err)
	}
	if len(qz.Recent) != 1 || qz.Recent[0].Resources == nil || qz.Recent[0].Resources.Units <= 0 {
		t.Fatalf("flight record missing resource ledger: %+v", qz.Recent)
	}

	// /statz: the background sampler runs every 10ms, so a populated
	// series view appears quickly.
	var doc map[string]json.RawMessage
	deadline := time.Now().Add(5 * time.Second)
	for {
		raw := httpGetBody(t, "http://"+addr+"/statz")
		if err := json.Unmarshal(raw, &doc); err != nil {
			t.Fatalf("statz JSON: %v\n%s", err, raw)
		}
		var series map[string]json.RawMessage
		if err := json.Unmarshal(doc["series"], &series); err == nil && len(series) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("statz series never populated:\n%s", raw)
		}
		time.Sleep(20 * time.Millisecond)
	}
	var queries int
	if err := json.Unmarshal(doc["queries"], &queries); err != nil || queries != 1 {
		t.Fatalf("statz queries = %s (%v)", doc["queries"], err)
	}

	var slo struct {
		LatencyTargetMS int64 `json:"latency_target_ms"`
	}
	var errs int
	if err := json.Unmarshal(doc["slo"], &slo); err != nil || slo.LatencyTargetMS != 500 {
		t.Fatalf("statz slo = %s (%v), want the -slo-latency target", doc["slo"], err)
	}
	if err := json.Unmarshal(doc["errors"], &errs); err != nil || errs != 0 {
		t.Fatalf("statz errors = %s (%v)", doc["errors"], err)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server did not shut down within 10s")
	}
}

// httpGetBody fetches a URL and returns the body, failing the test on
// transport or non-200 errors.
func httpGetBody(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d", url, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return body
}
