package main

import (
	"bytes"
	"context"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ceci"
	"ceci/internal/gen"
	"ceci/internal/service"
	"ceci/internal/shard"
)

// TestPartitionMode: -partition cuts fig1 into three shards whose
// manifest loads back with every vertex owned exactly once.
func TestPartitionMode(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	cfg := routeConfig{
		partition: true,
		dataPath:  "../../testdata/fig1_data.lg",
		shards:    3,
		radius:    2,
		outDir:    dir,
		errw:      io.Discard,
		outw:      &out,
	}
	if err := run(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "3 shards") {
		t.Errorf("partition summary missing shard count: %q", out.String())
	}
	if _, err := os.Stat(filepath.Join(dir, "manifest.json")); err != nil {
		t.Fatal(err)
	}
	data, err := ceci.LoadGraphFile("../../testdata/fig1_data.lg")
	if err != nil {
		t.Fatal(err)
	}
	owned := 0
	for id := 0; id < 3; id++ {
		p, err := shard.LoadPart(dir, id)
		if err != nil {
			t.Fatalf("shard %d: %v", id, err)
		}
		owned += p.Owned()
	}
	if owned != data.NumVertices() {
		t.Fatalf("shards own %d vertices, want %d", owned, data.NumVertices())
	}
}

// TestRouteModeSmoke: partition fig1, serve every shard in-process, run
// the router via run(), and check the merged count against the paper's
// Figure 1 embedding list.
func TestRouteModeSmoke(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	dir := t.TempDir()
	if err := run(ctx, routeConfig{
		partition: true,
		dataPath:  "../../testdata/fig1_data.lg",
		shards:    3,
		radius:    2,
		outDir:    dir,
		errw:      io.Discard,
		outw:      io.Discard,
	}); err != nil {
		t.Fatal(err)
	}

	// Shard fleet: one shard-mode engine per partition.
	var replicas [][]string
	for id := 0; id < 3; id++ {
		p, err := shard.LoadPart(dir, id)
		if err != nil {
			t.Fatal(err)
		}
		eng := service.New(p.Graph, service.Options{
			MaxLimit: 1 << 20,
			Shard: &service.ShardConfig{
				ID: p.ID, Shards: p.Shards, Radius: p.Radius,
				Globals: p.Globals, OwnedLocals: p.OwnedLocals,
			},
		})
		srv := httptest.NewServer(eng.Handler())
		t.Cleanup(srv.Close)
		replicas = append(replicas, []string{srv.URL})
	}

	readyc := make(chan string, 1)
	cfg := routeConfig{
		manifestDir: dir,
		replicas:    replicas,
		listen:      "127.0.0.1:0",
		healthInt:   25 * time.Millisecond,
		healthTO:    time.Second,
		healthFails: 2,
		timeout:     30 * time.Second,
		maxTimeout:  time.Minute,
		margin:      20 * time.Millisecond,
		maxLimit:    1 << 20,
		drain:       5 * time.Second,
		traceSample: 1,
		errw:        io.Discard,
		outw:        io.Discard,
		ready:       func(a string) { readyc <- a },
	}
	done := make(chan error, 1)
	go func() { done <- run(ctx, cfg) }()

	var addr string
	select {
	case addr = <-readyc:
	case err := <-done:
		t.Fatalf("router exited before ready: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("router not ready after 10s")
	}

	cl := service.NewClient("http://"+addr, nil)
	queryText, err := os.ReadFile("../../testdata/fig1_query.lg")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := cl.Query(ctx, service.QueryRequest{Query: string(queryText), Limit: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	want := int64(len(gen.Fig1Embeddings()))
	if resp.Partial || resp.Count != want {
		t.Fatalf("routed fig1: partial %v count %d, want exact %d", resp.Partial, resp.Count, want)
	}
	// Embeddings are global ids: every vertex must exist in the source.
	data, err := ceci.LoadGraphFile("../../testdata/fig1_data.lg")
	if err != nil {
		t.Fatal(err)
	}
	for _, emb := range resp.Embeddings {
		for _, v := range emb {
			if int(v) >= data.NumVertices() {
				t.Fatalf("embedding vertex %d beyond the global graph", v)
			}
		}
	}

	// SIGTERM path (modeled by context cancellation) drains cleanly.
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("router did not drain within 10s")
	}
}

// TestRouteModeValidation: missing or inconsistent fleet wiring fails
// fast instead of serving a half-configured router.
func TestRouteModeValidation(t *testing.T) {
	if err := run(context.Background(), routeConfig{errw: io.Discard, outw: io.Discard}); err == nil {
		t.Error("route mode without -manifest should fail")
	}

	dir := t.TempDir()
	if err := run(context.Background(), routeConfig{
		partition: true, dataPath: "../../testdata/fig1_data.lg",
		shards: 2, radius: 2, outDir: dir, errw: io.Discard, outw: io.Discard,
	}); err != nil {
		t.Fatal(err)
	}
	err := run(context.Background(), routeConfig{
		manifestDir: dir,
		replicas:    [][]string{{"http://127.0.0.1:1"}}, // 1 flag, 2 shards
		errw:        io.Discard, outw: io.Discard,
	})
	if err == nil || !strings.Contains(err.Error(), "2 shards") {
		t.Errorf("replica/shard mismatch should fail with the counts: %v", err)
	}
}
