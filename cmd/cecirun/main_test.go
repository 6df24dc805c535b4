package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ceci"
	"ceci/internal/gen"
)

func writeFixtures(t *testing.T) (dataPath, queryPath string) {
	t.Helper()
	dir := t.TempDir()
	dataPath = filepath.Join(dir, "data.lg")
	queryPath = filepath.Join(dir, "query.lg")
	for path, g := range map[string]*ceci.Graph{
		dataPath:  gen.Fig1Data(),
		queryPath: gen.Fig1Query(),
	} {
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := ceci.WriteLabeledGraph(f, g); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	return dataPath, queryPath
}

func TestRunFromFiles(t *testing.T) {
	dataPath, queryPath := writeFixtures(t)
	for _, strategy := range []string{"st", "cgd", "fgd"} {
		cfg := runConfig{
			dataPath: dataPath, queryPath: queryPath,
			workers: 1, strategy: strategy, beta: 0.2, orderName: "bfs",
			verbose: true, explain: true,
		}
		if err := run(context.Background(), cfg); err != nil {
			t.Fatalf("strategy %s: %v", strategy, err)
		}
	}
}

func TestRunBuiltins(t *testing.T) {
	cfg := runConfig{
		dataset: "yt_s", qg: "QG1",
		workers: 2, limit: 100, strategy: "fgd", beta: 0.2, orderName: "least-frequent",
	}
	if err := run(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
}

func TestRunExplainAnalyze(t *testing.T) {
	dataPath, queryPath := writeFixtures(t)
	var stdout, stderr bytes.Buffer
	cfg := runConfig{
		dataPath: dataPath, queryPath: queryPath,
		workers: 2, strategy: "fgd", beta: 0.2, orderName: "bfs",
		explainAnalyze: true, outw: &stdout, errw: &stderr,
	}
	if err := run(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	out := stdout.String()
	for _, want := range []string{
		"embeddings: 2", "filter funnel", "index shape",
		"enumeration intersections", "cluster cardinality distribution",
		"workers", "phases",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("-explain-analyze output missing %q:\n%s", want, out)
		}
	}
}

func TestRunProfileJSON(t *testing.T) {
	dataPath, queryPath := writeFixtures(t)
	profPath := filepath.Join(t.TempDir(), "profile.json")
	var stdout, stderr bytes.Buffer
	cfg := runConfig{
		dataPath: dataPath, queryPath: queryPath,
		workers: 1, strategy: "fgd", beta: 0.2, orderName: "bfs",
		profileJSON: profPath, outw: &stdout, errw: &stderr,
	}
	if err := run(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(profPath)
	if err != nil {
		t.Fatal(err)
	}
	var rep ceci.Report
	if err := json.Unmarshal(b, &rep); err != nil {
		t.Fatalf("-profile-json is not valid JSON: %v", err)
	}
	if rep.Embeddings != 2 {
		t.Fatalf("embeddings = %d, want 2", rep.Embeddings)
	}
	if len(rep.Profile.Vertices) == 0 || rep.Profile.Clusters.Pivots.Count == 0 {
		t.Fatalf("profile incomplete: %+v", rep.Profile)
	}
	// Without -explain-analyze the standard summary still prints.
	if !strings.Contains(stdout.String(), "embeddings: 2") {
		t.Fatalf("summary missing:\n%s", stdout.String())
	}
}

func TestRunStatsJSON(t *testing.T) {
	dataPath, queryPath := writeFixtures(t)
	var stderr bytes.Buffer
	cfg := runConfig{
		dataPath: dataPath, queryPath: queryPath,
		workers: 1, strategy: "fgd", beta: 0.2, orderName: "bfs",
		statsJSON: true, errw: &stderr,
	}
	if err := run(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	type spanNode struct {
		Name     string     `json:"name"`
		Children []spanNode `json:"children"`
	}
	var doc struct {
		Counters map[string]int64 `json:"counters"`
		Trace    []spanNode       `json:"trace"`
	}
	if err := json.Unmarshal(stderr.Bytes(), &doc); err != nil {
		t.Fatalf("-stats output is not valid JSON: %v\n%s", err, stderr.String())
	}
	if doc.Counters["embeddings"] <= 0 {
		t.Fatalf("embeddings counter = %d, want > 0", doc.Counters["embeddings"])
	}
	names := map[string]bool{}
	var walk func([]spanNode)
	walk = func(ns []spanNode) {
		for _, n := range ns {
			names[n.Name] = true
			walk(n.Children)
		}
	}
	walk(doc.Trace)
	// All phases nest under the single "run" root span.
	for _, want := range []string{"run", "preprocess", "build", "refine", "enumerate"} {
		if !names[want] {
			t.Fatalf("span %q missing from trace: %v", want, names)
		}
	}
}

func TestRunProgressAndTrace(t *testing.T) {
	dataPath, queryPath := writeFixtures(t)
	tracePath := filepath.Join(t.TempDir(), "trace.jsonl")
	var stderr bytes.Buffer
	cfg := runConfig{
		dataPath: dataPath, queryPath: queryPath,
		workers: 2, strategy: "fgd", beta: 0.2, orderName: "bfs",
		progressEvery: time.Millisecond, tracePath: tracePath, errw: &stderr,
	}
	if err := run(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stderr.String(), "progress: clusters") {
		t.Fatalf("no progress lines in stderr: %q", stderr.String())
	}
	raw, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) < 2 {
		t.Fatalf("trace log too short: %d lines", len(lines))
	}
	for _, line := range lines {
		var ev map[string]any
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("bad JSONL line %q: %v", line, err)
		}
	}
}

func TestRunListen(t *testing.T) {
	dataPath, queryPath := writeFixtures(t)
	var stderr bytes.Buffer
	cfg := runConfig{
		dataPath: dataPath, queryPath: queryPath,
		workers: 1, strategy: "fgd", beta: 0.2, orderName: "bfs",
		listen: "127.0.0.1:0", errw: &stderr,
	}
	if err := run(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stderr.String(), "telemetry: http://") {
		t.Fatalf("no telemetry banner: %q", stderr.String())
	}
}

func TestRunValidation(t *testing.T) {
	dataPath, queryPath := writeFixtures(t)
	cases := []struct {
		name string
		cfg  runConfig
	}{
		{"no data", runConfig{queryPath: queryPath, strategy: "fgd", orderName: "bfs"}},
		{"both data", runConfig{dataPath: dataPath, dataset: "yt_s", queryPath: queryPath, strategy: "fgd", orderName: "bfs"}},
		{"no query", runConfig{dataPath: dataPath, strategy: "fgd", orderName: "bfs"}},
		{"both query", runConfig{dataPath: dataPath, queryPath: queryPath, qg: "QG1", strategy: "fgd", orderName: "bfs"}},
		{"bad qg", runConfig{dataPath: dataPath, qg: "QG9", strategy: "fgd", orderName: "bfs"}},
		{"bad strategy", runConfig{dataPath: dataPath, queryPath: queryPath, strategy: "warp", orderName: "bfs"}},
		{"bad order", runConfig{dataPath: dataPath, queryPath: queryPath, strategy: "fgd", orderName: "chaos"}},
		{"auto", runConfig{dataPath: dataPath, queryPath: queryPath, strategy: "fgd", orderName: "auto"}},
		{"bad dataset", runConfig{dataset: "nope", queryPath: queryPath, strategy: "fgd", orderName: "bfs"}},
	}
	for _, c := range cases {
		c.cfg.workers = 1
		c.cfg.beta = 0.2
		if err := run(context.Background(), c.cfg); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestRunVerifyMode(t *testing.T) {
	var out, errb bytes.Buffer
	cfg := runConfig{
		verify: true, seed: 1, pairs: 10, workers: 2,
		verifyOut: t.TempDir(), outw: &out, errw: &errb,
	}
	if err := run(context.Background(), cfg); err != nil {
		t.Fatalf("verify failed: %v\n%s", err, errb.String())
	}
	if !strings.Contains(out.String(), "all agree") {
		t.Fatalf("summary missing from output: %q", out.String())
	}
	if !strings.Contains(out.String(), "8 engines") {
		t.Fatalf("engine count missing from output: %q", out.String())
	}
}

func TestRunVerifyVerbosePrintsPerSeed(t *testing.T) {
	var out, errb bytes.Buffer
	cfg := runConfig{
		verify: true, seed: 3, pairs: 2, workers: 1, verbose: true,
		verifyOut: t.TempDir(), outw: &out, errw: &errb,
	}
	if err := run(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "seed 3:") || !strings.Contains(out.String(), "seed 4:") {
		t.Fatalf("per-seed reports missing: %q", out.String())
	}
}

// TestRunTimeoutReportsPartial: a deadline far too short for the query
// must produce a non-nil (non-zero exit) "timed out" error — with the
// partial embedding count when enumeration had started.
func TestRunTimeoutReportsPartial(t *testing.T) {
	dir := t.TempDir()
	dataPath := filepath.Join(dir, "data.lg")
	queryPath := filepath.Join(dir, "query.lg")
	data := gen.ErdosRenyi(3000, 30000, 1)
	qb := ceci.NewBuilder(4)
	qb.AddEdge(0, 1)
	qb.AddEdge(1, 2)
	qb.AddEdge(2, 3)
	query, err := qb.Build()
	if err != nil {
		t.Fatal(err)
	}
	for path, g := range map[string]*ceci.Graph{dataPath: data, queryPath: query} {
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := ceci.WriteLabeledGraph(f, g); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	var out, errb bytes.Buffer
	cfg := runConfig{
		dataPath: dataPath, queryPath: queryPath,
		strategy: "fgd", orderName: "bfs", workers: 2,
		timeout: 2 * time.Millisecond,
		outw:    &out, errw: &errb,
	}
	start := time.Now()
	err = run(context.Background(), cfg)
	if err == nil {
		t.Skip("host finished a 3000-vertex 4-path inside 2ms; nothing to assert")
	}
	if !strings.Contains(err.Error(), "timed out") {
		t.Fatalf("error = %v, want a timed-out report", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("timeout took %v to take effect", elapsed)
	}
}

// TestRunLedger: -ledger prints the run's resource accounting after the
// result lines, with non-trivial charges.
func TestRunLedger(t *testing.T) {
	dataPath, queryPath := writeFixtures(t)
	var out bytes.Buffer
	cfg := runConfig{
		dataPath: dataPath, queryPath: queryPath,
		workers: 1, strategy: "fgd", beta: 0.2, orderName: "bfs",
		ledger: true, outw: &out,
	}
	if err := run(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	if !strings.Contains(text, "resource ledger:") {
		t.Fatalf("-ledger output missing the ledger block:\n%s", text)
	}
	for _, want := range []string{"units", "kernel"} {
		if !strings.Contains(text, want) {
			t.Fatalf("ledger block missing %q:\n%s", want, text)
		}
	}
}

// TestRunExplainAnalyzeResources: the EXPLAIN ANALYZE profile carries
// the resource-ledger section without asking for -ledger.
func TestRunExplainAnalyzeResources(t *testing.T) {
	dataPath, queryPath := writeFixtures(t)
	var out bytes.Buffer
	cfg := runConfig{
		dataPath: dataPath, queryPath: queryPath,
		workers: 1, strategy: "fgd", beta: 0.2, orderName: "bfs",
		explainAnalyze: true, outw: &out,
	}
	if err := run(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	if !strings.Contains(text, "== resources ==") || !strings.Contains(text, "resource ledger:") {
		t.Fatalf("explain-analyze output missing resources section:\n%s", text)
	}
}
