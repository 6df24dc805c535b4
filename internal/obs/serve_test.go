package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"ceci/internal/stats"
)

func newTestRegistry() *Registry {
	reg := NewRegistry()
	c := &stats.Counters{}
	c.Embeddings.Add(42)
	c.AddRecursive(7)
	reg.SetCounters(c)
	reg.SetSource("cluster", func() map[string]int64 {
		return map[string]int64{"machine_0_pending": 3}
	})
	return reg
}

func TestPrometheusText(t *testing.T) {
	out := newTestRegistry().PrometheusText()
	for _, want := range []string{
		"# TYPE ceci_embeddings_total counter",
		"ceci_embeddings_total 42",
		"ceci_recursive_calls_total 7",
		"ceci_cluster_machine_0_pending 3",
		"ceci_runtime_goroutines",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestMetricsJSON(t *testing.T) {
	b, err := newTestRegistry().MetricsJSON()
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Counters map[string]int64            `json:"counters"`
		Sources  map[string]map[string]int64 `json:"sources"`
		Runtime  map[string]int64            `json:"runtime"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, b)
	}
	if doc.Counters["embeddings"] != 42 {
		t.Fatalf("counters = %v", doc.Counters)
	}
	if doc.Sources["cluster"]["machine_0_pending"] != 3 {
		t.Fatalf("sources = %v", doc.Sources)
	}
	if doc.Runtime["gomaxprocs"] <= 0 {
		t.Fatalf("runtime = %v", doc.Runtime)
	}
}

func TestServeEndpoints(t *testing.T) {
	srv := httptest.NewServer(newTestRegistry().Handler())
	defer srv.Close()
	base := srv.URL

	get := func(path string) (string, string) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, _ := io.ReadAll(resp.Body)
		return string(body), resp.Header.Get("Content-Type")
	}

	if body, _ := get("/"); !strings.Contains(body, "/metrics") {
		t.Fatalf("index: %q", body)
	}
	body, ctype := get("/metrics")
	if !strings.Contains(body, "ceci_embeddings_total 42") || !strings.Contains(ctype, "text/plain") {
		t.Fatalf("/metrics (%s): %q", ctype, body)
	}
	body, ctype = get("/metrics.json")
	if !json.Valid([]byte(body)) || !strings.Contains(ctype, "application/json") {
		t.Fatalf("/metrics.json (%s): %q", ctype, body)
	}
	if body, _ := get("/debug/pprof/cmdline"); body == "" {
		t.Fatal("pprof cmdline empty")
	}

	resp, err := http.Get(base + "/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/nope: status %d, want 404", resp.StatusCode)
	}
}

func TestRegistryNilSafe(t *testing.T) {
	var r *Registry
	r.SetCounters(nil)
	r.SetSource("x", nil)
	if b, err := r.MetricsJSON(); err != nil || string(b) != "{}" {
		t.Fatalf("nil MetricsJSON = %q, %v", b, err)
	}
	if r.PrometheusText() != "" {
		t.Fatal("nil PrometheusText")
	}
	if r.Handler() == nil {
		t.Fatal("nil Handler should still serve")
	}
}

// TestRuntimeHistogramExpositions: the Go runtime/metrics histograms
// (GC pause, scheduler latency) appear in both expositions once the
// runtime has data — runtime.GC() guarantees at least one pause sample.
func TestRuntimeHistogramExpositions(t *testing.T) {
	runtime.GC()
	reg := NewRegistry()

	out := reg.PrometheusText()
	for _, want := range []string{
		"# TYPE ceci_runtime_gc_pause_seconds histogram",
		"ceci_runtime_gc_pause_seconds_count",
		`ceci_runtime_gc_pause_seconds_bucket{le="+Inf"}`,
		"ceci_runtime_sched_latency_seconds_count",
		"ceci_runtime_heap_goal_bytes",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus exposition missing %q", want)
		}
	}

	b, err := reg.MetricsJSON()
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		RuntimeHists map[string]HistogramSnapshot `json:"runtime_histograms"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	gc, ok := doc.RuntimeHists["gc_pause_seconds"]
	if !ok {
		t.Fatalf("runtime_histograms missing gc_pause_seconds: %v", doc.RuntimeHists)
	}
	if gc.Count <= 0 {
		t.Fatalf("gc_pause_seconds has no samples after runtime.GC(): %+v", gc)
	}
	if len(gc.Counts) != len(gc.Bounds)+1 {
		t.Fatalf("gc_pause_seconds bucket shape: %d counts for %d bounds",
			len(gc.Counts), len(gc.Bounds))
	}
}
