package obs

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/pprof"
	"sort"
	"strings"
	"sync"

	"ceci/internal/stats"
)

// Registry aggregates metric sources — a counter set, named gauge
// sources and named histograms — and renders them as JSON or Prometheus
// text. Safe for concurrent use.
type Registry struct {
	mu       sync.Mutex
	counters *stats.Counters
	sources  map[string]func() map[string]int64
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// SetCounters attaches the counter set rendered as ceci_*_total counters.
func (r *Registry) SetCounters(c *stats.Counters) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.counters = c
	r.mu.Unlock()
}

// SetSource registers (or replaces) a named gauge source. The function
// is called at scrape time and must be safe for concurrent use; its keys
// become ceci_<name>_<key> gauges.
func (r *Registry) SetSource(name string, fn func() map[string]int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if r.sources == nil {
		r.sources = make(map[string]func() map[string]int64)
	}
	r.sources[name] = fn
	r.mu.Unlock()
}

// SetHistogram registers (or replaces) a named histogram, rendered as
// ceci_<name>_bucket/_sum/_count series by PrometheusText and under the
// "histograms" key of MetricsJSON. The histogram is snapshotted at
// scrape time, so attach it once and keep observing.
func (r *Registry) SetHistogram(name string, h *Histogram) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if r.hists == nil {
		r.hists = make(map[string]*Histogram)
	}
	if h == nil {
		delete(r.hists, name)
	} else {
		r.hists[name] = h
	}
	r.mu.Unlock()
}

type registrySnapshot struct {
	counters map[string]int64
	sources  map[string]map[string]int64
	hists    map[string]HistogramSnapshot
}

func (r *Registry) snapshot() registrySnapshot {
	r.mu.Lock()
	counters := r.counters
	r.mu.Unlock()
	snap := registrySnapshot{counters: counters.Snapshot()}
	if sources := r.GaugeSources(); len(sources) > 0 {
		snap.sources = sources
	}
	if hists := r.Histograms(); len(hists) > 0 {
		snap.hists = make(map[string]HistogramSnapshot, len(hists))
		for name, h := range hists {
			snap.hists[name] = h.Snapshot()
		}
	}
	return snap
}

// GaugeSources evaluates every registered gauge source and returns the
// results by source name. The telemetry hub samples this periodically
// into its time-series store.
func (r *Registry) GaugeSources() map[string]map[string]int64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	fns := make(map[string]func() map[string]int64, len(r.sources))
	for k, v := range r.sources {
		fns[k] = v
	}
	r.mu.Unlock()
	out := make(map[string]map[string]int64, len(fns))
	for name, fn := range fns {
		out[name] = fn()
	}
	return out
}

// Histograms returns the registered histograms by name (a copy of the
// map; the histograms themselves are shared and live).
func (r *Registry) Histograms() map[string]*Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		out[k] = v
	}
	return out
}

// MetricsJSON renders the registry as one JSON document: counters,
// named sources, histograms, and the Go runtime snapshot (scalar
// gauges plus the GC-pause and scheduler-latency distributions).
func (r *Registry) MetricsJSON() ([]byte, error) {
	if r == nil {
		return []byte("{}"), nil
	}
	snap := r.snapshot()
	rg, rh := RuntimeSnapshot()
	doc := map[string]any{
		"counters":           snap.counters,
		"runtime":            rg,
		"runtime_histograms": rh,
	}
	if snap.sources != nil {
		doc["sources"] = snap.sources
	}
	if snap.hists != nil {
		doc["histograms"] = snap.hists
	}
	return json.MarshalIndent(doc, "", "  ")
}

// PrometheusText renders the registry in the Prometheus text exposition
// format: counters as ceci_<name>_total, histograms, sources as gauges,
// plus Go runtime gauges and histograms.
func (r *Registry) PrometheusText() string {
	if r == nil {
		return ""
	}
	snap := r.snapshot()
	var b strings.Builder

	keys := make([]string, 0, len(snap.counters))
	for k := range snap.counters {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		name := "ceci_" + k + "_total"
		fmt.Fprintf(&b, "# TYPE %s counter\n%s %d\n", name, name, snap.counters[k])
	}

	histNames := make([]string, 0, len(snap.hists))
	for name := range snap.hists {
		histNames = append(histNames, name)
	}
	sort.Strings(histNames)
	for _, name := range histNames {
		writePromHistogram(&b, "ceci_"+name, snap.hists[name])
	}

	srcNames := make([]string, 0, len(snap.sources))
	for name := range snap.sources {
		srcNames = append(srcNames, name)
	}
	sort.Strings(srcNames)
	for _, name := range srcNames {
		vals := snap.sources[name]
		ks := make([]string, 0, len(vals))
		for k := range vals {
			ks = append(ks, k)
		}
		sort.Strings(ks)
		for _, k := range ks {
			mn := "ceci_" + name + "_" + k
			fmt.Fprintf(&b, "# TYPE %s gauge\n%s %d\n", mn, mn, vals[k])
		}
	}

	rg, rh := RuntimeSnapshot()
	rks := make([]string, 0, len(rg))
	for k := range rg {
		rks = append(rks, k)
	}
	sort.Strings(rks)
	for _, k := range rks {
		name := "ceci_runtime_" + k
		fmt.Fprintf(&b, "# TYPE %s gauge\n%s %d\n", name, name, rg[k])
	}
	rhNames := make([]string, 0, len(rh))
	for k := range rh {
		rhNames = append(rhNames, k)
	}
	sort.Strings(rhNames)
	for _, k := range rhNames {
		writePromHistogram(&b, "ceci_runtime_"+k, rh[k])
	}
	return b.String()
}

// writePromHistogram renders one histogram in the text exposition
// format: cumulative _bucket series with le labels (ending at +Inf),
// then _sum and _count.
func writePromHistogram(b *strings.Builder, name string, s HistogramSnapshot) {
	fmt.Fprintf(b, "# TYPE %s histogram\n", name)
	var cum int64
	for i, bound := range s.Bounds {
		cum += s.Counts[i]
		fmt.Fprintf(b, "%s_bucket{le=%q} %d\n", name, promLabel(bound), cum)
	}
	if n := len(s.Counts); n > 0 {
		cum += s.Counts[n-1]
	}
	fmt.Fprintf(b, "%s_bucket{le=\"+Inf\"} %d\n", name, cum)
	fmt.Fprintf(b, "%s_sum %g\n", name, s.Sum)
	fmt.Fprintf(b, "%s_count %d\n", name, s.Count)
}

// Handler returns the metrics mux, which the query servers mount at /
// beside their own routes:
//
//	/               route index
//	/metrics        Prometheus text format
//	/metrics.json   counters + sources + histograms + runtime as JSON
//	/debug/pprof/   net/http/pprof profiles
func (r *Registry) Handler() http.Handler {
	if r == nil {
		r = NewRegistry()
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path != "/" {
			http.NotFound(w, req)
			return
		}
		fmt.Fprint(w, "ceci telemetry\n\n/metrics\n/metrics.json\n/debug/pprof/\n")
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		fmt.Fprint(w, r.PrometheusText())
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, req *http.Request) {
		b, err := r.MetricsJSON()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(b)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
