package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"sort"
	"strings"
	"testing"

	"ceci/internal/gen"
	"ceci/internal/obs"
	"ceci/internal/service"
	"ceci/internal/stats"
	"ceci/internal/telemetry"
)

// metricShape is what a scraper of /metrics.json and /metrics can rely
// on: the document's members, each source's keys, the histogram names,
// and the Prometheus families that are neither ceci_<counter>_total nor
// Go runtime series.
type metricShape struct {
	members    []string
	sources    map[string][]string
	histograms []string
	families   []string
}

// scrapeShape reads both metric routes of base and checks they agree: every
// counter of /metrics.json is a ceci_<name>_total family of /metrics.
func scrapeShape(t *testing.T, base string) metricShape {
	t.Helper()
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(getBody(t, base+"/metrics.json"), &doc); err != nil {
		t.Fatal(err)
	}
	var shape metricShape
	for k := range doc {
		shape.members = append(shape.members, k)
	}
	sort.Strings(shape.members)
	var srcs map[string]map[string]int64
	var hists map[string]json.RawMessage
	var counters map[string]int64
	if err := json.Unmarshal(doc["sources"], &srcs); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(doc["histograms"], &hists); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(doc["counters"], &counters); err != nil {
		t.Fatal(err)
	}
	shape.sources = map[string][]string{}
	for name, vals := range srcs {
		for k := range vals {
			shape.sources[name] = append(shape.sources[name], k)
		}
		sort.Strings(shape.sources[name])
	}
	for name := range hists {
		shape.histograms = append(shape.histograms, name)
	}
	sort.Strings(shape.histograms)

	counterFamilies := map[string]bool{}
	for k := range counters {
		counterFamilies["ceci_"+k+"_total"] = true
	}
	for _, line := range strings.Split(string(getBody(t, base+"/metrics")), "\n") {
		rest, ok := strings.CutPrefix(line, "# TYPE ")
		if !ok {
			continue
		}
		name, _, _ := strings.Cut(rest, " ")
		switch {
		case counterFamilies[name]:
			delete(counterFamilies, name)
		case !strings.HasPrefix(name, "ceci_runtime_"):
			shape.families = append(shape.families, name)
		}
	}
	if len(counterFamilies) != 0 {
		t.Errorf("%s: counters of /metrics.json missing from /metrics: %v", base, counterFamilies)
	}
	sort.Strings(shape.families)
	return shape
}

func getBody(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d %s", url, resp.StatusCode, b)
	}
	return b
}

// TestEngineAndRouterMetricAndTraceRoutes pins what ceciserve and
// ceciroute serve besides queries, wired as the binaries wire them
// (registry, counters, tracer, telemetry hub): the members and keys of
// /metrics.json — the service and cache sources are what the repo
// benchmark scrapes — the Prometheus families of /metrics, and GET /trace,
// which answers the server tracer's Tree() from the debug mount.
func TestEngineAndRouterMetricAndTraceRoutes(t *testing.T) {
	data := gen.Fig1Data()
	parts, err := Split(data, PartitionOptions{Shards: 1, Radius: 2})
	if err != nil {
		t.Fatal(err)
	}
	engTracer := obs.NewTracer(obs.TracerOptions{})
	eng := shardEngine(parts[0], service.Options{
		Registry:  obs.NewRegistry(),
		Stats:     &stats.Counters{},
		Tracer:    engTracer,
		Telemetry: telemetry.NewHub(telemetry.Options{}),
	})
	esrv := httptest.NewServer(eng.Handler())
	t.Cleanup(esrv.Close)
	rtTracer := obs.NewTracer(obs.TracerOptions{})
	_, rsrv := startFleet(t, data, 1, 2, service.Options{TraceSample: 1}, RouterOptions{
		Registry:  obs.NewRegistry(),
		Tracer:    rtTracer,
		Telemetry: telemetry.NewHub(telemetry.Options{}),
	})

	wire := service.QueryRequest{Query: wireText(t, gen.Fig1Query())}
	body, _ := json.Marshal(wire)
	for _, url := range []string{esrv.URL, rsrv.URL} {
		resp, err := http.Post(url+"/query", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s/query: %d", url, resp.StatusCode)
		}
	}

	members := []string{"counters", "histograms", "runtime", "runtime_histograms", "sources"}
	slo := []string{
		"availability_breach", "availability_fast_burn_milli", "availability_slow_burn_milli",
		"error_budget_remaining_milli", "latency_breach", "latency_budget_remaining_milli",
		"latency_fast_burn_milli", "latency_slow_burn_milli",
	}
	gauges := func(prefix string, keys []string) []string {
		var out []string
		for _, k := range keys {
			out = append(out, "ceci_"+prefix+"_"+k)
		}
		return out
	}
	engSources := map[string][]string{
		"cache":   {"budget_bytes", "entries", "evicted_bytes", "evictions", "grown", "hits", "misses", "rejected", "used_bytes"},
		"service": {"builds", "deadline_exceeded", "inflight", "queue_depth", "requests", "shed", "trace_reads"},
		"slo":     slo,
	}
	rtSources := map[string][]string{
		"router": {"failovers", "failures", "healthy_replicas", "partials", "requests", "trace_reads"},
		"slo":    slo,
	}
	engHists := []string{"service_latency_seconds", "service_queue_wait_seconds"}
	rtHists := []string{"router_latency_seconds"}
	families := func(sources map[string][]string, hists []string) []string {
		out := slices.Clone(hists)
		for i := range out {
			out[i] = "ceci_" + out[i]
		}
		for name, keys := range sources {
			out = append(out, gauges(name, keys)...)
		}
		sort.Strings(out)
		return out
	}
	for _, tc := range []struct {
		server, url string
		tracer      *obs.Tracer
		want        metricShape
	}{
		{"engine", esrv.URL, engTracer, metricShape{members, engSources, engHists, families(engSources, engHists)}},
		{"router", rsrv.URL, rtTracer, metricShape{members, rtSources, rtHists, families(rtSources, rtHists)}},
	} {
		got := scrapeShape(t, tc.url)
		if !slices.Equal(got.members, tc.want.members) {
			t.Errorf("%s /metrics.json members %v, want %v", tc.server, got.members, tc.want.members)
		}
		for name, keys := range tc.want.sources {
			if !slices.Equal(got.sources[name], keys) {
				t.Errorf("%s source %q keys %v, want %v", tc.server, name, got.sources[name], keys)
			}
		}
		if len(got.sources) != len(tc.want.sources) {
			t.Errorf("%s sources %v, want those of %v", tc.server, got.sources, tc.want.sources)
		}
		if !slices.Equal(got.histograms, tc.want.histograms) {
			t.Errorf("%s histograms %v, want %v", tc.server, got.histograms, tc.want.histograms)
		}
		if !slices.Equal(got.families, tc.want.families) {
			t.Errorf("%s /metrics families %v, want %v", tc.server, got.families, tc.want.families)
		}

		// A served query's spans leave the tracer with its flight record;
		// a span of the tracer's own stays in its forest.
		tc.tracer.Start("probe").End()
		want, err := json.MarshalIndent(tc.tracer.Tree(), "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		trace := getBody(t, tc.url+"/trace")
		if !bytes.Equal(trace, want) {
			t.Errorf("%s /trace is not its tracer's Tree():\n%s\nwant\n%s", tc.server, trace, want)
		}
		var tree []*obs.SpanNode
		if err := json.Unmarshal(trace, &tree); err != nil || len(tree) != 1 || tree[0].Name != "probe" {
			t.Errorf("%s /trace: %v, %s", tc.server, err, trace)
		}
	}
}

// TestDebugRoutesHaveOneEncoding: on an engine and on a router, each debug
// route has one encoding. Asked with no parameter, with ?format=text or
// with ?format=jsonl, it answers application/json that decodes, with no
// member left over, as its one document; /queryz and /tracez answer the
// same bytes every time.
func TestDebugRoutesHaveOneEncoding(t *testing.T) {
	data := gen.Fig1Data()
	parts, err := Split(data, PartitionOptions{Shards: 1, Radius: 2})
	if err != nil {
		t.Fatal(err)
	}
	eng := shardEngine(parts[0], service.Options{
		Tracer:      obs.NewTracer(obs.TracerOptions{}),
		TraceSample: 1,
		Telemetry:   telemetry.NewHub(telemetry.Options{}),
	})
	esrv := httptest.NewServer(eng.Handler())
	t.Cleanup(esrv.Close)
	_, rsrv := startFleet(t, data, 1, 2, service.Options{TraceSample: 1}, RouterOptions{
		Tracer:      obs.NewTracer(obs.TracerOptions{}),
		TraceSample: 1,
		Telemetry:   telemetry.NewHub(telemetry.Options{}),
	})

	type chromeDoc struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Ph   string            `json:"ph"`
			TS   int64             `json:"ts"`
			Dur  int64             `json:"dur"`
			PID  int               `json:"pid"`
			TID  int64             `json:"tid"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	wire := service.QueryRequest{Query: wireText(t, gen.Fig1Query())}
	for server, url := range map[string]string{"engine": esrv.URL, "router": rsrv.URL} {
		resp, err := service.NewClient(url, nil).Query(context.Background(), wire)
		if err != nil || resp.TraceID == "" {
			t.Fatalf("%s: query: %v (trace %q)", server, err, resp.TraceID)
		}
		for _, route := range []struct {
			path      string
			doc       func() any
			sameBytes bool
		}{
			{"/queryz", func() any { return &service.QueryzResponse{} }, true},
			{"/statz", func() any { return &telemetry.Statz{} }, false},
			{"/tracez/" + resp.TraceID, func() any { return &chromeDoc{} }, true},
			{"/trace", func() any { return &[]*obs.SpanNode{} }, false},
		} {
			var first []byte
			for _, query := range []string{"", "?format=text", "?format=jsonl"} {
				hresp, err := http.Get(url + route.path + query)
				if err != nil {
					t.Fatal(err)
				}
				body, _ := io.ReadAll(hresp.Body)
				hresp.Body.Close()
				name := server + " " + route.path + query
				if ct := hresp.Header.Get("Content-Type"); hresp.StatusCode != http.StatusOK || ct != "application/json" {
					t.Errorf("%s: HTTP %d, Content-Type %q, want 200 application/json", name, hresp.StatusCode, ct)
					continue
				}
				dec := json.NewDecoder(bytes.NewReader(body))
				dec.DisallowUnknownFields()
				doc := route.doc()
				if err := dec.Decode(doc); err != nil || dec.More() {
					t.Errorf("%s: does not decode as its document (%v): %.200s", name, err, body)
				}
				if c, ok := doc.(*chromeDoc); ok && len(c.TraceEvents) < 2 {
					t.Errorf("%s: %d trace events", name, len(c.TraceEvents))
				}
				if first == nil {
					first = body
				} else if route.sameBytes && !bytes.Equal(body, first) {
					t.Errorf("%s: body differs from the plain route's:\n%s\nwant\n%s", name, body, first)
				}
			}
		}
	}
}
