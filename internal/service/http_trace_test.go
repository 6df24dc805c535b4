package service

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ceci/internal/graph"
	"ceci/internal/obs"
	"ceci/internal/order"
)

// traceTestServer spins up the full HTTP stack around a fresh engine.
func traceTestServer(t *testing.T, opts Options) (*httptest.Server, *Client, *Engine) {
	t.Helper()
	if opts.Workers == 0 {
		opts.Workers = 1
	}
	opts.Order = order.BFSOrder
	eng := New(testData(), opts)
	srv := httptest.NewServer(eng.Handler())
	t.Cleanup(srv.Close)
	return srv, NewClient(srv.URL, srv.Client()), eng
}

// wireQuery renders a pattern graph as the inline wire form.
func wireQuery(q *graph.Graph) QueryRequest {
	wire := QueryRequest{Labels: make([]uint32, q.NumVertices())}
	for v := 0; v < q.NumVertices(); v++ {
		wire.Labels[v] = uint32(q.Label(graph.VertexID(v)))
	}
	for v := 0; v < q.NumVertices(); v++ {
		for _, u := range q.Neighbors(graph.VertexID(v)) {
			if graph.VertexID(v) < u {
				wire.Edges = append(wire.Edges, [2]uint32{uint32(v), uint32(u)})
			}
		}
	}
	return wire
}

// TestTracedQueryEndToEnd drives the full loop the README documents:
// POST /query with a traceparent header, find the record in /queryz,
// fetch its span tree from /tracez/{id} as Chrome trace_event JSON.
func TestTracedQueryEndToEnd(t *testing.T) {
	srv, client, eng := traceTestServer(t, Options{
		Tracer: obs.NewTracer(obs.TracerOptions{}),
	})
	_ = srv

	// The caller owns the trace: its identity goes in, and the query must
	// join it rather than minting a new one.
	want, err := obs.ParseTraceparent("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	if err != nil {
		t.Fatal(err)
	}
	ctx := obs.ContextWithTrace(context.Background(), want)
	resp, err := client.Query(ctx, wireQuery(pathQuery(t, 1, 2, 3)))
	if err != nil {
		t.Fatal(err)
	}
	if resp.TraceID != want.TraceID.String() {
		t.Fatalf("response trace ID = %s, want the caller's %s", resp.TraceID, want.TraceID)
	}
	if resp.QueryHash == "" {
		t.Fatal("response missing query hash")
	}

	// /queryz: the flight recorder holds the completed query.
	qz, err := client.Queryz(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if qz.Total != 1 || len(qz.Recent) != 1 {
		t.Fatalf("queryz = total %d recent %d, want 1/1", qz.Total, len(qz.Recent))
	}
	rec := qz.Recent[0]
	if rec.TraceID != resp.TraceID || rec.Outcome != 200 || !rec.Sampled {
		t.Fatalf("bad flight record: %+v", rec)
	}
	if rec.QueryHash != resp.QueryHash {
		t.Fatalf("flight hash %s != response hash %s", rec.QueryHash, resp.QueryHash)
	}
	if rec.TotalUS <= 0 || rec.EnumUS < 0 || rec.BuildUS < 0 {
		t.Fatalf("phase durations missing: %+v", rec)
	}

	// /tracez/{id}: a valid Chrome trace_event doc with a connected tree
	// rooted at service-query under the caller's span.
	doc, err := client.Tracez(context.Background(), resp.TraceID)
	if err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Ph   string            `json:"ph"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(doc, &parsed); err != nil {
		t.Fatalf("tracez is not valid Chrome JSON: %v\n%s", err, doc)
	}
	names := map[string]bool{}
	for _, ev := range parsed.TraceEvents {
		if ev.Ph == "X" {
			names[ev.Name] = true
			if got := ev.Args["trace_id"]; got != resp.TraceID {
				t.Fatalf("span %q in trace %s, want %s", ev.Name, got, resp.TraceID)
			}
		}
		if ev.Name == "service-query" && ev.Args["parent_span_id"] != want.SpanID.String() {
			t.Fatalf("service-query parent = %s, want caller's %s",
				ev.Args["parent_span_id"], want.SpanID)
		}
	}
	for _, phase := range []string{"service-query", "build", "enumerate"} {
		if !names[phase] {
			t.Fatalf("phase %q missing from exported trace: %v", phase, names)
		}
	}

	// The engine's tracer forest was drained into the flight recorder:
	// a second export still works, and the tracer is not accumulating.
	if got := len(eng.opts.Tracer.Tree()); got != 0 {
		t.Fatalf("tracer retains %d roots after Detach, want 0", got)
	}
	if _, err := client.Tracez(context.Background(), resp.TraceID); err != nil {
		t.Fatalf("second tracez fetch: %v", err)
	}
}

// TestTracedQueryHeaderEgress checks the raw HTTP surfaces: traceparent
// response header, /queryz, the /tracez tree's span identities, and the
// 404s for unknown or unsampled traces.
func TestTracedQueryHeaderEgress(t *testing.T) {
	srv, client, _ := traceTestServer(t, Options{
		Tracer: obs.NewTracer(obs.TracerOptions{}),
	})

	body, _ := json.Marshal(wireQuery(pathQuery(t, 1, 2)))
	hresp, err := srv.Client().Post(srv.URL+"/query", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	tp := hresp.Header.Get("traceparent")
	tc, err := obs.ParseTraceparent(tp)
	if err != nil {
		t.Fatalf("response traceparent %q: %v", tp, err)
	}
	var out QueryResponse
	if err := json.NewDecoder(hresp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if tc.TraceID.String() != out.TraceID {
		t.Fatalf("header trace %s != body trace %s", tc.TraceID, out.TraceID)
	}

	// The flight recorder mentions the query.
	qz, err := client.Queryz(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(qz.Recent) != 1 || qz.Recent[0].TraceID != tc.TraceID.String() {
		t.Fatalf("queryz = %+v, want the query of trace %s", qz.Recent, tc.TraceID)
	}

	// The trace: every span names its trace and itself, and every parent
	// but the root's is a span of the document.
	raw, err := client.Tracez(context.Background(), out.TraceID)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Ph   string            `json:"ph"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	ids := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" {
			ids[ev.Args["span_id"]] = true
		}
	}
	roots := 0
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		if ev.Args["trace_id"] != out.TraceID || ev.Args["span_id"] == "" {
			t.Fatalf("span %q args %v", ev.Name, ev.Args)
		}
		if !ids[ev.Args["parent_span_id"]] {
			roots++
		}
	}
	if len(ids) < 2 || roots != 1 {
		t.Fatalf("%d spans, %d of them roots: want one tree", len(ids), roots)
	}

	// Unknown trace: 404.
	if _, err := client.Tracez(context.Background(), strings.Repeat("0", 31)+"1"); err == nil {
		t.Fatal("tracez for unknown ID succeeded")
	}
}

// TestUnsampledQueryRecordedWithoutSpans: with sampling off, queries
// still land in the flight recorder (with a trace ID) but carry no
// spans, and /tracez answers 404 for them.
func TestUnsampledQueryRecordedWithoutSpans(t *testing.T) {
	_, client, eng := traceTestServer(t, Options{
		Tracer:      obs.NewTracer(obs.TracerOptions{}),
		TraceSample: -1,
	})
	resp, err := client.Query(context.Background(), wireQuery(pathQuery(t, 1, 2, 3)))
	if err != nil {
		t.Fatal(err)
	}
	if resp.TraceID == "" {
		t.Fatal("unsampled query lost its trace ID")
	}
	rec, ok := eng.Flight().Find(resp.TraceID)
	if !ok {
		t.Fatal("unsampled query missing from flight recorder")
	}
	if rec.Sampled || rec.Trace != nil {
		t.Fatalf("unsampled query recorded spans: %+v", rec)
	}
	if _, err := client.Tracez(context.Background(), resp.TraceID); err == nil {
		t.Fatal("tracez served an unsampled trace")
	}
	// The tracer recorded nothing for the request either.
	if got := len(eng.opts.Tracer.Tree()); got != 0 {
		t.Fatalf("unsampled query leaked %d tracer roots", got)
	}
}

// TestFlightRecorderCapturesOutcomes: non-200 outcomes (shed, timeout)
// land in the flight recorder with their status codes.
func TestFlightRecorderCapturesOutcomes(t *testing.T) {
	_, client, eng := traceTestServer(t, Options{
		Tracer:         obs.NewTracer(obs.TracerOptions{}),
		DefaultTimeout: time.Hour,
	})
	// A deadline so short the query cannot finish: outcome 504, partial.
	req := wireQuery(pathQuery(t, 1, 2, 1, 2, 1))
	req.TimeoutMS = 1
	if _, err := client.Query(context.Background(), req); err == nil {
		// Rarely the tiny graph finishes within 1ms; the record is then a
		// 200 and the outcome assertion below is vacuous but harmless.
		t.Log("1ms query finished in time; skipping 504 assertion")
		return
	}
	recent := eng.Flight().Recent()
	if len(recent) == 0 {
		t.Fatal("timed-out query missing from flight recorder")
	}
	if got := recent[0].Outcome; got != 504 {
		t.Fatalf("outcome = %d, want 504", got)
	}
	if !recent[0].Partial {
		t.Fatal("timed-out record not marked partial")
	}
}
