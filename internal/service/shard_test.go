package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"ceci/internal/graph"
	"ceci/internal/obs"
)

// wholeGraphShard wraps data as a single shard owning every vertex with
// identity global ids.
func wholeGraphShard(data *graph.Graph, radius int) *ShardConfig {
	n := data.NumVertices()
	ids := make([]graph.VertexID, n)
	for i := range ids {
		ids[i] = graph.VertexID(i)
	}
	return &ShardConfig{ID: 0, Shards: 1, Radius: radius, Globals: ids, OwnedLocals: ids}
}

// TestShardModeSingleShardMatchesPlain: a one-shard fleet owning the
// whole graph must behave exactly like a plain engine — same counts,
// same embeddings after the (identity) global translation.
func TestShardModeSingleShardMatchesPlain(t *testing.T) {
	data := testData()
	plain := New(data, Options{MaxLimit: 1 << 20})
	sharded := New(data, Options{MaxLimit: 1 << 20, Shard: wholeGraphShard(data, 4)})
	for i, q := range []*graph.Graph{
		pathQuery(t, 0, 1),
		pathQuery(t, 1, 2, 3),
		pathQuery(t, 3, 1, 2, 0),
	} {
		want, err := plain.Query(context.Background(), Request{Query: q})
		if err != nil {
			t.Fatalf("query %d plain: %v", i, err)
		}
		got, err := sharded.Query(context.Background(), Request{Query: q})
		if err != nil {
			t.Fatalf("query %d sharded: %v", i, err)
		}
		if got.Count != want.Count {
			t.Fatalf("query %d: shard count %d, plain %d", i, got.Count, want.Count)
		}
	}
}

// TestShardModeRadiusGuard: a query whose anchor eccentricity exceeds
// the shard's halo radius is refused with ErrBadQuery — answering it
// could silently miss embeddings that leave the halo.
func TestShardModeRadiusGuard(t *testing.T) {
	data := testData()
	eng := New(data, Options{Shard: wholeGraphShard(data, 1)})

	// A 3-path's anchor (the middle) has eccentricity 1: servable.
	if _, err := eng.Query(context.Background(), Request{Query: pathQuery(t, 1, 2, 3)}); err != nil {
		t.Fatalf("ecc-1 query refused: %v", err)
	}
	// A 5-path's anchor has eccentricity 2 > radius 1: rejected.
	_, err := eng.Query(context.Background(), Request{Query: pathQuery(t, 0, 1, 2, 1, 0)})
	if !errors.Is(err, ErrBadQuery) {
		t.Fatalf("ecc-2 query: err = %v, want ErrBadQuery", err)
	}
}

// TestSpansRideOnlyTracedShardLegs: a shard-mode engine answering a
// sampled request that arrived with a traceparent closes its reply with
// its span subtree — the spans its own /tracez serves — and nothing else
// ever carries the member: not a plain engine, not a request without the
// header, not an unsampled one, not an engine without a tracer. Those
// bodies stay what encoding/json writes for the value they decode to.
func TestSpansRideOnlyTracedShardLegs(t *testing.T) {
	const sampled = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	const unsampled = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-00"
	data := testData()
	wire := wireQuery(pathQuery(t, 1, 2, 3))
	wire.Limit = 4
	body, _ := json.Marshal(wire)
	for _, tc := range []struct {
		name        string
		shard       bool
		tracer      bool
		traceparent string
		spans       bool
	}{
		{"shard, traced leg", true, true, sampled, true},
		{"shard, no traceparent", true, true, "", false},
		{"shard, malformed traceparent", true, true, "00-xyz", false},
		{"shard, unsampled leg", true, true, unsampled, false},
		{"shard without a tracer", true, false, sampled, false},
		{"plain engine, traced request", false, true, sampled, false},
	} {
		opts := Options{Workers: 1}
		if tc.shard {
			opts.Shard = wholeGraphShard(data, 4)
		}
		if tc.tracer {
			opts.Tracer = obs.NewTracer(obs.TracerOptions{})
		}
		eng := New(data, opts)
		srv := httptest.NewServer(eng.Handler())
		hreq, _ := http.NewRequest(http.MethodPost, srv.URL+"/query", bytes.NewReader(body))
		if tc.traceparent != "" {
			hreq.Header.Set("traceparent", tc.traceparent)
		}
		hresp, err := http.DefaultClient.Do(hreq)
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(hresp.Body)
		hresp.Body.Close()

		rest, spans := peelSpans(bytes.Clone(raw))
		rest = bytes.TrimRight(rest, "\n")
		if (spans != nil) != tc.spans || bytes.Contains(rest, []byte(`"spans"`)) {
			t.Errorf("%s: reply %s", tc.name, raw)
		}
		var v QueryResponse
		if err := json.Unmarshal(rest, &v); err != nil || v.Count == 0 {
			t.Fatalf("%s: %v in %s", tc.name, err, rest)
		}
		if want := goldenBody(t, http.StatusOK, v); !bytes.Equal(append(rest, '\n'), want) {
			t.Errorf("%s: without the member the body is not encoding/json's:\n got %s\nwant %s", tc.name, rest, want)
		}
		if tc.spans {
			// The member is the trace the shard's own /tracez serves, a
			// span to an element.
			rec, ok := eng.Flight().Find(v.TraceID)
			if !ok {
				t.Fatalf("%s: trace %s is not in the flight recorder", tc.name, v.TraceID)
			}
			want := flatSpans(t, rec.Trace.Nodes())
			if string(spans) != want || !strings.Contains(want, `"name":"service-query"`) ||
				!strings.Contains(want, `"parent_span_id":"00f067aa0ba902b7"`) {
				t.Errorf("%s: spans on the reply\n %s\n/tracez says\n %s", tc.name, spans, want)
			}
		}
		srv.Close()
	}
}
