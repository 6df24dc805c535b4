package shard

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"ceci/internal/gen"
	"ceci/internal/obs"
	"ceci/internal/service"
)

// TestEngineAndRouterFrameParity: ceciserve and ceciroute put a query in
// the same frame (service.Frame), so the same request — answered, cut off
// by its deadline, or refused once its query graph is decoded — leaves the
// same marks on both: the traceparent it is answered with, whether it was
// sampled, and a /queryz record whose outcome is the status the client
// saw. The statuses themselves are equal except where the router's merge
// contract says otherwise: a leg that ran out of time is a usable partial
// answer, so the router says 200 "partial" where the engine says 504.
func TestEngineAndRouterFrameParity(t *testing.T) {
	data := gen.ErdosRenyi(2000, 24000, 3) // unlabeled: a 4-path has far more embeddings than any deadline here allows
	const radius = 2
	parts, err := Split(data, PartitionOptions{Shards: 1, Radius: radius})
	if err != nil {
		t.Fatal(err)
	}
	eng := shardEngine(parts[0], service.Options{Tracer: obs.NewTracer(obs.TracerOptions{})})
	esrv := httptest.NewServer(eng.Handler())
	t.Cleanup(esrv.Close)
	rt, rsrv := startFleet(t, data, 1, radius, service.Options{TraceSample: 1},
		RouterOptions{Tracer: obs.NewTracer(obs.TracerOptions{})})

	path := func(n int) service.QueryRequest {
		wire := service.QueryRequest{Labels: make([]uint32, n)}
		for v := 0; v+1 < n; v++ {
			wire.Edges = append(wire.Edges, [2]uint32{uint32(v), uint32(v + 1)})
		}
		return wire
	}
	page := path(4)
	page.Limit = 10
	count := path(4)
	count.CountOnly, count.TimeoutMS = true, 60 // the router keeps 50 ms of it for itself
	negative := path(3)
	negative.Offset = -1
	disconnected := path(3)
	disconnected.Edges = disconnected.Edges[:1]
	overflowing := path(3)
	overflowing.Offset, overflowing.Limit = math.MaxInt64, 1

	const sampledTP = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	const unsampledTP = "00-5bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-00"
	type reply struct {
		status  int
		egress  string
		partial bool
		rec     obs.QueryRecord
	}
	send := func(url string, flight *obs.FlightRecorder, wire service.QueryRequest, traceparent string) reply {
		t.Helper()
		body, _ := json.Marshal(wire)
		hreq, _ := http.NewRequest(http.MethodPost, url+"/query", bytes.NewReader(body))
		if traceparent != "" {
			hreq.Header.Set("traceparent", traceparent)
		}
		before := flight.Total()
		hresp, err := http.DefaultClient.Do(hreq)
		if err != nil {
			t.Fatal(err)
		}
		defer hresp.Body.Close()
		var out service.QueryResponse
		if err := json.NewDecoder(hresp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		if n := flight.Total() - before; n != 1 {
			t.Fatalf("%d flight records for one request", n)
		}
		return reply{hresp.StatusCode, hresp.Header.Get("traceparent"), out.Partial, flight.Recent()[0]}
	}

	for _, tc := range []struct {
		name           string
		wire           service.QueryRequest
		traceparent    string
		engine, router int // statuses
		sampled        bool
	}{
		{"answered", page, "", 200, 200, true},
		{"answered, caller's trace", page, sampledTP, 200, 200, true},
		{"answered, caller's trace unsampled", page, unsampledTP, 200, 200, false},
		{"deadline exceeded", count, sampledTP, 504, 200, true},
		{"refused: over the radius", path(7), sampledTP, 400, 400, true},
		{"refused: disconnected", disconnected, "", 400, 400, true},
		{"refused: negative offset", negative, unsampledTP, 400, 400, false},
		{"refused: window end overflows", overflowing, sampledTP, 400, 400, true},
	} {
		e := send(esrv.URL, eng.Flight(), tc.wire, tc.traceparent)
		r := send(rsrv.URL, rt.Flight(), tc.wire, tc.traceparent)
		if e.status != tc.engine || r.status != tc.router {
			t.Errorf("%s: engine answered %d, router %d; want %d and %d", tc.name, e.status, r.status, tc.engine, tc.router)
		}
		if e.partial != r.partial || e.partial != (tc.engine == 504) {
			t.Errorf("%s: partial: engine %v, router %v", tc.name, e.partial, r.partial)
		}
		for server, got := range map[string]reply{"engine": e, "router": r} {
			if got.rec.Outcome != got.status || got.rec.Sampled != tc.sampled || got.rec.QueryVertices != len(tc.wire.Labels) {
				t.Errorf("%s: %s answered %d and filed %+v; want that outcome, sampled %v", tc.name, server, got.status, got.rec, tc.sampled)
			}
			if tc.traceparent != "" && got.rec.TraceID != tc.traceparent[3:35] {
				t.Errorf("%s: %s filed trace %s, the caller's is %s", tc.name, server, got.rec.TraceID, tc.traceparent[3:35])
			}
			// A reply names its root span when there is one and the query
			// was not refused: the caller's trace continues through it.
			wantEgress := tc.sampled && got.status != http.StatusBadRequest
			tc2, err := obs.ParseTraceparent(got.egress)
			if (got.egress != "") != wantEgress || (wantEgress && (err != nil || tc2.TraceID.String() != got.rec.TraceID)) {
				t.Errorf("%s: %s egress traceparent %q (%v), record's trace %s", tc.name, server, got.egress, err, got.rec.TraceID)
			}
		}
	}
}
