package service

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"ceci/internal/obs"
	"ceci/internal/telemetry"
)

// TestParseQueryzFilters table-tests the /queryz URL filter parsing.
func TestParseQueryzFilters(t *testing.T) {
	cases := []struct {
		name    string
		query   string
		want    queryzFilters
		wantErr bool
	}{
		{name: "empty", query: "", want: queryzFilters{}},
		{name: "limit", query: "limit=5", want: queryzFilters{limit: 5}},
		{name: "limit zero", query: "limit=0", want: queryzFilters{}},
		{name: "limit negative", query: "limit=-1", wantErr: true},
		{name: "limit junk", query: "limit=abc", wantErr: true},
		{name: "limit float", query: "limit=2.5", wantErr: true},
		{name: "min_ms", query: "min_ms=2.5", want: queryzFilters{minMS: 2500 * time.Microsecond}},
		{name: "min_ms integer", query: "min_ms=10", want: queryzFilters{minMS: 10 * time.Millisecond}},
		{name: "min_ms zero", query: "min_ms=0", want: queryzFilters{}},
		{name: "min_ms negative", query: "min_ms=-3", wantErr: true},
		{name: "min_ms junk", query: "min_ms=fast", wantErr: true},
		{name: "min_ms nan", query: "min_ms=NaN", wantErr: true},
		{name: "min_ms inf", query: "min_ms=Inf", wantErr: true},
		{name: "both", query: "limit=3&min_ms=1",
			want: queryzFilters{limit: 3, minMS: time.Millisecond}},
		{name: "unrelated params ignored", query: "format=text&foo=bar", want: queryzFilters{}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			vals, err := url.ParseQuery(tc.query)
			if err != nil {
				t.Fatal(err)
			}
			got, err := parseQueryzFilters(vals)
			if tc.wantErr {
				if err == nil {
					t.Fatalf("parse %q: want error, got %+v", tc.query, got)
				}
				return
			}
			if err != nil {
				t.Fatalf("parse %q: %v", tc.query, err)
			}
			if got != tc.want {
				t.Fatalf("parse %q = %+v, want %+v", tc.query, got, tc.want)
			}
		})
	}
}

// TestQueryzFilterApply checks the filters against record lists directly:
// min_ms drops fast queries, limit caps the list, order is preserved.
func TestQueryzFilterApply(t *testing.T) {
	recs := func() []obs.QueryRecord {
		return []obs.QueryRecord{
			{Seq: 1, TotalUS: 500},
			{Seq: 2, TotalUS: 4000},
			{Seq: 3, TotalUS: 12000},
			{Seq: 4, TotalUS: 900},
		}
	}
	got := queryzFilters{minMS: 2 * time.Millisecond}.apply(recs())
	if len(got) != 2 || got[0].Seq != 2 || got[1].Seq != 3 {
		t.Fatalf("min_ms filter = %+v", got)
	}
	got = queryzFilters{limit: 3}.apply(recs())
	if len(got) != 3 || got[0].Seq != 1 {
		t.Fatalf("limit filter = %+v", got)
	}
	got = queryzFilters{minMS: 2 * time.Millisecond, limit: 1}.apply(recs())
	if len(got) != 1 || got[0].Seq != 2 {
		t.Fatalf("combined filter = %+v", got)
	}
	if got = (queryzFilters{}).apply(nil); len(got) != 0 {
		t.Fatalf("empty filter on nil = %+v", got)
	}
}

// telemetryTestServer spins up the HTTP stack with a telemetry hub (not
// started: tests call Sample explicitly for determinism).
func telemetryTestServer(t *testing.T) (*httptest.Server, *Client, *telemetry.Hub) {
	t.Helper()
	hub := telemetry.NewHub(telemetry.Options{
		Resolutions: []telemetry.Resolution{{Step: 10 * time.Second, Len: 30}},
	})
	srv, client, _ := traceTestServer(t, Options{
		Telemetry: hub,
		Registry:  obs.NewRegistry(),
	})
	return srv, client, hub
}

// TestTelemetryEndToEnd drives the monitoring loop the README documents:
// queries flow into the hub, /statz serves SLO + class + series state in
// JSON and text, and /query responses carry a Server-Timing breakdown.
func TestTelemetryEndToEnd(t *testing.T) {
	srv, client, hub := telemetryTestServer(t)

	resp, err := client.Query(context.Background(), wireQuery(pathQuery(t, 1, 2, 3)))
	if err != nil {
		t.Fatal(err)
	}
	if resp.QueryHash == "" {
		t.Fatal("response missing query hash")
	}
	if _, err := client.Query(context.Background(), wireQuery(pathQuery(t, 2, 3))); err != nil {
		t.Fatal(err)
	}
	hub.Sample()

	// The flight record carries the resource ledger.
	qz, err := client.Queryz(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(qz.Recent) != 2 {
		t.Fatalf("queryz recent = %d, want 2", len(qz.Recent))
	}
	res := qz.Recent[0].Resources
	if res == nil || res.Units <= 0 || res.CPUUS < 0 {
		t.Fatalf("flight record missing ledger: %+v", res)
	}

	// /statz JSON: classes and series populated, SLO healthy.
	body, ctype := httpGet(t, srv, "/statz")
	if !strings.HasPrefix(ctype, "application/json") {
		t.Fatalf("statz content type = %q", ctype)
	}
	var doc telemetry.Statz
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("statz JSON: %v\n%s", err, body)
	}
	if doc.Queries != 2 || doc.Errors != 0 {
		t.Fatalf("statz queries/errors = %d/%d", doc.Queries, doc.Errors)
	}
	if len(doc.Classes) != 2 {
		t.Fatalf("statz classes = %+v", doc.Classes)
	}
	seen := map[string]bool{}
	for _, c := range doc.Classes {
		seen[c.Hash] = true
		if c.Resources.Units <= 0 {
			t.Fatalf("class %s has no ledger charges: %+v", c.Hash, c)
		}
	}
	if !seen[resp.QueryHash] {
		t.Fatalf("statz classes %v missing query hash %s", doc.Classes, resp.QueryHash)
	}
	for _, name := range []string{"ledger_queries", "runtime_goroutines", "slo_latency_fast_burn"} {
		if _, ok := doc.Series[name]; !ok {
			t.Fatalf("statz series missing %q (have %d)", name, len(doc.Series))
		}
	}
	if doc.SLO.Latency.Breach || doc.SLO.Availability.Breach {
		t.Fatalf("healthy run must not breach: %+v", doc.SLO)
	}

	// /statz text form.
	body, ctype = httpGet(t, srv, "/statz?format=text")
	if !strings.HasPrefix(ctype, "text/plain") {
		t.Fatalf("statz text content type = %q", ctype)
	}
	for _, want := range []string{"slo (", "query classes", resp.QueryHash} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("statz text missing %q:\n%s", want, body)
		}
	}

	// The SLO gauge source feeds the Prometheus exposition too.
	body, _ = httpGet(t, srv, "/metrics")
	if !strings.Contains(string(body), "ceci_slo_latency_breach 0") {
		t.Fatalf("prometheus exposition missing SLO gauges:\n%s", body)
	}
}

// TestServerTimingHeader checks POST /query responses expose the phase
// breakdown and SLO state via Server-Timing.
func TestServerTimingHeader(t *testing.T) {
	srv, _, _ := telemetryTestServer(t)
	req := wireQuery(pathQuery(t, 1, 2, 3))
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := srv.Client().Post(srv.URL+"/query", "application/json", strings.NewReader(string(b)))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	st := resp.Header.Get("Server-Timing")
	for _, part := range []string{"queue;dur=", "build;dur=", "enum;dur=", "total;dur=", `slo;desc="ok"`} {
		if !strings.Contains(st, part) {
			t.Fatalf("Server-Timing %q missing %q", st, part)
		}
	}
}

// TestServerTimingTextIsPrintf: the appended header is, byte for byte,
// the fmt.Sprintf("name;dur=%.1f") text clients parse — on round values,
// on durations exactly between two tenths (where the float's last bit
// decides), on a negative one and on ones too long for the integer path.
func TestServerTimingTextIsPrintf(t *testing.T) {
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	eng := New(testData(), Options{})
	rng := rand.New(rand.NewPCG(20, 1))
	durs := []time.Duration{0, 1, 49999, 50000, 50001, 99999, 100000, 150000, 250000, 350000, 950000, 999950000,
		-70000, 1<<40 - 1, 1 << 40, 1<<40 + 150000, 1<<62 + 50000}
	for i := 0; i < 20000; i++ {
		d := time.Duration(rng.Int64N(1 << uint(10+rng.IntN(33))))
		durs = append(durs, d, d-d%50000+50000) // and the next half or whole tenth
	}
	for _, d := range durs {
		resp := &Response{QueueWait: d / 7, BuildTime: d, EnumTime: d / 3}
		want := fmt.Sprintf("queue;dur=%.1f, build;dur=%.1f, enum;dur=%.1f, total;dur=%.1f",
			ms(resp.QueueWait), ms(resp.BuildTime), ms(resp.EnumTime), ms(resp.QueueWait+resp.BuildTime+resp.EnumTime))
		if got := serverTiming(eng, resp); got != want {
			t.Fatalf("%d ns: Server-Timing %q, Sprintf writes %q", d, got, want)
		}
	}
}

// httpGet fetches a path from the test server, returning body and
// Content-Type.
func httpGet(t *testing.T, srv *httptest.Server, path string) ([]byte, string) {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d", path, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return body, resp.Header.Get("Content-Type")
}
