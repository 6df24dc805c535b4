package ceci_test

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ceci"
	"ceci/internal/gen"
	"ceci/internal/obs"
)

// TestProgressReportingMonotonic drives a full Match/Count with a
// ProgressFunc and asserts every reported count is monotonically
// non-decreasing, ending in a Final report consistent with the result.
func TestProgressReportingMonotonic(t *testing.T) {
	data := gen.ErdosRenyi(150, 900, 11)
	query := gen.QG1()

	var mu sync.Mutex
	var reports []ceci.Progress
	opts := &ceci.Options{
		Workers:          2,
		Stats:            &ceci.Stats{},
		ProgressInterval: time.Millisecond,
		Progress: func(p ceci.Progress) {
			mu.Lock()
			reports = append(reports, p)
			mu.Unlock()
		},
	}
	m, err := ceci.Match(data, query, opts)
	if err != nil {
		t.Fatal(err)
	}
	count := m.Count()
	if count <= 0 {
		t.Fatalf("count = %d, want > 0", count)
	}

	mu.Lock()
	defer mu.Unlock()
	if len(reports) == 0 {
		t.Fatal("no progress reports")
	}
	last := reports[len(reports)-1]
	if !last.Final {
		t.Fatalf("last report not Final: %+v", last)
	}
	if last.ClustersTotal <= 0 || last.ClustersDone != last.ClustersTotal {
		t.Fatalf("final clusters %d/%d", last.ClustersDone, last.ClustersTotal)
	}
	if last.Embeddings != count {
		t.Fatalf("final embeddings = %d, Count = %d", last.Embeddings, count)
	}
	if last.Elapsed <= 0 {
		t.Fatalf("final elapsed = %v", last.Elapsed)
	}
	if len(last.WorkerBusy) != 2 {
		t.Fatalf("worker busy = %v, want 2 workers", last.WorkerBusy)
	}
	for i := 1; i < len(reports); i++ {
		prev, cur := reports[i-1], reports[i]
		if cur.ClustersDone < prev.ClustersDone {
			t.Fatalf("clusters regressed at %d: %d -> %d", i, prev.ClustersDone, cur.ClustersDone)
		}
		if cur.Embeddings < prev.Embeddings {
			t.Fatalf("embeddings regressed at %d: %d -> %d", i, prev.Embeddings, cur.Embeddings)
		}
		if cur.CardinalityDone < prev.CardinalityDone {
			t.Fatalf("cardinality regressed at %d: %d -> %d", i, prev.CardinalityDone, cur.CardinalityDone)
		}
	}
}

// TestTelemetryEndpointDuringEnumeration serves a registry holding the
// run's counters over HTTP and scrapes it from inside the run's final
// progress callback, before enumeration returns: both formats must be
// valid and show nonzero embeddings.
func TestTelemetryEndpointDuringEnumeration(t *testing.T) {
	data := gen.ErdosRenyi(150, 900, 11)
	query := gen.QG1()

	st := &ceci.Stats{}
	tr := ceci.NewTracer(ceci.TracerOptions{})
	reg := obs.NewRegistry()
	reg.SetCounters(st)
	srv := httptest.NewServer(reg.Handler())
	defer srv.Close()
	base := srv.URL

	var prom, metricsJSON string
	var scrapeErr error
	scraped := false
	opts := &ceci.Options{
		Workers: 2, Stats: st, Tracer: tr,
		ProgressInterval: time.Millisecond,
		Progress: func(p ceci.Progress) {
			if !p.Final || scraped {
				return
			}
			scraped = true
			prom, scrapeErr = httpGet(base + "/metrics")
			if scrapeErr == nil {
				metricsJSON, scrapeErr = httpGet(base + "/metrics.json")
			}
		},
	}
	count, err := ceci.Count(data, query, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !scraped {
		t.Fatal("final progress report never fired")
	}
	if scrapeErr != nil {
		t.Fatal(scrapeErr)
	}

	embTotal := int64(-1)
	for _, line := range strings.Split(prom, "\n") {
		if v, ok := strings.CutPrefix(line, "ceci_embeddings_total "); ok {
			n, err := strconv.ParseInt(strings.TrimSpace(v), 10, 64)
			if err != nil {
				t.Fatalf("bad counter line %q: %v", line, err)
			}
			embTotal = n
		}
	}
	if embTotal <= 0 {
		t.Fatalf("ceci_embeddings_total = %d, want > 0; scrape:\n%s", embTotal, prom)
	}

	var doc struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.Unmarshal([]byte(metricsJSON), &doc); err != nil {
		t.Fatalf("/metrics.json invalid: %v\n%s", err, metricsJSON)
	}
	if doc.Counters["embeddings"] != count {
		t.Fatalf("json embeddings = %d, Count = %d", doc.Counters["embeddings"], count)
	}

	// The shared tracer saw every phase of the run.
	phases := tr.PhaseDurations()
	for _, want := range []string{"preprocess", "build", "enumerate", "cluster"} {
		if phases[want] <= 0 {
			t.Fatalf("phase %q missing: %v", want, phases)
		}
	}
}

// TestIncrementalProgress: a limited Match that grows runs its prefix and
// then the clusters past it, and the call still makes one Final progress
// report, whose embeddings are what the caller received — as do Stats and
// the ledger, on 4 FGD workers under a limit the first cluster cannot
// fill. A second call, on the complete index, makes one more.
func TestIncrementalProgress(t *testing.T) {
	data := gen.ErdosRenyi(80, 400, 3)
	query := gen.QG1()
	total, err := ceci.Count(data, query, nil)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var finals []ceci.Progress
	st, led, log := &ceci.Stats{}, ceci.NewLedger(), &buildLog{}
	opts := &ceci.Options{
		Workers:          4,
		Limit:            total - 1,
		Stats:            st,
		Ledger:           led,
		Tracer:           ceci.NewTracer(ceci.TracerOptions{OnStart: log.onStart}),
		ProgressInterval: time.Millisecond,
		Progress: func(p ceci.Progress) {
			if p.Final {
				mu.Lock()
				finals = append(finals, p)
				mu.Unlock()
			}
		},
	}
	m, err := ceci.Match(data, query, opts)
	if err != nil {
		t.Fatal(err)
	}
	var delivered atomic.Int64
	m.ForEach(func([]ceci.VertexID) bool {
		delivered.Add(1)
		return true
	})
	n := delivered.Load()
	if b := log.n.Load(); b != 2 {
		t.Fatalf("%d builds: the limit did not make the index grow", b)
	}
	mu.Lock()
	got := slices.Clone(finals)
	mu.Unlock()
	if len(got) != 1 {
		t.Fatalf("%d Final reports for one call, want 1: %+v", len(got), got)
	}
	if n != opts.Limit || got[0].Embeddings != n || st.Embeddings.Load() != n || led.Snapshot().Embeddings != n {
		t.Fatalf("delivered %d (limit %d), Final %d, Stats %d, ledger %d",
			n, opts.Limit, got[0].Embeddings, st.Embeddings.Load(), led.Snapshot().Embeddings)
	}
	if got[0].ClustersDone > got[0].ClustersTotal || got[0].ClustersDone == 0 {
		t.Fatalf("Final clusters %d/%d", got[0].ClustersDone, got[0].ClustersTotal)
	}
	if c := m.Count(); c != opts.Limit {
		t.Fatalf("second call counted %d, want %d", c, opts.Limit)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(finals) != 2 || finals[1].Embeddings != 2*n {
		t.Fatalf("after two calls: %d Final reports, last %+v; want 2, %d embeddings", len(finals), finals[len(finals)-1], 2*n)
	}
}

func httpGet(url string) (string, error) {
	resp, err := http.Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	b, err := io.ReadAll(resp.Body)
	return string(b), err
}
