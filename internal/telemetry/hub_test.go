package telemetry

import (
	"encoding/json"
	"fmt"
	"runtime"
	"runtime/metrics"
	"strings"
	"sync"
	"testing"
	"time"

	"ceci/internal/obs"
)

func testHub(clk *fakeClock) *Hub {
	return NewHub(Options{
		Now:            clk.Now,
		Resolutions:    []Resolution{{Step: 10 * time.Second, Len: 30}},
		SampleInterval: 10 * time.Second,
		SLO: SLOConfig{
			LatencyTarget: 100 * time.Millisecond,
			FastWindow:    time.Minute,
			SlowWindow:    10 * time.Minute,
		},
	})
}

func TestHubSampleAndStatz(t *testing.T) {
	clk := newFakeClock()
	h := testHub(clk)

	reg := obs.NewRegistry()
	reg.SetSource("svc", func() map[string]int64 { return map[string]int64{"inflight": 3} })
	lat := obs.NewHistogram(obs.LatencyBuckets())
	lat.Observe(0.002)
	lat.Observe(0.004)
	reg.SetHistogram("query_seconds", lat)
	h.BindRegistry(reg)

	h.ObserveQuery(obs.QueryRecord{
		QueryHash: "cafe", QueryVertices: 4, Outcome: 200, TotalUS: 1500,
		Resources: &obs.QueryResources{CPUUS: 1200, Units: 2, Embeddings: 10},
	})
	h.ObserveQuery(obs.QueryRecord{
		QueryHash: "cafe", QueryVertices: 4, Outcome: 504, TotalUS: 900000,
	})

	h.Sample()
	clk.Advance(10 * time.Second)
	h.Sample()

	var doc Statz
	b, err := h.StatzJSON()
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Queries != 2 || doc.Errors != 1 {
		t.Fatalf("queries/errors = %d/%d", doc.Queries, doc.Errors)
	}
	if doc.Totals.CPUUS != 1200 || doc.Totals.Embeddings != 10 {
		t.Fatalf("totals = %+v", doc.Totals)
	}

	// Sampled series: registry gauges, histogram derivations, ledger
	// aggregates, runtime gauges, SLO burns.
	for _, name := range []string{
		"svc_inflight", "query_seconds_count", "query_seconds_p50",
		"ledger_queries", "ledger_cpu_seconds",
		"runtime_goroutines", "runtime_heap_bytes",
		"slo_availability_slow_burn",
	} {
		ws, ok := doc.Series[name]
		if !ok || len(ws) == 0 || len(ws[0].Points) == 0 {
			t.Fatalf("series %q missing from statz (have %d series)", name, len(doc.Series))
		}
	}
	if pts := doc.Series["svc_inflight"][0].Points; len(pts) != 2 || pts[1].V != 3 {
		t.Fatalf("svc_inflight = %+v, want two samples of 3", pts)
	}
	if pts := doc.Series["ledger_queries"][0].Points; pts[len(pts)-1].V != 2 {
		t.Fatalf("ledger_queries = %+v", pts)
	}

	// One failed query of two, availability objective 0.999 → slow burn
	// 0.5/0.001 = 500.
	if got := doc.SLO.Availability.SlowBurn; got < 499.99 || got > 500.01 {
		t.Fatalf("availability slow burn = %g, want ~500", got)
	}
	if !doc.SLO.Availability.Breach {
		t.Fatalf("burn 500 must breach")
	}

	// The SLO gauge source registered back into the registry.
	gs := reg.GaugeSources()
	if gs["slo"]["availability_breach"] != 1 {
		t.Fatalf("slo gauge source = %+v", gs["slo"])
	}

	text := h.StatzText()
	for _, want := range []string{"slo (latency target 100ms", "BREACH", "queries: 2 (1 errors)", "resource ledger:", "series ("} {
		if !strings.Contains(text, want) {
			t.Fatalf("statz text missing %q:\n%s", want, text)
		}
	}
}

// TestStatzCountsEveryQuery: the totals and the ledger_* series count
// every observed query, however many distinct query hashes there are,
// with queries observed from several goroutines while /statz is read.
func TestStatzCountsEveryQuery(t *testing.T) {
	clk := newFakeClock()
	h := testHub(clk)
	const n, writers = 300, 3
	observe := func(from, to int) {
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := from + w; i < to; i += writers {
					outcome := 200
					if i%7 == 0 {
						outcome = 504
					}
					h.ObserveQuery(obs.QueryRecord{
						QueryHash: fmt.Sprintf("%016x", i), Outcome: outcome, TotalUS: 1000,
						Resources: &obs.QueryResources{Units: 1, Embeddings: 2,
							Kernels: []obs.KernelMix{{Kernel: "merge", Calls: 1}}},
					})
				}
			}(w)
		}
		for i := 0; i < 10; i++ {
			if _, err := h.StatzJSON(); err != nil {
				t.Error(err)
			}
		}
		wg.Wait()
	}
	observe(0, n/2)
	h.Sample()
	clk.Advance(10 * time.Second)
	observe(n/2, n)
	h.Sample()

	const errs = (n + 6) / 7 // outcomes of i ≡ 0 (mod 7)
	st := h.Snapshot()
	if st.Queries != n || st.Errors != errs {
		t.Fatalf("queries/errors = %d/%d, want %d/%d", st.Queries, st.Errors, n, errs)
	}
	if st.Totals.Units != n || st.Totals.Embeddings != 2*n ||
		len(st.Totals.Kernels) != 1 || st.Totals.Kernels[0].Calls != n {
		t.Fatalf("totals = %+v", st.Totals)
	}
	pts := st.Series["ledger_queries"][0].Points
	if len(pts) != 2 || pts[1].V < pts[0].V || pts[1].V != n {
		t.Fatalf("ledger_queries = %+v, want non-decreasing to %d", pts, n)
	}
	if pts := st.Series["ledger_errors"][0].Points; pts[len(pts)-1].V != errs {
		t.Fatalf("ledger_errors = %+v, want %d", pts, errs)
	}
}

// TestHubObserveQueryAllocFree: folding a query into the hub allocates
// nothing once the totals have seen its kernels, even when every query
// has a hash the hub has not seen.
func TestHubObserveQueryAllocFree(t *testing.T) {
	h := testHub(newFakeClock())
	res := &obs.QueryResources{CPUUS: 10, Units: 1, Kernels: []obs.KernelMix{
		{Kernel: "probe", Calls: 2, Scanned: 20, Emitted: 3},
		{Kernel: "merge", Calls: 1, Scanned: 9, Emitted: 1},
	}}
	const runs = 100
	hashes := make([]string, runs+1) // AllocsPerRun adds a warm-up call
	for i := range hashes {
		hashes[i] = fmt.Sprintf("%016x", i)
	}
	i := 0
	avg := testing.AllocsPerRun(runs, func() {
		h.ObserveQuery(obs.QueryRecord{QueryHash: hashes[i], Outcome: 200, TotalUS: 100, Resources: res})
		i++
	})
	if avg != 0 {
		t.Fatalf("ObserveQuery allocates %.1f times per query", avg)
	}
}

// TestHubStoresNoRuntimeHistogramQuantiles: the runtime's distributions
// are exported by /metrics only; the store holds the runtime's gauges.
func TestHubStoresNoRuntimeHistogramQuantiles(t *testing.T) {
	h := testHub(newFakeClock())
	h.Sample()
	series := h.Store().Snapshot()
	if _, ok := series["runtime_goroutines"]; !ok {
		t.Fatalf("runtime gauges missing from the store")
	}
	for name := range series {
		if strings.HasPrefix(name, "runtime_gc_pause_seconds") || strings.HasPrefix(name, "runtime_sched_latency_seconds") {
			t.Fatalf("store holds runtime histogram series %q", name)
		}
	}
}

// TestSampleReadsNoRuntimeHistogram: a tick reads the runtime's gauges
// and not its two distributions, which the store does not keep. Sample on
// a hub with no registry allocates fewer bytes than reading and converting
// those two histograms alone does (about 3 KB: the runtime hands each over
// as some 160 buckets); a Sample that still read them would allocate
// that and its own gauges besides.
func TestSampleReadsNoRuntimeHistogram(t *testing.T) {
	h := testHub(newFakeClock())
	sample := allocBytesPerRun(200, h.Sample)
	hists := allocBytesPerRun(200, func() {
		samples := []metrics.Sample{{Name: "/gc/pauses:seconds"}, {Name: "/sched/latencies:seconds"}}
		metrics.Read(samples)
		for _, s := range samples {
			obs.FromRuntimeHistogram(s.Value.Float64Histogram())
		}
	})
	if sample >= hists {
		t.Fatalf("Sample allocates %.0f bytes a call, reading and converting the runtime histograms %.0f", sample, hists)
	}
}

// allocBytesPerRun returns the heap bytes one call of f allocates, averaged
// over runs calls after a warm-up call.
func allocBytesPerRun(runs int, f func()) float64 {
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

func TestHubHistogramDeltaQuantiles(t *testing.T) {
	clk := newFakeClock()
	h := testHub(clk)
	reg := obs.NewRegistry()
	hist := obs.NewHistogram([]float64{1, 10, 100})
	reg.SetHistogram("card", hist)
	h.BindRegistry(reg)

	// First window: values near 1.
	hist.Observe(0.5)
	hist.Observe(0.6)
	h.Sample()
	clk.Advance(10 * time.Second)

	// Second window: values near 100. The p50 series must reflect only
	// the delta window, not the cumulative distribution.
	for i := 0; i < 10; i++ {
		hist.Observe(60)
	}
	h.Sample()

	pts := h.Store().Snapshot()["card_p50"][0].Points
	if len(pts) != 2 {
		t.Fatalf("p50 points = %+v", pts)
	}
	if last := pts[len(pts)-1].V; last <= 10 || last > 100 {
		t.Fatalf("delta-window p50 = %g, want within (10,100] bucket", last)
	}
	cnt := h.Store().Snapshot()["card_count"][0].Points
	if cnt[len(cnt)-1].V != 12 {
		t.Fatalf("count series = %+v, want cumulative 12", cnt)
	}
}

func TestHubStartStop(t *testing.T) {
	h := NewHub(Options{SampleInterval: time.Millisecond})
	h.Start()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if ws, ok := h.Store().Snapshot()["runtime_goroutines"]; ok && len(ws[0].Points) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("background sampler produced no samples")
		}
		time.Sleep(5 * time.Millisecond)
	}
	h.Stop()
	h.Stop() // idempotent

	unstarted := NewHub(Options{})
	unstarted.Stop() // must not hang
}
