package stats_test

import (
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ceci/internal/stats"
)

func TestNilCountersSafe(t *testing.T) {
	var c *stats.Counters
	c.AddRecursive(1)
	c.AddEmbeddings(1)
	c.AddIntersections(1)
	c.AddEdgeVerifications(1)
	if c.Snapshot() != nil {
		t.Fatal("nil snapshot should be nil")
	}
}

func TestCountersSnapshot(t *testing.T) {
	c := &stats.Counters{}
	c.AddRecursive(5)
	c.AddEmbeddings(3)
	c.FilteredNLC.Add(2)
	snap := c.Snapshot()
	if snap["recursive_calls"] != 5 || snap["embeddings"] != 3 || snap["filtered_nlc"] != 2 {
		t.Fatalf("snapshot = %v", snap)
	}
	if snap["page_loads"] != 0 {
		t.Fatal("untouched counter nonzero")
	}
	// The scheduling counters added for the profiler surface under the
	// expected snake_case keys.
	c.UnitsScheduled.Add(7)
	c.ExtremeSplits.Add(2)
	snap = c.Snapshot()
	if snap["units_scheduled"] != 7 || snap["extreme_splits"] != 2 {
		t.Fatalf("scheduling counters missing: %v", snap)
	}
}

// TestSnapshotCoversEveryCounter walks Counters by reflection, bumps each
// exported atomic.Int64 field to a distinct value, and asserts the
// snapshot reports every one under its snake_case key — so adding a
// counter without snapshot coverage is impossible.
func TestSnapshotCoversEveryCounter(t *testing.T) {
	c := &stats.Counters{}
	v := reflect.ValueOf(c).Elem()
	ty := v.Type()
	want := map[string]int64{}
	for i := 0; i < ty.NumField(); i++ {
		f := ty.Field(i)
		if !f.IsExported() || f.Type != reflect.TypeOf(atomic.Int64{}) {
			continue
		}
		val := int64(i + 1)
		v.Field(i).Addr().Interface().(*atomic.Int64).Store(val)
		want[stats.SnakeCase(f.Name)] = val
	}
	if len(want) == 0 {
		t.Fatal("no exported counter fields found")
	}
	snap := c.Snapshot()
	if len(snap) != len(want) {
		t.Fatalf("snapshot has %d keys, struct has %d counters", len(snap), len(want))
	}
	for key, val := range want {
		if snap[key] != val {
			t.Errorf("snapshot[%q] = %d, want %d", key, snap[key], val)
		}
	}
}

func TestSnakeCase(t *testing.T) {
	cases := map[string]string{
		"RecursiveCalls": "recursive_calls",
		"Embeddings":     "embeddings",
		"FilteredNLC":    "filtered_nlc",
		"ReadsOnDisk":    "reads_on_disk",
		"PageLoads":      "page_loads",
		"NLCFilter":      "nlc_filter",
	}
	for in, want := range cases {
		if got := stats.SnakeCase(in); got != want {
			t.Errorf("SnakeCase(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestCountersConcurrent(t *testing.T) {
	c := &stats.Counters{}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.AddRecursive(1)
			}
		}()
	}
	wg.Wait()
	if got := c.RecursiveCalls.Load(); got != 8000 {
		t.Fatalf("got %d, want 8000", got)
	}
}

func TestWorkerClock(t *testing.T) {
	w := stats.NewWorkerClock(3)
	w.Add(0, 10*time.Millisecond)
	w.Add(1, 20*time.Millisecond)
	w.Add(1, 10*time.Millisecond)
	times := w.BusyTimes()
	if times[0] != 10*time.Millisecond || times[1] != 30*time.Millisecond || times[2] != 0 {
		t.Fatalf("times = %v", times)
	}
	// Skew: max 30ms, mean (10+30+0)/3 = 13.33ms → 2.25.
	if skew := w.Skew(); skew < 2.2 || skew > 2.3 {
		t.Fatalf("skew = %v", skew)
	}
}

func TestWorkerClockOutOfRange(t *testing.T) {
	w := stats.NewWorkerClock(2)
	w.Add(-1, time.Second) // must not panic
	w.Add(2, time.Second)  // must not panic
	w.Add(1<<30, time.Second)
	for i, d := range w.BusyTimes() {
		if d != 0 {
			t.Fatalf("worker %d charged %v by out-of-range Add", i, d)
		}
	}
}

func TestWorkerClockNilAndEmpty(t *testing.T) {
	var w *stats.WorkerClock
	w.Add(0, time.Second)
	if w.BusyTimes() != nil {
		t.Fatal("nil clock times")
	}
	if w.Skew() != 1 {
		t.Fatal("nil clock skew should be 1")
	}
	empty := stats.NewWorkerClock(2)
	if empty.Skew() != 1 {
		t.Fatal("all-zero clock skew should be 1")
	}
}

func TestPhaseTrace(t *testing.T) {
	p := stats.NewPhaseTrace()
	p.Time("build", func() { time.Sleep(time.Millisecond) })
	p.Add("enumerate", 100*time.Millisecond)
	p.Add("enumerate", 50*time.Millisecond)
	if p.Get("enumerate") != 150*time.Millisecond {
		t.Fatalf("enumerate = %v", p.Get("enumerate"))
	}
	if p.Get("build") <= 0 {
		t.Fatal("build not timed")
	}
	phases := p.Phases()
	if len(phases) != 2 || phases[0] != "build" {
		t.Fatalf("phases = %v", phases)
	}
	s := p.String()
	if !strings.Contains(s, "enumerate") || !strings.Contains(s, "%") {
		t.Fatalf("render: %q", s)
	}
}

func TestPhaseTraceNil(t *testing.T) {
	var p *stats.PhaseTrace
	ran := false
	p.Time("x", func() { ran = true })
	if !ran {
		t.Fatal("nil trace must still run fn")
	}
	p.Add("x", time.Second)
	if p.Get("x") != 0 || p.Phases() != nil {
		t.Fatal("nil trace should be inert")
	}
	if p.String() != "<nil trace>" {
		t.Fatal("nil render")
	}
}
