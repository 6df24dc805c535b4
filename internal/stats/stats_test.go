package stats_test

import (
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"ceci/internal/stats"
)

func TestNilCountersSafe(t *testing.T) {
	var c *stats.Counters
	c.AddRecursive(1)
	c.AddEdgeVerifications(1)
	if c.Snapshot() != nil {
		t.Fatal("nil snapshot should be nil")
	}
}

func TestCountersSnapshot(t *testing.T) {
	c := &stats.Counters{}
	c.AddRecursive(5)
	c.Embeddings.Add(3)
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
