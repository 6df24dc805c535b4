package obs

import (
	"math"
	"runtime"
	"runtime/metrics"
)

// The runtime/metrics read for the runtime snapshot, each with its key.
// Scalars become ceci_runtime_* gauges; the two histogram-valued metrics
// (GC pause and scheduler latency distributions) are converted to
// HistogramSnapshot and rendered as real histograms in both expositions.
var (
	runtimeGauges = []runtimeMetric{
		{"/memory/classes/heap/objects:bytes", "heap_bytes"},
		{"/gc/heap/goal:bytes", "heap_goal_bytes"},
		{"/gc/heap/allocs:bytes", "alloc_total"},
		{"/gc/heap/allocs:objects", "alloc_objects_total"},
		{"/gc/cycles/total:gc-cycles", "gc_cycles"},
		{"/sched/goroutines:goroutines", "goroutines"},
	}
	runtimeHistograms = []runtimeMetric{
		{"/gc/pauses:seconds", "gc_pause_seconds"},
		{"/sched/latencies:seconds", "sched_latency_seconds"},
	}
)

type runtimeMetric struct{ metric, key string }

// readRuntime reads the metrics of table, in its order.
func readRuntime(table []runtimeMetric) []metrics.Sample {
	samples := make([]metrics.Sample, len(table))
	for i, m := range table {
		samples[i].Name = m.metric
	}
	metrics.Read(samples)
	return samples
}

// RuntimeGauges reads the Go runtime's scalar metrics (runtime/metrics,
// not the stop-the-world runtime.ReadMemStats). Keys are stable:
// goroutines, gomaxprocs, heap_bytes, heap_goal_bytes, alloc_total,
// alloc_objects_total, gc_cycles.
func RuntimeGauges() map[string]int64 {
	samples := readRuntime(runtimeGauges)
	gauges := make(map[string]int64, len(runtimeGauges)+1)
	gauges["gomaxprocs"] = int64(runtime.GOMAXPROCS(0))
	for i, g := range runtimeGauges {
		if samples[i].Value.Kind() == metrics.KindUint64 {
			gauges[g.key] = int64(samples[i].Value.Uint64())
		}
	}
	return gauges
}

// RuntimeSnapshot returns RuntimeGauges plus the GC-pause and
// scheduler-latency distributions, keyed gc_pause_seconds and
// sched_latency_seconds.
func RuntimeSnapshot() (map[string]int64, map[string]HistogramSnapshot) {
	samples := readRuntime(runtimeHistograms)
	hists := make(map[string]HistogramSnapshot, len(runtimeHistograms))
	for i, h := range runtimeHistograms {
		if samples[i].Value.Kind() == metrics.KindFloat64Histogram {
			hists[h.key] = FromRuntimeHistogram(samples[i].Value.Float64Histogram())
		}
	}
	return RuntimeGauges(), hists
}

// FromRuntimeHistogram converts a runtime/metrics Float64Histogram —
// bucket i counts values in [Buckets[i], Buckets[i+1]) — into the
// package's le-bounded HistogramSnapshot form, compacting away
// zero-count buckets (lossless: an empty bucket's range merges into its
// successor) so the ~100-bucket runtime distributions don't bloat the
// exposition. The runtime does not track a sum, so Sum is approximated
// from bucket midpoints.
func FromRuntimeHistogram(h *metrics.Float64Histogram) HistogramSnapshot {
	s := HistogramSnapshot{}
	var infCount int64
	for i, c := range h.Counts {
		if c == 0 {
			continue
		}
		n := int64(c)
		lo, hi := h.Buckets[i], h.Buckets[i+1]
		s.Count += n
		if math.IsInf(hi, 1) {
			infCount += n
			if !math.IsInf(lo, -1) {
				s.Sum += float64(n) * lo
			}
			continue
		}
		if math.IsInf(lo, -1) {
			lo = 0
		}
		s.Sum += float64(n) * (lo + hi) / 2
		s.Bounds = append(s.Bounds, hi)
		s.Counts = append(s.Counts, n)
	}
	s.Counts = append(s.Counts, infCount) // the +Inf slot
	return s
}
