package obs

import (
	"math"
	"runtime"
	"runtime/metrics"
)

// Names read from runtime/metrics for the runtime snapshot. Scalars
// become ceci_runtime_* gauges; the two histogram-valued metrics (GC
// pause and scheduler latency distributions) are converted to
// HistogramSnapshot and rendered as real histograms in both expositions.
const (
	metricHeapBytes    = "/memory/classes/heap/objects:bytes"
	metricHeapGoal     = "/gc/heap/goal:bytes"
	metricAllocBytes   = "/gc/heap/allocs:bytes"
	metricAllocObjects = "/gc/heap/allocs:objects"
	metricGCCycles     = "/gc/cycles/total:gc-cycles"
	metricGoroutines   = "/sched/goroutines:goroutines"
	metricGCPauses     = "/gc/pauses:seconds"
	metricSchedLat     = "/sched/latencies:seconds"
)

// RuntimeSnapshot reads the Go runtime's own metrics (runtime/metrics,
// not the stop-the-world runtime.ReadMemStats) and returns scalar gauges
// plus the GC-pause and scheduler-latency distributions. Gauge keys are
// stable: goroutines, gomaxprocs, heap_bytes, heap_goal_bytes,
// alloc_total, alloc_objects_total, gc_cycles. Histogram keys:
// gc_pause_seconds, sched_latency_seconds.
func RuntimeSnapshot() (map[string]int64, map[string]HistogramSnapshot) {
	samples := []metrics.Sample{
		{Name: metricHeapBytes},
		{Name: metricHeapGoal},
		{Name: metricAllocBytes},
		{Name: metricAllocObjects},
		{Name: metricGCCycles},
		{Name: metricGoroutines},
		{Name: metricGCPauses},
		{Name: metricSchedLat},
	}
	metrics.Read(samples)

	gauges := map[string]int64{
		"gomaxprocs": int64(runtime.GOMAXPROCS(0)),
	}
	hists := make(map[string]HistogramSnapshot, 2)
	for _, s := range samples {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			v := int64(s.Value.Uint64())
			switch s.Name {
			case metricHeapBytes:
				gauges["heap_bytes"] = v
			case metricHeapGoal:
				gauges["heap_goal_bytes"] = v
			case metricAllocBytes:
				gauges["alloc_total"] = v
			case metricAllocObjects:
				gauges["alloc_objects_total"] = v
			case metricGCCycles:
				gauges["gc_cycles"] = v
			case metricGoroutines:
				gauges["goroutines"] = v
			}
		case metrics.KindFloat64Histogram:
			h := FromRuntimeHistogram(s.Value.Float64Histogram())
			switch s.Name {
			case metricGCPauses:
				hists["gc_pause_seconds"] = h
			case metricSchedLat:
				hists["sched_latency_seconds"] = h
			}
		}
	}
	return gauges, hists
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
