package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a percentile for it to
// be reported: with fewer the value is set by a handful of requests.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile (0 < p < 1) of sorted.
// ok is false when fewer than minBeyond samples lie beyond it; the value
// is still returned so a caller that must print a number can flag it.
func percentile(sorted []float64, p float64) (v float64, ok bool) {
	n := len(sorted)
	if n == 0 {
		return math.NaN(), false
	}
	rank := int(math.Ceil(p*float64(n))) - 1
	rank = max(0, min(rank, n-1))
	return sorted[rank], n-1-rank >= minBeyond
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	switch {
	case n == 0:
		return math.NaN()
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// latencySummary is what a phase reports about its latencies, at
// reference speed. P50 and P95 are the medians over the phase's rounds of
// each round's own percentile. P95OK is false when the rounds hold fewer
// than 200 samples in all: the p95 is then printed for the record but
// must not be gated on.
type latencySummary struct {
	Samples int      `json:"samples"`
	Rounds  int      `json:"rounds"` // rounds the summary is taken over
	P50     float64  `json:"p50_ms"`
	P95     float64  `json:"p95_ms"`
	P95OK   bool     `json:"p95_supported"`
	P99     *float64 `json:"p99_ms,omitempty"`  // of all samples pooled; only with >= 10 beyond it
	P999    *float64 `json:"p999_ms,omitempty"` // of all samples pooled; only with >= 10 beyond it
}

func summarize(rounds []*round) latencySummary {
	out := latencySummary{Rounds: len(rounds)}
	var p50, p95, pooled []float64
	for _, r := range rounds {
		p50, p95 = append(p50, r.P50), append(p95, r.P95)
		pooled = append(pooled, r.latMS...)
	}
	out.Samples = len(pooled)
	out.P50, out.P95 = median(p50), median(p95)
	s := sortedCopy(pooled)
	_, out.P95OK = percentile(s, 0.95)
	if v, ok := percentile(s, 0.99); ok {
		out.P99 = &v
	}
	if v, ok := percentile(s, 0.999); ok {
		out.P999 = &v
	}
	return out
}
