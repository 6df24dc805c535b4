// Package stats provides the cumulative counters used to reproduce the
// paper's measurement figures: recursive-call counts (Figure 18) and
// filter effectiveness. Per-worker busy time (Figure 12) is on the run's
// ledger (internal/telemetry), phase times (Figures 15, 20) on the tracer
// (obs.Tracer.PhaseDurations).
//
// Counters are cheap atomics: enumeration drains into them at work-unit
// boundaries, the baselines add to them directly. Every field is a sum a
// writer Adds from numbers it already has in hand (the snapshot exports
// each as a ceci_*_total counter); a number that has to be derived — the
// index's Table 2 size is Index.SizeBytes — is computed by whoever reads
// it (TestEveryCounterWriteIsAnAdd).
package stats

import (
	"reflect"
	"strings"
	"sync/atomic"
	"unicode"
)

// Counters accumulates algorithm-level metrics. The zero value is ready;
// a nil *Counters is accepted by every method (no-ops), letting hot paths
// skip instrumentation branches.
type Counters struct {
	RecursiveCalls    atomic.Int64 // backtracking expansions (Figure 18's metric)
	Embeddings        atomic.Int64
	IntersectionOps   atomic.Int64 // candidate-list intersections performed
	EdgeVerifications atomic.Int64 // adjacency probes (baselines only)
	FilteredLabel     atomic.Int64 // candidates dropped by the label filter
	FilteredDegree    atomic.Int64
	FilteredNLC       atomic.Int64
	FilteredCascade   atomic.Int64 // dropped by empty-TE cascade (Alg. 1 lines 9-12)
	FilteredRefine    atomic.Int64 // dropped by reverse-BFS refinement
	PageLoads         atomic.Int64 // dualsim: slotted page loads
	RemoteReads       atomic.Int64 // shared-storage graph accesses
	UnitsScheduled    atomic.Int64 // work units handed to enumeration workers
	ExtremeSplits     atomic.Int64 // extra units from ExtremeCluster decomposition (Alg. 3)
}

// AddRecursive increments the recursive-call counter.
func (c *Counters) AddRecursive(n int64) {
	if c != nil {
		c.RecursiveCalls.Add(n)
	}
}

// AddEdgeVerifications increments the adjacency-probe counter.
func (c *Counters) AddEdgeVerifications(n int64) {
	if c != nil {
		c.EdgeVerifications.Add(n)
	}
}

// Snapshot captures the current values, keyed by the snake_case form of
// each field name (RecursiveCalls → "recursive_calls", FilteredNLC →
// "filtered_nlc"). The mapping is reflection-derived so a counter added
// to the struct can never be silently missing from snapshots or the
// telemetry endpoint.
func (c *Counters) Snapshot() map[string]int64 {
	if c == nil {
		return nil
	}
	v := reflect.ValueOf(c).Elem()
	t := v.Type()
	out := make(map[string]int64, t.NumField())
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if !f.IsExported() || f.Type != reflect.TypeOf(atomic.Int64{}) {
			continue
		}
		out[SnakeCase(f.Name)] = v.Field(i).Addr().Interface().(*atomic.Int64).Load()
	}
	return out
}

// SnakeCase converts a Go field name to its snapshot key: word
// boundaries become underscores and acronym runs stay together
// ("RemoteReads" → "remote_reads", "FilteredNLC" → "filtered_nlc").
func SnakeCase(name string) string {
	var b strings.Builder
	runes := []rune(name)
	for i, r := range runes {
		if unicode.IsUpper(r) && i > 0 &&
			(unicode.IsLower(runes[i-1]) || (i+1 < len(runes) && unicode.IsLower(runes[i+1]))) {
			b.WriteByte('_')
		}
		b.WriteRune(unicode.ToLower(r))
	}
	return b.String()
}
