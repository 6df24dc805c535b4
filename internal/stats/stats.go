// Package stats provides the instrumentation used to reproduce the
// paper's measurement figures: recursive-call counts (Figure 18), filter
// effectiveness, index size accounting (Table 2), per-worker busy time
// (Figure 12), and phase traces (Figures 15, 20).
//
// Counters are cheap atomics so they can stay enabled inside enumeration
// inner loops.
package stats

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
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
	IndexBytes        atomic.Int64
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

// AddEmbeddings increments the embedding counter.
func (c *Counters) AddEmbeddings(n int64) {
	if c != nil {
		c.Embeddings.Add(n)
	}
}

// AddIntersections increments the intersection counter.
func (c *Counters) AddIntersections(n int64) {
	if c != nil {
		c.IntersectionOps.Add(n)
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

// WorkerClock tracks per-worker busy time, reproducing the per-worker
// finish-time skew of Figure 12.
type WorkerClock struct {
	mu   sync.Mutex
	busy []time.Duration
}

// NewWorkerClock creates a clock for n workers.
func NewWorkerClock(n int) *WorkerClock {
	return &WorkerClock{busy: make([]time.Duration, n)}
}

// Add charges d of busy time to worker i. Out-of-range indices are
// ignored: instrumentation must never crash the enumeration it observes.
func (w *WorkerClock) Add(i int, d time.Duration) {
	if w == nil {
		return
	}
	w.mu.Lock()
	if i >= 0 && i < len(w.busy) {
		w.busy[i] += d
	}
	w.mu.Unlock()
}

// BusyTimes returns a copy of the per-worker busy durations.
func (w *WorkerClock) BusyTimes() []time.Duration {
	if w == nil {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make([]time.Duration, len(w.busy))
	copy(out, w.busy)
	return out
}

// Skew returns max/mean busy-time ratio; 1.0 is perfectly balanced.
func (w *WorkerClock) Skew() float64 {
	times := w.BusyTimes()
	if len(times) == 0 {
		return 1
	}
	var max, sum time.Duration
	for _, t := range times {
		sum += t
		if t > max {
			max = t
		}
	}
	if sum == 0 {
		return 1
	}
	mean := float64(sum) / float64(len(times))
	return float64(max) / mean
}

// PhaseTrace records wall-clock spans per named phase (load, preprocess,
// build, refine, enumerate...), supporting Figure 15's utilization story
// and Figure 20's build-cost breakdown.
type PhaseTrace struct {
	mu     sync.Mutex
	spans  map[string]time.Duration
	orderd []string
}

// NewPhaseTrace returns an empty trace.
func NewPhaseTrace() *PhaseTrace {
	return &PhaseTrace{spans: make(map[string]time.Duration)}
}

// Time runs fn and charges its duration to phase name.
func (p *PhaseTrace) Time(name string, fn func()) {
	if p == nil {
		fn()
		return
	}
	start := time.Now()
	fn()
	p.Add(name, time.Since(start))
}

// Add charges d to phase name.
func (p *PhaseTrace) Add(name string, d time.Duration) {
	if p == nil {
		return
	}
	p.mu.Lock()
	if _, ok := p.spans[name]; !ok {
		p.orderd = append(p.orderd, name)
	}
	p.spans[name] += d
	p.mu.Unlock()
}

// Get returns the accumulated duration of phase name.
func (p *PhaseTrace) Get(name string) time.Duration {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.spans[name]
}

// Phases returns phase names in first-seen order.
func (p *PhaseTrace) Phases() []string {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]string, len(p.orderd))
	copy(out, p.orderd)
	return out
}

// String renders the trace sorted by share of total time.
func (p *PhaseTrace) String() string {
	if p == nil {
		return "<nil trace>"
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	type row struct {
		name string
		d    time.Duration
	}
	rows := make([]row, 0, len(p.spans))
	var total time.Duration
	for n, d := range p.spans {
		rows = append(rows, row{n, d})
		total += d
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].d > rows[j].d })
	s := ""
	for _, r := range rows {
		pct := 0.0
		if total > 0 {
			pct = 100 * float64(r.d) / float64(total)
		}
		s += fmt.Sprintf("%-12s %12v %5.1f%%\n", r.name, r.d, pct)
	}
	return s
}
