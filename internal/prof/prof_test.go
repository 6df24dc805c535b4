package prof

import (
	"encoding/json"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"ceci/internal/setops"
	"ceci/internal/telemetry"
)

// ledgerFor returns a ledger sized for the triangle and workers workers
// that c reads its enumeration tables from (matching order u0 u1 u2).
func ledgerFor(c *Collector, workers int) *telemetry.Ledger {
	l := telemetry.NewLedger()
	l.Begin(3, workers)
	c.ReadEnumeration(l, []int{0, 1, 2})
	return l
}

func initTriangle(c *Collector) {
	// 3-vertex query; u2 has one NTE from u0.
	c.InitQuery(3, func(u int) []int {
		if u == 2 {
			return []int{0}
		}
		return nil
	})
}

func TestCollectorNilSafe(t *testing.T) {
	var c *Collector
	c.InitQuery(3, nil)
	c.RecordClusters("ST", []int64{1}, []int64{1})
	c.ReadEnumeration(telemetry.NewLedger(), nil)
	c.ObserveUnit(time.Second)
	c.ObserveEnumOutput(5)
	c.AddEnumWall(time.Second)
	p := c.Snapshot()
	if len(p.Vertices) != 0 || len(p.Workers) != 0 {
		t.Fatalf("nil snapshot = %+v", p)
	}
}

func TestCollectorFunnelAndCascade(t *testing.T) {
	c := New()
	initTriangle(c)

	v1 := c.Vertex(1)
	v1.NeighborsScanned.Add(100)
	v1.DroppedLabel.Add(40)
	v1.DroppedDegree.Add(10)
	v1.DroppedNLC.Add(5)
	v1.AddRefined(3)
	v1.AddRemoved(3) // the refine-initiated removals
	v1.AddRemoved(4) // cascade removals
	v1.FinalCands.Add(38)
	v1.TEEntries.Add(12)
	v1.TECandidates.Add(38)

	nte := c.Vertex(2).NTE(0)
	nte.BuildComparisons.Add(50)
	nte.BuildOutput.Add(20)
	nte.Entries.Add(10)
	nte.Candidates.Add(20)

	p := c.Snapshot()
	got := p.Vertices[1]
	if got.DroppedRefine != 3 || got.DroppedCascade != 4 {
		t.Fatalf("refine/cascade = %d/%d, want 3/4", got.DroppedRefine, got.DroppedCascade)
	}
	if got.TEBytes != 8*38 {
		t.Fatalf("te_bytes = %d", got.TEBytes)
	}
	n := p.Vertices[2].NTE[0]
	if n.Parent != 0 || n.Bytes != 8*20 || n.BuildComparisons != 50 {
		t.Fatalf("nte = %+v", n)
	}

	totals := p.FunnelTotals()
	if totals["dropped_label"] != 40 || totals["final_candidates"] != 38 {
		t.Fatalf("funnel totals = %v", totals)
	}
}

func TestInitQueryIdempotent(t *testing.T) {
	c := New()
	initTriangle(c)
	c.Vertex(0).FinalCands.Add(7)
	// A second init (as a limited Match's completing build issues)
	// must not reset accumulated counters.
	initTriangle(c)
	if got := c.Snapshot().Vertices[0].FinalCands; got != 7 {
		t.Fatalf("second InitQuery reset counters: final = %d", got)
	}
}

func TestDistQuantiles(t *testing.T) {
	cards := []int64{10, 1, 5, 2, 100, 3, 4, 6, 7, 8}
	d := distOf(cards)
	if d.Count != 10 || d.Min != 1 || d.Max != 100 || d.Total != 146 {
		t.Fatalf("dist = %+v", d)
	}
	if d.P50 != 5 { // sorted[4] of [1 2 3 4 5 6 7 8 10 100]
		t.Fatalf("p50 = %d, want 5", d.P50)
	}
	if d.P95 != 10 { // sorted[int(0.95*9)] = sorted[8]
		t.Fatalf("p95 = %d, want 10", d.P95)
	}
	if want := 100 / 14.6; d.Skew < want-0.01 || d.Skew > want+0.01 {
		t.Fatalf("skew = %g, want ~%g", d.Skew, want)
	}
	if empty := distOf(nil); empty.Count != 0 || empty.Skew != 0 {
		t.Fatalf("empty dist = %+v", empty)
	}
}

func TestClustersAndWorkers(t *testing.T) {
	c := New()
	initTriangle(c)
	c.RecordClusters("FGD", []int64{100, 2, 3}, []int64{50, 50, 2, 3})
	l := ledgerFor(c, 2)
	for _, u := range []struct {
		worker int
		busy   time.Duration
	}{{0, 30 * time.Millisecond}, {0, 30 * time.Millisecond}, {1, 20 * time.Millisecond}} {
		l.AddUnit(u.worker, u.busy, 0, 0)
		c.ObserveUnit(u.busy)
	}
	c.AddEnumWall(80 * time.Millisecond)

	p := c.Snapshot()
	if p.Strategy != "FGD" {
		t.Fatalf("strategy = %q", p.Strategy)
	}
	if p.Clusters.Pivots.Count != 3 || p.Clusters.Units.Count != 4 {
		t.Fatalf("clusters = %+v", p.Clusters)
	}
	if p.Clusters.ExtremeSplits != 1 {
		t.Fatalf("extreme splits = %d, want 1", p.Clusters.ExtremeSplits)
	}
	if len(p.Workers) != 2 {
		t.Fatalf("workers = %d", len(p.Workers))
	}
	w0, w1 := p.Workers[0], p.Workers[1]
	if w0.Busy != 60*time.Millisecond || w0.Units != 2 {
		t.Fatalf("worker0 = %+v", w0)
	}
	if w0.Idle != 20*time.Millisecond || w1.Idle != 60*time.Millisecond {
		t.Fatalf("idle = %v/%v", w0.Idle, w1.Idle)
	}
	if h := p.Histograms["cluster_cardinality"]; h.Count != 3 {
		t.Fatalf("cluster histogram count = %d, want 3 (pivots only)", h.Count)
	}
	if h := p.Histograms["unit_seconds"]; h.Count != 3 {
		t.Fatalf("unit_seconds count = %d, want 3", h.Count)
	}
}

func TestCollectorConcurrent(t *testing.T) {
	c := New()
	initTriangle(c)
	l := ledgerFor(c, 8)
	const each = 5000
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			v := c.Vertex(w % 3)
			for i := 0; i < each; i++ {
				v.NeighborsScanned.Add(1)
				l.AddUnit(w, time.Microsecond, 0, 0)
				c.ObserveEnumOutput(i % 10)
			}
		}(w)
	}
	wg.Wait()
	p := c.Snapshot()
	var scanned int64
	for _, v := range p.Vertices {
		scanned += v.NeighborsScanned
	}
	if scanned != 8*each {
		t.Fatalf("scanned = %d, want %d (lost updates)", scanned, 8*each)
	}
	var units int64
	for _, w := range p.Workers {
		units += w.Units
	}
	if units != 8*each {
		t.Fatalf("units = %d, want %d", units, 8*each)
	}
	if h := p.Histograms["enum_candidates"]; h.Count != 8*each {
		t.Fatalf("enum histogram = %d, want %d", h.Count, 8*each)
	}
}

func TestCanonicalStripsTimings(t *testing.T) {
	c := New()
	initTriangle(c)
	c.Vertex(0).FinalCands.Add(9)
	c.RecordClusters("ST", []int64{4}, []int64{4})
	ledgerFor(c, 1).AddUnit(0, time.Millisecond, 0, 0)
	c.ObserveUnit(time.Millisecond)
	c.AddEnumWall(time.Millisecond)

	p := c.Snapshot()
	p.SetPhases(map[string]time.Duration{"build": time.Second})

	canon := p.Canonical()
	if canon.Workers != nil || canon.Phases != nil {
		t.Fatalf("canonical kept scheduling state: %+v", canon)
	}
	if _, ok := canon.Histograms["unit_seconds"]; ok {
		t.Fatal("canonical kept wall-time histogram")
	}
	if _, ok := canon.Histograms["cluster_cardinality"]; !ok {
		t.Fatal("canonical dropped deterministic histogram")
	}
	// Two snapshots of the same collector canonicalize identically.
	if !reflect.DeepEqual(canon, c.Snapshot().Canonical()) {
		t.Fatal("canonical not stable across snapshots")
	}
}

func TestProfileJSONRoundTrip(t *testing.T) {
	c := New()
	initTriangle(c)
	c.Vertex(2).NTE(0).Candidates.Add(11)
	c.RecordClusters("CGD", []int64{5, 6}, []int64{5, 6})
	p := c.Snapshot()
	p.SetPhases(map[string]time.Duration{"build": time.Millisecond, "enumerate": time.Second})
	if p.Phases[0].Name != "build" || p.Phases[1].Name != "enumerate" {
		t.Fatalf("phases unsorted: %+v", p.Phases)
	}

	b, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	var back Profile
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p, back) {
		t.Fatalf("round trip mismatch:\n%+v\n%+v", p, back)
	}
}

func TestProfileText(t *testing.T) {
	c := New()
	initTriangle(c)
	v := c.Vertex(1)
	v.NeighborsScanned.Add(100)
	v.DroppedLabel.Add(40)
	v.FinalCands.Add(60)
	l := ledgerFor(c, 1)
	var merge setops.KernelStats
	merge.Calls[setops.KernelMerge], merge.Scanned[setops.KernelMerge], merge.Emitted[setops.KernelMerge] = 1, 9, 4
	l.AddPosition(1, telemetry.StepCounts{Lookups: 2, Intersections: 1, Comparisons: 10, Output: 4}, &merge)
	c.Vertex(2).NTE(0).Candidates.Add(7)
	c.RecordClusters("FGD", []int64{9}, []int64{5, 4})
	l.AddUnit(0, time.Millisecond, 0, 0)

	p := c.Snapshot()
	p.SetPhases(map[string]time.Duration{"build": time.Millisecond})
	out := p.Text()
	for _, want := range []string{
		"filter funnel", "-label", "index shape", "enumeration intersections",
		"cluster cardinality distribution", "strategy: FGD",
		"extreme-cluster splits: 1", "workers", "phases", "0.4000", // selectivity 4/10
		"intersection kernels", "merge: 1/9/4",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("text missing %q:\n%s", want, out)
		}
	}
}
