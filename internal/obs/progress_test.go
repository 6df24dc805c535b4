package obs

import (
	"slices"
	"sync"
	"testing"
	"time"
)

func TestReporterLifecycle(t *testing.T) {
	var mu sync.Mutex
	var reports []Progress
	r := NewReporter(func(p Progress) {
		mu.Lock()
		reports = append(reports, p)
		mu.Unlock()
	}, time.Millisecond)

	var workMu sync.Mutex
	done := Work{WorkerBusy: []time.Duration{3 * time.Millisecond, 0}, WorkerDone: []int64{0, 0}}
	work := func() Work {
		workMu.Lock()
		defer workMu.Unlock()
		return done
	}
	r.Begin(work, 4, 100)
	r.Begin(work, 0, 0) // already running: adds nothing
	for i := 0; i < 4; i++ {
		workMu.Lock()
		units := slices.Clone(done.WorkerDone) // the sampler hands out the old slice
		units[i%2]++
		done.WorkerDone = units
		done.Cardinality += 25
		done.Embeddings += 10
		workMu.Unlock()
		time.Sleep(2 * time.Millisecond)
	}
	r.Stop() // the second Begin's: reporting goes on
	r.Stop() // the first Begin's: the final report
	r.Stop() // no Begin open: nothing

	mu.Lock()
	defer mu.Unlock()
	if len(reports) < 2 {
		t.Fatalf("reports = %d, want >= 2 (periodic + final)", len(reports))
	}
	last := reports[len(reports)-1]
	if !last.Final {
		t.Fatal("last report not Final")
	}
	if last.ClustersDone != 4 || last.ClustersTotal != 4 ||
		last.Embeddings != 40 || last.CardinalityDone != 100 ||
		last.CardinalityTotal != 100 {
		t.Fatalf("final = %+v", last)
	}
	if len(last.WorkerBusy) != 2 || last.WorkerBusy[0] != 3*time.Millisecond {
		t.Fatalf("worker busy = %v", last.WorkerBusy)
	}
	if last.Elapsed <= 0 || last.EmbeddingsPerSec <= 0 {
		t.Fatalf("rates = %+v", last)
	}
	for i := 1; i < len(reports); i++ {
		prev, cur := reports[i-1], reports[i]
		if cur.ClustersDone < prev.ClustersDone || cur.Embeddings < prev.Embeddings ||
			cur.CardinalityDone < prev.CardinalityDone || cur.Elapsed < prev.Elapsed {
			t.Fatalf("report %d regressed: %+v -> %+v", i, prev, cur)
		}
	}
}

func TestReporterETA(t *testing.T) {
	// Cardinality-based: half the cardinality done in Elapsed time means
	// ETA ~= Elapsed.
	p := Progress{Elapsed: time.Second, CardinalityDone: 50, CardinalityTotal: 100}
	if got := eta(p); got != time.Second {
		t.Fatalf("cardinality eta = %v, want 1s", got)
	}
	// Cluster fallback when no cardinalities were registered: 1 of 3
	// clusters remains after 2 clusters took 2s, so ~1s to go.
	p = Progress{Elapsed: 2 * time.Second, ClustersDone: 2, ClustersTotal: 3}
	if got := eta(p); got != time.Second {
		t.Fatalf("cluster eta = %v, want 1s", got)
	}
	// Done, or nothing to extrapolate from: 0.
	if eta(Progress{Elapsed: time.Second, ClustersDone: 3, ClustersTotal: 3}) != 0 {
		t.Fatal("completed run should have eta 0")
	}
	if eta(Progress{ClustersTotal: 5}) != 0 {
		t.Fatal("unstarted run should have eta 0")
	}
}

func TestReporterNilSafe(t *testing.T) {
	var r *Reporter
	r.Begin(nil, 1, 1)
	r.Stop()
	if p := r.Snapshot(false); p.ClustersDone != 0 || p.Embeddings != 0 || p.Elapsed != 0 {
		t.Fatalf("nil snapshot = %+v", p)
	}
}

func TestReporterNilFuncAggregatesOnly(t *testing.T) {
	r := NewReporter(nil, time.Millisecond)
	r.Begin(func() Work { return Work{WorkerDone: []int64{1}, Embeddings: 7} }, 2, 0)
	time.Sleep(3 * time.Millisecond)
	r.Stop()
	p := r.Snapshot(false)
	if p.ClustersDone != 1 || p.Embeddings != 7 || p.ClustersTotal != 2 {
		t.Fatalf("snapshot = %+v", p)
	}
}
