package workload_test

import (
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"
	"time"

	"ceci/internal/workload"
)

// goldenCostVectors are the fixed synthetic unit costs the replay is
// pinned on: the shapes a scheduler gets wrong first (ties, zero-cost
// units, one unit that dwarfs the rest, fewer units than workers, no
// units) plus two seeded vectors — one in arrival order, one sorted
// largest-first the way Decompose hands FGD its pool.
func goldenCostVectors() []struct {
	name  string
	costs []time.Duration
} {
	rng := rand.New(rand.NewSource(18))
	arrival := make([]time.Duration, 97)
	for i := range arrival {
		arrival[i] = time.Duration(rng.Intn(5000)) * time.Microsecond
	}
	sorted := make([]time.Duration, 200)
	for i := range sorted {
		sorted[i] = time.Duration(rng.Int63n(int64(40*time.Millisecond))) / time.Duration(1+i/10)
	}
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && sorted[j] > sorted[j-1]; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	return []struct {
		name  string
		costs []time.Duration
	}{
		{"empty", nil},
		{"ties", []time.Duration{5, 5, 5, 5, 5, 5, 5}},
		{"zeros", []time.Duration{0, 3, 0, 0, 7, 0, 2, 0}},
		{"giant-first", []time.Duration{time.Hour, 1, 2, 3, 4, 5, 6, 7, 8, 9}},
		{"giant-mid", []time.Duration{4, 4, 4, time.Hour, 4, 4, 4, 4, 4, 4, 4}},
		{"few", []time.Duration{9, 4}},
		{"arrival-97", arrival},
		{"sorted-200", sorted},
	}
}

// replayGoldenRows is SimulateWorkerTimes for every vector × strategy ×
// worker count, one row each, durations in integer nanoseconds.
func replayGoldenRows() []string {
	var rows []string
	for _, vec := range goldenCostVectors() {
		for _, s := range []workload.Strategy{workload.ST, workload.CGD, workload.FGD} {
			for _, workers := range []int{1, 2, 3, 8, 32} {
				times := workload.SimulateWorkerTimes(vec.costs, workers, s)
				cells := make([]string, len(times))
				for i, d := range times {
					cells[i] = fmt.Sprint(int64(d))
				}
				rows = append(rows, fmt.Sprintf("%s\t%v\t%d\t%d\t%s", vec.name, s, workers,
					int64(workload.SimulateMakespan(vec.costs, workers, s)), strings.Join(cells, ",")))
			}
		}
	}
	return rows
}

const replayGoldenHeader = "costs\tstrategy\tworkers\tmakespan_ns\tworker_busy_ns"

// TestReplayGoldenTable: testdata/replay_golden.tsv was written by the
// two hand-rolled loops of commit 16bf1fd (round-robin sums for ST, an
// earliest-free-worker scan for CGD/FGD) and is never regenerated;
// workload.Replay must reproduce it bit for bit.
func TestReplayGoldenTable(t *testing.T) {
	raw, err := os.ReadFile("testdata/replay_golden.tsv")
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	got := append([]string{replayGoldenHeader}, replayGoldenRows()...)
	if len(got) != len(want) {
		t.Fatalf("%d rows, golden table has %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("row %d:\n got %s\nwant %s", i, got[i], want[i])
		}
	}
}
