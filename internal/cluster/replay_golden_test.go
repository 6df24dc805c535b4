package cluster

import (
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"ceci/internal/gen"
	"ceci/internal/graph"
	"ceci/internal/workload"
)

// injectedSimulation is a Simulation whose measurements are made up:
// every keep-th vertex of data is a pivot with a cost and an embedding
// count that are pure functions of its id, so a replay of it depends on
// nothing but the partitioner and the event loop.
func injectedSimulation(data *graph.Graph, keep int) *Simulation {
	s := &Simulation{
		data:         data,
		clusters:     make(map[graph.VertexID]workload.ReplayUnit),
		buildCompute: 37 * time.Millisecond,
		remoteReads:  123457,
	}
	for v := 0; v < data.NumVertices(); v += keep {
		p := graph.VertexID(v)
		h := uint64(v)*0x9E3779B97F4A7C15 + 0xD1B54A32D192ED03
		h ^= h >> 29
		var cost time.Duration
		switch {
		case v%11 == 0:
			cost = 0 // an empty cluster
		case v%7 == 0:
			cost = 250 * time.Microsecond // ties
		case v == 5*keep:
			cost = 90 * time.Millisecond // one cluster that dwarfs the rest
		default:
			cost = time.Duration(h%3_000_000) * time.Duration(1+data.Degree(p))
		}
		s.pivots = append(s.pivots, p)
		s.clusters[p] = workload.ReplayUnit{Cost: cost, Embeddings: int64(h >> 40 % 1000)}
		s.total += s.clusters[p].Embeddings
	}
	return s
}

// simulationGoldenRows replays two injected simulations — a few hundred
// pivots, and three (fewer than most machine counts, so some machines
// start empty and live off steals) — for machines {1,2,4,8,16} × both
// modes, the configurations Figures 16, 17 and 20 sweep. One header row
// per run, one row per machine ledger, durations in integer nanoseconds.
func simulationGoldenRows(t *testing.T) []string {
	data := gen.Kronecker(9, 6, 18)
	var rows []string
	for _, sc := range []struct {
		name string
		sim  *Simulation
	}{
		{"many", injectedSimulation(data, 2)},
		{"three", injectedSimulation(data, 200)},
	} {
		for _, mode := range []Mode{Replicated, SharedStorage} {
			for _, machines := range []int{1, 2, 4, 8, 16} {
				res, err := sc.sim.Run(Config{
					Machines:          machines,
					WorkersPerMachine: 4,
					Mode:              mode,
					Jaccard:           mode == Replicated,
				})
				if err != nil {
					t.Fatal(err)
				}
				rows = append(rows, fmt.Sprintf("%s\t%v\t%d\trun\t%d\t%d\t%d",
					sc.name, mode, machines, int64(res.Makespan), res.Steals, res.Embeddings))
				for i, l := range res.Machines {
					rows = append(rows, fmt.Sprintf("%s\t%v\t%d\tm%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d",
						sc.name, mode, machines, i,
						int64(l.Enumerate), int64(l.Comm), l.Stolen, l.Embeddings,
						l.Pivots, int64(l.BuildCompute), int64(l.BuildIO), l.RemoteReads, l.MessagesSent))
				}
			}
		}
	}
	return rows
}

const simulationGoldenHeader = "sim\tmode\tmachines\trun: makespan_ns steals embeddings | mN: enumerate_ns comm_ns stolen embeddings pivots build_compute_ns build_io_ns remote_reads messages"

// TestSimulationGoldenTable: testdata/simulation_golden.tsv was written
// by the inline event loop Simulation.Run carried at commit 16bf1fd and
// is never regenerated; the replay through workload.Replay must
// reproduce every ledger bit for bit.
func TestSimulationGoldenTable(t *testing.T) {
	raw, err := os.ReadFile("testdata/simulation_golden.tsv")
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	got := append([]string{simulationGoldenHeader}, simulationGoldenRows(t)...)
	if len(got) != len(want) {
		t.Fatalf("%d rows, golden table has %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("row %d:\n got %s\nwant %s", i, got[i], want[i])
		}
	}
}
