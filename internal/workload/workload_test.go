package workload_test

import (
	"math/rand"
	"testing"
	"time"

	"ceci/internal/auto"
	"ceci/internal/ceci"
	"ceci/internal/enum"
	"ceci/internal/gen"
	"ceci/internal/graph"
	"ceci/internal/order"
	"ceci/internal/workload"
)

func buildIndex(t *testing.T, data, query *graph.Graph) *ceci.Index {
	t.Helper()
	tree, err := order.Preprocess(data, query, order.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return ceci.Build(data, tree, ceci.Options{})
}

func TestClustersOnePerPivot(t *testing.T) {
	data := gen.Kronecker(8, 6, 3)
	ix := buildIndex(t, data, gen.QG1())
	units := workload.Clusters(ix)
	if len(units) != len(ix.Pivots()) {
		t.Fatalf("units %d != pivots %d", len(units), len(ix.Pivots()))
	}
	for i, u := range units {
		if len(u.Pos) != 1 || u.Pivot(ix) != ix.Pivots()[i] {
			t.Fatalf("unit %d malformed: %+v", i, u)
		}
		if u.Card != ix.ClusterCardinality(i) {
			t.Fatalf("unit %d cardinality mismatch", i)
		}
	}
}

// TestDecomposePartitionsSearchSpace: FGD decomposition must preserve the
// total embedding count exactly — no loss, no duplication — across many
// random graphs, betas, and queries with symmetry.
func TestDecomposePartitionsSearchSpace(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 40; trial++ {
		data := randomGraph(rng, 15, 45, 2)
		query, err := gen.DFSQuery(data, 3+rng.Intn(3), rng)
		if err != nil {
			continue
		}
		ix := buildIndex(t, data, query)
		want := enum.NewMatcher(ix, enum.Options{Workers: 1, Strategy: workload.CGD}).Count()
		for _, beta := range []float64{1.0, 0.3, 0.05} {
			m := enum.NewMatcher(ix, enum.Options{Workers: 4, Strategy: workload.FGD, Beta: beta})
			if got := m.Count(); got != want {
				t.Fatalf("trial %d beta %v: got %d want %d", trial, beta, got, want)
			}
		}
	}
}

func TestDecomposeSplitsExtremeClusters(t *testing.T) {
	// A hub-heavy Kronecker graph has dominant clusters; with small beta
	// and several workers, FGD must produce more units than clusters.
	data := gen.Kronecker(10, 8, 5)
	ix := buildIndex(t, data, gen.QG1())
	cons := auto.Compute(gen.QG1())
	clusters := workload.Clusters(ix)
	units := workload.Decompose(ix, cons, 0.1, 16, ix.Tree.NumVertices(), nil)
	if len(units) <= len(clusters) {
		t.Fatalf("decomposition did not split: %d units vs %d clusters", len(units), len(clusters))
	}
	// Pool must be sorted by descending cardinality.
	for i := 1; i < len(units); i++ {
		if units[i-1].Card < units[i].Card {
			t.Fatalf("pool not sorted at %d", i)
		}
	}
}

func TestDecomposeSingleWorkerNoSplit(t *testing.T) {
	data := gen.Kronecker(8, 6, 3)
	ix := buildIndex(t, data, gen.QG1())
	units := workload.Decompose(ix, nil, 0.1, 1, ix.Tree.NumVertices(), nil)
	if len(units) != len(workload.Clusters(ix)) {
		t.Fatal("single worker should skip decomposition")
	}
}

func TestPoolDrainsExactlyOnce(t *testing.T) {
	units := make([]workload.Unit, 100)
	for i := range units {
		units[i] = workload.Unit{Pos: []uint32{uint32(i)}}
	}
	pool := workload.NewPool(units)
	seen := make(chan uint32, 200)
	done := make(chan bool)
	for w := 0; w < 4; w++ {
		go func() {
			for {
				u, ok := pool.Next()
				if !ok {
					done <- true
					return
				}
				seen <- u.Pos[0]
			}
		}()
	}
	for i := 0; i < 4; i++ {
		<-done
	}
	close(seen)
	got := map[graph.VertexID]int{}
	for v := range seen {
		got[v]++
	}
	if len(got) != 100 {
		t.Fatalf("saw %d distinct units, want 100", len(got))
	}
	for v, n := range got {
		if n != 1 {
			t.Fatalf("unit %d seen %d times", v, n)
		}
	}
}

func TestPartitionRoundRobin(t *testing.T) {
	units := make([]workload.Unit, 10)
	groups := workload.Partition(units, 3)
	if len(groups[0]) != 4 || len(groups[1]) != 3 || len(groups[2]) != 3 {
		t.Fatalf("group sizes: %d %d %d", len(groups[0]), len(groups[1]), len(groups[2]))
	}
	if got := workload.Partition(units, 0); len(got) != 1 || len(got[0]) != 10 {
		t.Fatal("k<1 should collapse to one group")
	}
}

func TestSimulateMakespanST(t *testing.T) {
	costs := []time.Duration{10, 1, 1, 1} // round-robin with 2 workers: w0={10,1}, w1={1,1}
	if got := workload.SimulateMakespan(costs, 2, workload.ST); got != 11 {
		t.Fatalf("ST makespan = %v, want 11", got)
	}
}

func TestSimulateMakespanCGD(t *testing.T) {
	costs := []time.Duration{10, 1, 1, 1} // greedy: w0=10, w1=1+1+1
	if got := workload.SimulateMakespan(costs, 2, workload.CGD); got != 10 {
		t.Fatalf("CGD makespan = %v, want 10", got)
	}
}

func TestSimulateMakespanProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(60)
		costs := make([]time.Duration, n)
		var total, max time.Duration
		for i := range costs {
			costs[i] = time.Duration(rng.Intn(1000)) * time.Microsecond
			total += costs[i]
			if costs[i] > max {
				max = costs[i]
			}
		}
		for _, workers := range []int{1, 2, 7, 100} {
			for _, s := range []workload.Strategy{workload.ST, workload.CGD, workload.FGD} {
				got := workload.SimulateMakespan(costs, workers, s)
				// Bounds: max unit <= makespan <= total; 1 worker = total.
				if got < max || got > total {
					t.Fatalf("makespan %v outside [%v, %v]", got, max, total)
				}
				if workers == 1 && got != total {
					t.Fatalf("1 worker makespan %v != total %v", got, total)
				}
				// Work is conserved across workers.
				var sum time.Duration
				for _, w := range workload.SimulateWorkerTimes(costs, workers, s) {
					sum += w
				}
				if sum != total {
					t.Fatalf("worker times sum %v != total %v", sum, total)
				}
			}
		}
		// Greedy list scheduling is a 2-approximation of the optimum, so
		// CGD can never exceed twice the lower bound max(total/k, max).
		for _, workers := range []int{2, 5} {
			cgd := workload.SimulateMakespan(costs, workers, workload.CGD)
			lower := total / time.Duration(workers)
			if max > lower {
				lower = max
			}
			if cgd > 2*lower {
				t.Fatalf("CGD %v exceeds 2x lower bound %v", cgd, lower)
			}
		}
	}
}

func TestStrategyStrings(t *testing.T) {
	if workload.ST.String() != "ST" || workload.CGD.String() != "CGD" || workload.FGD.String() != "FGD" {
		t.Fatal("strategy names wrong")
	}
}

func randomGraph(rng *rand.Rand, n, m, labels int) *graph.Graph {
	b := graph.NewBuilder(n)
	for v := 0; v < n; v++ {
		b.SetLabel(graph.VertexID(v), graph.Label(rng.Intn(labels)))
	}
	perm := rng.Perm(n)
	for i := 1; i < n; i++ {
		b.AddEdge(graph.VertexID(perm[i-1]), graph.VertexID(perm[i]))
	}
	for i := 0; i < m; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			b.AddEdge(graph.VertexID(u), graph.VertexID(v))
		}
	}
	return b.MustBuild()
}
