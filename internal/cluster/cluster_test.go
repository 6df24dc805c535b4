package cluster

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"ceci/internal/auto"
	"ceci/internal/ceci"
	"ceci/internal/gen"
	"ceci/internal/graph"
	"ceci/internal/order"
	"ceci/internal/reference"
)

// rootCandidates returns the root's candidates in the index of query over
// data: the pivots, one embedding cluster each.
func rootCandidates(t *testing.T, data, query *graph.Graph) []graph.VertexID {
	t.Helper()
	tree, err := order.Preprocess(data, query, order.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return ceci.Build(data, tree, ceci.Options{}).Pivots()
}

// TestSimulationMatchesReference: a replayed distributed run finds the
// reference matcher's embedding count, and its ledgers account for every
// pivot and every embedding exactly once, in both placement modes and for
// machines {1, 3, 8} — on one Kronecker square and on seeded random DFS
// queries.
func TestSimulationMatchesReference(t *testing.T) {
	type fixture struct {
		name        string
		data, query *graph.Graph
	}
	fixtures := []fixture{{"kronecker-qg2", gen.Kronecker(9, 6, 17), gen.QG2()}}
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 20; trial++ {
		data := randomGraph(rng, 20, 60, 2)
		if query, err := gen.DFSQuery(data, 3+rng.Intn(3), rng); err == nil {
			fixtures = append(fixtures, fixture{fmt.Sprintf("random-%d", trial), data, query})
		}
	}
	for _, fx := range fixtures {
		want := reference.Count(fx.data, fx.query, reference.Options{Constraints: auto.Compute(fx.query)})
		pivots := len(rootCandidates(t, fx.data, fx.query))
		sim, err := NewSimulation(fx.data, fx.query)
		if err != nil {
			t.Fatalf("%s: %v", fx.name, err)
		}
		if sim.Embeddings() != want {
			t.Fatalf("%s: measured %d embeddings, reference counts %d", fx.name, sim.Embeddings(), want)
		}
		for _, machines := range []int{1, 3, 8} {
			for _, mode := range []Mode{Replicated, SharedStorage} {
				res, err := sim.Run(Config{Machines: machines, WorkersPerMachine: 2, Mode: mode})
				if err != nil {
					t.Fatal(err)
				}
				var assigned int
				var found int64
				for _, l := range res.Machines {
					assigned += l.Pivots
					found += l.Embeddings
				}
				if res.Embeddings != want || found != want {
					t.Fatalf("%s m=%d %v: result %d, ledgers %d embeddings; reference counts %d",
						fx.name, machines, mode, res.Embeddings, found, want)
				}
				if assigned != pivots {
					t.Fatalf("%s m=%d %v: %d pivots assigned, the root has %d candidates",
						fx.name, machines, mode, assigned, pivots)
				}
			}
		}
	}
}

// TestClusterJaccardColocationAgrees: with Jaccard co-location on, the
// replicated placement still puts every root candidate on exactly one
// machine, and it differs from the plain placement — the co-location
// pass moved something; in shared-storage mode, which cannot read
// neighbours, Jaccard changes nothing.
func TestClusterJaccardColocationAgrees(t *testing.T) {
	data := gen.Kronecker(9, 8, 13)
	pivots := rootCandidates(t, data, gen.QG2())
	place := func(mode Mode, jaccard bool) [][]graph.VertexID {
		return distributePivots(data, pivots, Config{Machines: 4, Mode: mode, Jaccard: jaccard})
	}
	jac := place(Replicated, true)
	var placed []graph.VertexID
	for _, part := range jac {
		placed = append(placed, part...)
	}
	slices.Sort(placed)
	if !slices.Equal(placed, pivots) {
		t.Fatalf("jaccard placement holds %d pivots, not the root's %d candidates once each", len(placed), len(pivots))
	}
	if slices.EqualFunc(jac, place(Replicated, false), slices.Equal) {
		t.Fatal("jaccard co-location placed every pivot where the plain placement does")
	}
	if !slices.EqualFunc(place(SharedStorage, true), place(SharedStorage, false), slices.Equal) {
		t.Fatal("jaccard co-location moved a pivot in shared-storage mode")
	}
}

// TestSimulationSpeedupMonotone: more machines never increase the
// enumeration-phase makespan in replicated mode (build and comm charges
// are per-machine constants there).
func TestSimulationSpeedupMonotone(t *testing.T) {
	data := gen.Kronecker(10, 8, 23)
	sim, err := NewSimulation(data, gen.QG1())
	if err != nil {
		t.Fatal(err)
	}
	var prev *Result
	for _, machines := range []int{1, 2, 4, 8} {
		res, err := sim.Run(Config{Machines: machines, WorkersPerMachine: 2})
		if err != nil {
			t.Fatal(err)
		}
		var maxEnum, prevMax = maxEnumerate(res), maxEnumerate(prev)
		if prev != nil && maxEnum > prevMax+prevMax/4 {
			t.Fatalf("enumeration makespan grew: %v -> %v at %d machines",
				prevMax, maxEnum, machines)
		}
		prev = res
	}
}

func maxEnumerate(r *Result) (max time.Duration) {
	if r == nil {
		return 0
	}
	for _, l := range r.Machines {
		if l.Enumerate > max {
			max = l.Enumerate
		}
	}
	return max
}

func TestClusterRejectsBadConfig(t *testing.T) {
	sim, err := NewSimulation(gen.Kronecker(6, 4, 1), gen.QG1())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(Config{Machines: 0}); err == nil {
		t.Fatal("expected error for zero machines")
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
