package plan_test

import (
	"testing"

	"ceci/internal/gen"
	"ceci/internal/graph"
	"ceci/internal/order"
	"ceci/internal/plan"
)

func TestDecideFig1(t *testing.T) {
	data, query := gen.Fig1Data(), gen.Fig1Query()
	tree, dec, err := plan.Choose(data, query, plan.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if tree == nil || dec == nil {
		t.Fatal("nil tree or decision")
	}
	if dec.Estimate <= 0 {
		t.Fatalf("estimate = %v, want > 0", dec.Estimate)
	}
	if len(dec.Candidates) == 0 {
		t.Fatal("no candidates scored")
	}
	for _, c := range dec.Candidates {
		if c.Cost < dec.Estimate {
			t.Fatalf("chosen %q (%.1f) is not the cheapest: %q costs %.1f",
				dec.Chosen, dec.Estimate, c.Name, c.Cost)
		}
		if len(c.Order) != query.NumVertices() {
			t.Fatalf("candidate %q has short order %v", c.Name, c.Order)
		}
	}
	if len(tree.Order) != query.NumVertices() || tree.Order[0] != tree.Root {
		t.Fatalf("chosen tree order invalid: %v", tree.Order)
	}
	// The decision's order and the installed tree's must agree.
	for i := range dec.Order {
		if dec.Order[i] != tree.Order[i] {
			t.Fatalf("decision order %v != tree order %v", dec.Order, tree.Order)
		}
	}
}

func TestDecisionDeterministic(t *testing.T) {
	data, query := gen.RandomPair(42)
	_, a, err := plan.Choose(data, query, plan.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	_, b, err := plan.Choose(data, query, plan.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if a.Chosen != b.Chosen || a.Estimate != b.Estimate {
		t.Fatalf("planning not deterministic: %q/%.3f vs %q/%.3f",
			a.Chosen, a.Estimate, b.Chosen, b.Estimate)
	}
	for i := range a.Order {
		if a.Order[i] != b.Order[i] {
			t.Fatalf("orders differ: %v vs %v", a.Order, b.Order)
		}
	}
}

// TestPlannerOrdersTreeConsistent is the property test of the PR: every
// order the planner produces or considers — for fuzz-generated query
// graphs across a seed sweep — must be tree-consistent (no vertex
// before its TE parent) and a permutation starting at the root.
func TestPlannerOrdersTreeConsistent(t *testing.T) {
	seeds := int64(400)
	if testing.Short() {
		seeds = 60
	}
	for seed := int64(1); seed <= seeds; seed++ {
		data, query := gen.RandomPair(seed)
		p, err := plan.New(data, query, plan.DefaultOptions())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		dec, err := p.Decide()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		base := p.Base()
		for _, c := range dec.Candidates {
			checkTreeConsistent(t, seed, c.Name, base, c.Order)
		}
		checkTreeConsistent(t, seed, "chosen:"+dec.Chosen, base, dec.Order)
		// The installed tree must agree with its own classification.
		tree := dec.Tree
		for u := range tree.NTEParents {
			for _, pp := range tree.NTEParents[u] {
				if tree.Pos[pp] >= tree.Pos[u] {
					t.Fatalf("seed %d: NTE parent u%d not before u%d", seed, pp, u)
				}
			}
		}
	}
}

func checkTreeConsistent(t *testing.T, seed int64, name string, base *order.QueryTree, ord []graph.VertexID) {
	t.Helper()
	n := base.NumVertices()
	if len(ord) != n {
		t.Fatalf("seed %d %s: order has %d of %d vertices", seed, name, len(ord), n)
	}
	if ord[0] != base.Root {
		t.Fatalf("seed %d %s: order %v does not start at root u%d", seed, name, ord, base.Root)
	}
	seen := make([]bool, n)
	for _, u := range ord {
		if seen[u] {
			t.Fatalf("seed %d %s: order %v repeats u%d", seed, name, ord, u)
		}
		if p := base.Parent[u]; p != order.NoParent && !seen[p] {
			t.Fatalf("seed %d %s: order %v visits u%d before parent u%d", seed, name, ord, u, p)
		}
		seen[u] = true
	}
}

// TestGreedyPrefersSelectiveVertex: on the tie fixture (one rare leaf,
// two common ones) the greedy order must visit the rare leaf first —
// the model's whole point.
func TestGreedyPrefersSelectiveVertex(t *testing.T) {
	db := graph.NewBuilder(8)
	db.SetLabel(0, 0)
	for v := 1; v <= 6; v++ {
		db.SetLabel(graph.VertexID(v), 1)
		db.AddEdge(0, graph.VertexID(v))
	}
	db.SetLabel(7, 2)
	db.AddEdge(0, 7)
	data := db.MustBuild()

	qb := graph.NewBuilder(4)
	qb.SetLabel(0, 0)
	qb.SetLabel(1, 1)
	qb.SetLabel(2, 1)
	qb.SetLabel(3, 2)
	qb.AddEdge(0, 1)
	qb.AddEdge(0, 2)
	qb.AddEdge(0, 3)
	query := qb.MustBuild()

	p, err := plan.New(data, query, plan.Options{ForcedRoot: 0})
	if err != nil {
		t.Fatal(err)
	}
	dec, err := p.Decide()
	if err != nil {
		t.Fatal(err)
	}
	var greedy *plan.Candidate
	for i := range dec.Candidates {
		if dec.Candidates[i].Name == plan.GreedyName {
			greedy = &dec.Candidates[i]
		}
	}
	if greedy == nil {
		// The greedy order may have been deduplicated into a heuristic
		// candidate; the chosen order must still lead with the rare leaf.
		if dec.Order[1] != 3 {
			t.Fatalf("chosen order %v does not visit the rare leaf first", dec.Order)
		}
		return
	}
	if greedy.Order[1] != 3 {
		t.Fatalf("greedy order %v does not visit the rare leaf first", greedy.Order)
	}
}

// TestCalibrationShiftsEstimate: ratios above 1 must raise the
// calibrated cost, and Calibration must clamp extremes.
func TestCalibrationShiftsEstimate(t *testing.T) {
	data, query := gen.Fig1Data(), gen.Fig1Query()
	p, err := plan.New(data, query, plan.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	dec, err := p.Decide()
	if err != nil {
		t.Fatal(err)
	}
	n := query.NumVertices()
	lookups := make([]int64, n)
	emitted := make([]int64, n)
	for d := 1; d < n; d++ {
		lookups[d] = 10
		emitted[d] = 10_000 // far above any prediction: clamps at 64x
	}
	calib := dec.Calibration(lookups, emitted)
	if calib == nil {
		t.Fatal("calibration returned nil despite observations")
	}
	for d := 1; d < n; d++ {
		u := dec.Order[d]
		if calib[u] < 1 || calib[u] > 64 {
			t.Fatalf("calib[u%d] = %v outside (1, 64]", u, calib[u])
		}
	}
	recal := p.EstimateOrder("recal", dec.Order, calib)
	if recal.Cost <= dec.Estimate {
		t.Fatalf("calibrated cost %.1f not above estimate %.1f", recal.Cost, dec.Estimate)
	}
	// No observations -> nil.
	if c := dec.Calibration(make([]int64, n), make([]int64, n)); c != nil {
		t.Fatalf("empty observations produced calibration %v", c)
	}
}

func TestSingleVertexQuery(t *testing.T) {
	data := gen.Fig1Data()
	qb := graph.NewBuilder(1)
	qb.SetLabel(0, 0)
	query := qb.MustBuild()
	tree, dec, err := plan.Choose(data, query, plan.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(tree.Order) != 1 || len(dec.Candidates) != 1 {
		t.Fatalf("single-vertex plan: order %v, %d candidates", tree.Order, len(dec.Candidates))
	}
}
