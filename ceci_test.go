package ceci_test

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ceci"
	"ceci/internal/auto"
	"ceci/internal/gen"
	"ceci/internal/reference"
)

func TestMatchDefaults(t *testing.T) {
	data, query := gen.Fig1Data(), gen.Fig1Query()
	m, err := ceci.Match(data, query, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Count(); got != 2 {
		t.Fatalf("count = %d, want 2", got)
	}
	embs := m.Collect()
	if len(embs) != 2 {
		t.Fatalf("collect = %d", len(embs))
	}
}

func TestMatchNilGraphs(t *testing.T) {
	q := gen.QG1()
	if _, err := ceci.Match(nil, q, nil); err == nil {
		t.Fatal("nil data accepted")
	}
	if _, err := ceci.Match(q, nil, nil); err == nil {
		t.Fatal("nil query accepted")
	}
}

func TestMatchDisconnectedQuery(t *testing.T) {
	b := ceci.NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(2, 3)
	if _, err := ceci.Match(gen.Fig1Data(), b.MustBuild(), nil); err == nil {
		t.Fatal("disconnected query accepted")
	}
}

func TestOptionsMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	data := gen.WithRandomLabels(gen.ErdosRenyi(40, 150, 5), 3, 3)
	query, err := gen.DFSQuery(data, 4, rng)
	if err != nil {
		t.Skip("no query region")
	}
	cons := auto.Compute(query)
	want := reference.Count(data, query, reference.Options{Constraints: cons})
	for _, strat := range []ceci.Strategy{ceci.StrategyFine, ceci.StrategyStatic, ceci.StrategyCoarse} {
		for _, order := range []ceci.OrderHeuristic{ceci.OrderBFS, ceci.OrderLeastFrequent, ceci.OrderPathRanked, ceci.OrderEdgeRanked} {
			for _, ev := range []bool{false, true} {
				got, err := ceci.Count(data, query, &ceci.Options{
					Workers: 2, Strategy: strat, Order: order, EdgeVerification: ev,
				})
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("%v/%v/ev=%v: got %d want %d", strat, order, ev, got, want)
				}
			}
		}
	}
}

func TestKeepAutomorphisms(t *testing.T) {
	data := gen.ErdosRenyi(20, 60, 9)
	q := gen.QG1()
	sym, err := ceci.Count(data, q, nil)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := ceci.Count(data, q, &ceci.Options{KeepAutomorphisms: true})
	if err != nil {
		t.Fatal(err)
	}
	if raw != sym*int64(ceci.Automorphisms(q)) {
		t.Fatalf("raw %d != sym %d × %d", raw, sym, ceci.Automorphisms(q))
	}
}

func TestForcedRoot(t *testing.T) {
	data, query := gen.Fig1Data(), gen.Fig1Query()
	root := ceci.VertexID(0)
	m, err := ceci.Match(data, query, &ceci.Options{Root: &root})
	if err != nil {
		t.Fatal(err)
	}
	if m.Count() != 2 {
		t.Fatal("forced root changed result")
	}
	bad := ceci.VertexID(99)
	if _, err := ceci.Match(data, query, &ceci.Options{Root: &bad}); err == nil {
		t.Fatal("out-of-range root accepted")
	}
}

func TestFirstK(t *testing.T) {
	data := gen.Kronecker(8, 8, 2)
	m, err := ceci.Match(data, gen.QG1(), nil)
	if err != nil {
		t.Fatal(err)
	}
	got := m.First(25)
	if len(got) != 25 {
		t.Fatalf("first(25) returned %d", len(got))
	}
	for _, emb := range got {
		if len(emb) != 3 {
			t.Fatalf("embedding size %d", len(emb))
		}
	}
	if m.First(0) != nil {
		t.Fatal("First(0) should be nil")
	}
}

func TestIndexInfo(t *testing.T) {
	m, err := ceci.Match(gen.Fig1Data(), gen.Fig1Query(), nil)
	if err != nil {
		t.Fatal(err)
	}
	info := m.IndexInfo()
	if info.Pivots == 0 || info.CandidateEdges == 0 || info.SizeBytes == 0 {
		t.Fatalf("info = %+v", info)
	}
	if info.SpaceSavedPercent() <= 0 {
		t.Fatalf("expected space savings on the labeled fixture, got %.1f%%", info.SpaceSavedPercent())
	}
	if info.TotalCardinality < 2 {
		t.Fatalf("cardinality bound %d below true count", info.TotalCardinality)
	}
}

func TestStatsPlumbing(t *testing.T) {
	st := &ceci.Stats{}
	_, err := ceci.Count(gen.Fig1Data(), gen.Fig1Query(), &ceci.Options{Stats: st})
	if err != nil {
		t.Fatal(err)
	}
	if st.Embeddings.Load() != 2 || st.RecursiveCalls.Load() == 0 {
		t.Fatalf("stats = %v", st.Snapshot())
	}
}

func TestGraphIO(t *testing.T) {
	g := gen.Fig1Data()
	var buf bytes.Buffer
	if err := ceci.WriteLabeledGraph(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ceci.LoadLabeledGraph(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumVertices() != g.NumVertices() || g2.NumEdges() != g.NumEdges() {
		t.Fatal("round trip lost data")
	}

	el, err := ceci.LoadGraph(strings.NewReader("0 1\n1 2\n"))
	if err != nil {
		t.Fatal(err)
	}
	if el.NumEdges() != 2 {
		t.Fatal("edge list load failed")
	}
}

func TestGraphFileCSR(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.csr")
	g := gen.Kronecker(6, 4, 1)
	if err := ceci.WriteGraphCSR(path, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ceci.LoadGraphCSR(path)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumEdges() != g.NumEdges() {
		t.Fatal("CSR round trip lost edges")
	}
	if _, err := ceci.LoadGraphCSR(filepath.Join(dir, "missing.csr")); !os.IsNotExist(err) {
		t.Fatalf("missing file gave %v, want not-exist", err)
	}
}

func TestLoadGraphFileDispatch(t *testing.T) {
	dir := t.TempDir()
	lg := filepath.Join(dir, "g.lg")
	f, err := os.Create(lg)
	if err != nil {
		t.Fatal(err)
	}
	if err := ceci.WriteLabeledGraph(f, gen.Fig1Data()); err != nil {
		t.Fatal(err)
	}
	f.Close()
	g, err := ceci.LoadGraphFile(lg)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumLabels() != 5 {
		t.Fatal("labels lost through file dispatch")
	}
}

func TestStrategyStrings(t *testing.T) {
	if ceci.StrategyFine.String() != "FGD" ||
		ceci.StrategyStatic.String() != "ST" ||
		ceci.StrategyCoarse.String() != "CGD" {
		t.Fatal("strategy names wrong")
	}
}

// TestPublicCrossValidation fuzzes the whole public path against the
// oracle.
func TestPublicCrossValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	for trial := 0; trial < 30; trial++ {
		data := gen.WithRandomLabels(gen.ErdosRenyi(15+rng.Intn(10), 50+rng.Intn(40), int64(trial)), 1+rng.Intn(4), int64(trial))
		query, err := gen.DFSQuery(data, 2+rng.Intn(4), rng)
		if err != nil {
			continue
		}
		cons := auto.Compute(query)
		want := reference.Count(data, query, reference.Options{Constraints: cons})
		got, err := ceci.Count(data, query, &ceci.Options{Workers: 3})
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("trial %d: got %d want %d", trial, got, want)
		}
	}
}

// TestLoadedIndexCountsMatchBuilt: enumeration counts follow the
// enumeration's options, so an index enumerated by a run other than the
// one that built it (MatchOver) reports the same intersection and
// edge-verification work as one built in place, and charges none of it to
// the building run's Stats (where they used to be routed: zero for the
// enumerating run).
func TestLoadedIndexCountsMatchBuilt(t *testing.T) {
	data, query := gen.Fig1Data(), gen.Fig1Query()
	for _, edgeVerify := range []bool{false, true} {
		opts := func(st *ceci.Stats) *ceci.Options {
			return &ceci.Options{Workers: 1, EdgeVerification: edgeVerify, Stats: st}
		}
		var built ceci.Stats
		m, err := ceci.Match(data, query, opts(&built))
		if err != nil {
			t.Fatal(err)
		}
		buildIntersections := built.IntersectionOps.Load() // NTE construction
		m.Count()
		builtI, builtV, builtR := built.IntersectionOps.Load(), built.EdgeVerifications.Load(), built.RecursiveCalls.Load()

		var loaded ceci.Stats
		loadedOpts := opts(&loaded)
		loadedOpts.Ledger = ceci.NewLedger()
		m2, err := ceci.MatchOver(m, loadedOpts)
		if err != nil {
			t.Fatal(err)
		}
		m2.Count()
		if got := loadedOpts.Ledger.Snapshot().RecursiveCalls; got != loaded.RecursiveCalls.Load() {
			t.Errorf("edgeVerify=%v: loaded-index ledger saw %d recursive calls, stats %d",
				edgeVerify, got, loaded.RecursiveCalls.Load())
		}
		if built.IntersectionOps.Load() != builtI || built.EdgeVerifications.Load() != builtV || built.RecursiveCalls.Load() != builtR {
			t.Errorf("edgeVerify=%v: enumerating the index charged the run that built it", edgeVerify)
		}

		wantI := builtI - buildIntersections
		wantV := builtV
		if wantI+wantV == 0 {
			t.Fatalf("edgeVerify=%v: built-in-place run counted no enumeration work", edgeVerify)
		}
		if got := loaded.IntersectionOps.Load(); got != wantI {
			t.Errorf("edgeVerify=%v: loaded IntersectionOps = %d, built in place %d", edgeVerify, got, wantI)
		}
		if got := loaded.EdgeVerifications.Load(); got != wantV {
			t.Errorf("edgeVerify=%v: loaded EdgeVerifications = %d, built in place %d", edgeVerify, got, wantV)
		}
		if loaded.RecursiveCalls.Load() != builtR {
			t.Errorf("edgeVerify=%v: recursive calls %d vs %d", edgeVerify,
				loaded.RecursiveCalls.Load(), builtR)
		}
	}
}

func TestExplain(t *testing.T) {
	m, err := ceci.Match(gen.Fig1Data(), gen.Fig1Query(), nil)
	if err != nil {
		t.Fatal(err)
	}
	plan := m.Explain()
	for _, want := range []string{"matching order", "clusters:", "tree", "non-tree", "set-intersection"} {
		if !strings.Contains(plan, want) {
			t.Fatalf("plan missing %q:\n%s", want, plan)
		}
	}
}

// TestIncrementalPublicAPI: first-k through the public API — a limited
// Match, which replaced CountIncremental — counts what there is under a
// limit past it and exactly the limit under one inside it, and refuses a
// nil graph.
func TestIncrementalPublicAPI(t *testing.T) {
	data, query := gen.Fig1Data(), gen.Fig1Query()
	n, err := ceci.Count(data, query, &ceci.Options{Limit: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("limited count = %d, want 2", n)
	}
	big := gen.Kronecker(8, 8, 2)
	n, err = ceci.Count(big, gen.QG1(), &ceci.Options{Limit: 11})
	if err != nil {
		t.Fatal(err)
	}
	if n != 11 {
		t.Fatalf("limited count = %d, want 11", n)
	}
	if _, err := ceci.Match(nil, query, &ceci.Options{Limit: 1}); err == nil {
		t.Fatal("nil data accepted")
	}
}

// TestIncrementalMatchesMonolithicPublic: on a query set a limited Match
// counts what the unlimited one does when its limit is past the total, and
// half of it when the limit is half.
func TestIncrementalMatchesMonolithicPublic(t *testing.T) {
	data := gen.WithRandomLabels(gen.Kronecker(9, 5, 77), 4, 7)
	qs := gen.QuerySet(data, 4, 3, 5)
	for i, q := range qs {
		mono, err := ceci.Count(data, q, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, limit := range []int64{mono + 1, (mono + 1) / 2} {
			if limit == 0 {
				continue
			}
			got, err := ceci.Count(data, q, &ceci.Options{Limit: limit})
			if err != nil {
				t.Fatal(err)
			}
			if want := min(limit, mono); got != want {
				t.Fatalf("query %d limit %d: limited %d, want %d", i, limit, got, want)
			}
		}
	}
}
