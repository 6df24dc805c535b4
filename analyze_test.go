package ceci_test

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"ceci"
	"ceci/internal/gen"
)

func TestExplainAnalyze(t *testing.T) {
	data, query := gen.Fig1Data(), gen.Fig1Query()
	rep, err := ceci.ExplainAnalyze(data, query, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Embeddings != 2 {
		t.Fatalf("embeddings = %d, want 2", rep.Embeddings)
	}
	if rep.BuildTime <= 0 || rep.EnumTime <= 0 {
		t.Fatalf("timings = %v/%v", rep.BuildTime, rep.EnumTime)
	}
	if len(rep.Profile.Vertices) != query.NumVertices() {
		t.Fatalf("vertices = %d, want %d", len(rep.Profile.Vertices), query.NumVertices())
	}

	// The funnel accounts: something was scanned, and every vertex's
	// final candidate count survived the drops.
	var scanned, final int64
	roots := 0
	positions := map[int]bool{}
	for _, v := range rep.Profile.Vertices {
		scanned += v.NeighborsScanned
		final += v.FinalCands
		if v.Parent < 0 {
			roots++
		}
		positions[v.OrderPos] = true
	}
	if final == 0 {
		t.Fatal("no final candidates recorded")
	}
	if scanned == 0 {
		t.Fatal("no neighbors scanned recorded")
	}
	if roots != 1 {
		t.Fatalf("roots = %d, want exactly 1", roots)
	}
	if len(positions) != query.NumVertices() {
		t.Fatalf("order positions not distinct: %v", positions)
	}
	if rep.Profile.Clusters.Pivots.Count == 0 {
		t.Fatal("no cluster distribution")
	}
	if len(rep.Profile.Phases) == 0 {
		t.Fatal("no phases recorded")
	}
	if len(rep.Profile.Workers) == 0 {
		t.Fatal("no worker profiles")
	}

	// The text report includes every advertised section.
	text := rep.Text()
	for _, want := range []string{
		"matching order", "filter funnel", "index shape",
		"cluster cardinality distribution", "workers", "phases",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("report missing %q:\n%s", want, text)
		}
	}
}

// TestExplainAnalyzeJSONRoundTrip is the -profile-json contract: the
// report marshals to valid JSON and unmarshals back to the same value.
func TestExplainAnalyzeJSONRoundTrip(t *testing.T) {
	rep, err := ceci.ExplainAnalyze(gen.Fig1Data(), gen.Fig1Query(), &ceci.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	b, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var back ceci.Report
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if !reflect.DeepEqual(*rep, back) {
		t.Fatalf("round trip mismatch:\n%+v\nvs\n%+v", *rep, back)
	}
	// Spot-check machine-readable fields survived.
	if back.Embeddings != rep.Embeddings || len(back.Profile.Vertices) != len(rep.Profile.Vertices) {
		t.Fatal("fields lost in round trip")
	}
}

// TestExplainAnalyzeDeterministic: for a fixed seed the canonical
// profile (timings stripped) is identical run to run, even with 8
// workers racing over the clusters.
func TestExplainAnalyzeDeterministic(t *testing.T) {
	data, query := gen.RandomPair(42)
	opts := &ceci.Options{Workers: 8}
	r1, err := ceci.ExplainAnalyze(data, query, opts)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := ceci.ExplainAnalyze(data, query, opts)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Embeddings != r2.Embeddings {
		t.Fatalf("embeddings %d vs %d across runs", r1.Embeddings, r2.Embeddings)
	}
	c1, c2 := r1.Profile.Canonical(), r2.Profile.Canonical()
	if !reflect.DeepEqual(c1, c2) {
		t.Fatalf("canonical profiles differ:\n%+v\nvs\n%+v", c1, c2)
	}
}

// TestExplainAnalyzePlanner: with the cost-based planner on, the report
// carries the planner section — chosen order, every candidate's
// estimate, and the estimated-versus-observed per-depth funnel — and the
// answer matches the planner-off run.
func TestExplainAnalyzePlanner(t *testing.T) {
	data, query := gen.RandomPair(42)
	base, err := ceci.Count(data, query, nil)
	if err != nil {
		t.Fatal(err)
	}
	led := ceci.NewLedger()
	rep, err := ceci.ExplainAnalyze(data, query, &ceci.Options{Planner: true, Ledger: led})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Embeddings != base {
		t.Fatalf("planner changed the answer: %d vs %d", rep.Embeddings, base)
	}
	pp := rep.Profile.Planner
	if pp == nil {
		t.Fatal("no planner profile")
	}
	if pp.Chosen == "" || pp.Estimate <= 0 {
		t.Fatalf("planner profile incomplete: %+v", pp)
	}
	if len(pp.Candidates) < 2 {
		t.Fatalf("want >=2 candidate orders, got %d", len(pp.Candidates))
	}
	chosen := 0
	for _, c := range pp.Candidates {
		if c.Chosen {
			chosen++
			if c.Estimate != pp.Estimate {
				t.Fatalf("chosen candidate estimate %g != %g", c.Estimate, pp.Estimate)
			}
		}
		if c.Estimate < pp.Estimate {
			t.Fatalf("candidate %s (%g) cheaper than chosen (%g)", c.Name, c.Estimate, pp.Estimate)
		}
	}
	if chosen != 1 {
		t.Fatalf("chosen marked on %d candidates, want 1", chosen)
	}
	if len(pp.Depths) != query.NumVertices() {
		t.Fatalf("depth rows = %d, want %d", len(pp.Depths), query.NumVertices())
	}
	var obs int64
	for pos, d := range pp.Depths {
		obs += d.ObsCalls
		// The observed side is the run's ledger, position by position.
		if w := led.Positions()[pos]; d.ObsCalls != w.Lookups || w.Lookups > 0 && d.ObsOut != float64(w.Output)/float64(w.Lookups) {
			t.Fatalf("depth %d: planner profile observed %d calls, %g out; ledger %+v", pos, d.ObsCalls, d.ObsOut, w.StepCounts)
		}
	}
	if base > 0 && obs == 0 {
		t.Fatal("no observed per-depth lookups recorded")
	}
	if base > 0 && pp.Observed <= 0 {
		t.Fatal("no observed (recosted) estimate")
	}
	if want := "auto:" + pp.Chosen; rep.Profile.Order != want {
		t.Fatalf("profile order = %q, want %q", rep.Profile.Order, want)
	}
	if len(rep.Profile.MatchingOrder) != query.NumVertices() {
		t.Fatalf("matching order = %v", rep.Profile.MatchingOrder)
	}
	for _, want := range []string{"== planner ==", "matching order (auto:", "order source: planner"} {
		if !strings.Contains(rep.Text(), want) {
			t.Fatalf("report missing %q", want)
		}
	}
}

// TestExplainAnalyzeOrderRecorded: even without the planner, the report
// names the heuristic and its order.
func TestExplainAnalyzeOrderRecorded(t *testing.T) {
	rep, err := ceci.ExplainAnalyze(gen.Fig1Data(), gen.Fig1Query(),
		&ceci.Options{Order: ceci.OrderLeastFrequent})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Profile.Order != "least-frequent" {
		t.Fatalf("order = %q", rep.Profile.Order)
	}
	if rep.Profile.Planner != nil {
		t.Fatal("planner profile present without Planner option")
	}
	if !strings.Contains(rep.Text(), "matching order (least-frequent):") {
		t.Fatal("text report missing order line")
	}
}

// TestExplainAnalyzeWithLimit: a first-k run still produces a coherent
// profile covering only the work performed — under a limit the first
// cluster fills (one build, then the rest for the report's index) and one
// that makes the enumeration grow the index. Either way the report
// describes the complete index the matcher holds, and the profile's index
// shape is that index's, not the sum of the two builds': the root's final
// candidates are its pivots, the TE and NTE candidates its candidate
// edges, the flat bytes its physical bytes.
func TestExplainAnalyzeWithLimit(t *testing.T) {
	data, query := gen.RandomPair(42)
	total, err := ceci.Count(data, query, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		limit int64
	}{{"first-cluster", 1}, {"growth", total + 1}} {
		t.Run(tc.name, func(t *testing.T) {
			rep, err := ceci.ExplainAnalyze(data, query, &ceci.Options{Limit: tc.limit})
			if err != nil {
				t.Fatal(err)
			}
			if want := min(tc.limit, total); rep.Embeddings != want {
				t.Fatalf("embeddings %d, want %d", rep.Embeddings, want)
			}
			var pivots, edges, flat int64
			for _, v := range rep.Profile.Vertices {
				if v.Parent < 0 {
					pivots = v.FinalCands
				}
				edges += v.TECandidates
				for _, n := range v.NTE {
					edges += n.Candidates
				}
				flat += v.FlatBytes
			}
			if info := rep.Index; pivots != int64(info.Pivots) || edges != info.CandidateEdges || flat != info.PhysicalBytes {
				t.Fatalf("profile shape: %d pivots, %d candidate edges, %d flat bytes; index %+v", pivots, edges, flat, info)
			}
		})
	}
}
