package verify_test

import (
	"testing"

	"ceci/internal/gen"
	"ceci/internal/verify"
)

// Native Go fuzz target. Run locally with:
//
//	go test -run=^$ -fuzz=FuzzMatchDifferential -fuzztime=30s ./internal/verify
//
// The committed corpus lives under testdata/fuzz/<FuzzName>/; any crasher
// the fuzzer finds is written there by the Go toolchain, and CI uploads
// new entries as workflow artifacts. A failing input reduces to a bare
// PairParams tuple — replay and minimize it with `cecirun -verify`.

// FuzzMatchDifferential fuzzes the generator envelope: any (seed, shape)
// tuple becomes a clamped PairParams, and all eight engines — the limited
// CECI among them, so every input also grows a first-cluster index — must
// agree on the resulting pair's canonical embedding set.
func FuzzMatchDifferential(f *testing.F) {
	f.Add(int64(1), uint64(12), uint64(18), uint64(3), uint64(4))
	f.Add(int64(2), uint64(4), uint64(0), uint64(1), uint64(2))    // smallest envelope
	f.Add(int64(3), uint64(56), uint64(168), uint64(1), uint64(6)) // dense, unlabeled
	f.Add(int64(4), uint64(40), uint64(5), uint64(6), uint64(5))   // sparse, selective
	f.Add(int64(99), uint64(25), uint64(50), uint64(2), uint64(6))
	// A square and a house whose count-only runs count the last vertex
	// from a histogram (enum's searcher.eliminate): the square with z
	// at n-2, the house with z at n-3 and the last two a pair.
	f.Add(int64(621341722), uint64(17), uint64(10), uint64(4), uint64(4))
	f.Add(int64(580898621), uint64(45), uint64(9), uint64(1), uint64(5))
	f.Fuzz(func(t *testing.T, seed int64, nv, extra, labels, qv uint64) {
		p := gen.PairParams{
			DataVertices:  int(nv % 1024),
			ExtraEdges:    int(extra % 4096),
			Labels:        int(labels % 64),
			QueryVertices: int(qv % 64),
			Seed:          seed,
		}.Clamp()
		data, query := gen.BuildPair(p)
		rep := verify.CheckPair(data, query, verify.Options{Workers: 2, MaxEmbeddings: 100000})
		if rep.Skipped {
			t.Skip("embedding cap exceeded")
		}
		if !rep.OK() {
			t.Fatalf("differential failure for %+v:\n%s", p, rep)
		}
	})
}
