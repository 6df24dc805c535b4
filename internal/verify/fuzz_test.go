package verify_test

import (
	"bytes"
	"testing"

	ceci "ceci"
	"ceci/internal/gen"
	"ceci/internal/verify"
)

// Native Go fuzz targets. Run locally with:
//
//	go test -run=^$ -fuzz=FuzzMatchDifferential -fuzztime=30s ./internal/verify
//	go test -run=^$ -fuzz=FuzzIndexRoundTrip    -fuzztime=30s ./internal/verify
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

// FuzzIndexRoundTrip fuzzes index persistence two ways: a legitimate
// save/load round-trip must reproduce the exact embedding count, and
// feeding arbitrary bytes to the index loader must fail cleanly (error,
// never panic or a silently wrong matcher).
func FuzzIndexRoundTrip(f *testing.F) {
	f.Add(int64(1), []byte{})
	f.Add(int64(7), []byte("CECIIDX1garbage"))
	f.Add(int64(21), []byte{0xff, 0x00, 0x41, 0x99})
	f.Fuzz(func(t *testing.T, seed int64, blob []byte) {
		data, query := gen.RandomPair(seed)
		m, err := ceci.Match(data, query, &ceci.Options{Workers: 2})
		if err != nil {
			t.Fatalf("Match: %v", err)
		}
		want := m.Count()

		var buf bytes.Buffer
		if err := m.SaveIndex(&buf); err != nil {
			t.Fatalf("SaveIndex: %v", err)
		}
		m2, err := ceci.MatchWithIndex(data, query, bytes.NewReader(buf.Bytes()), &ceci.Options{Workers: 2})
		if err != nil {
			t.Fatalf("MatchWithIndex on own serialization: %v", err)
		}
		if got := m2.Count(); got != want {
			t.Fatalf("round-trip count = %d, want %d", got, want)
		}

		// Arbitrary bytes: must error out, not panic. (A fuzzer forging a
		// valid index for this exact pair would have to forge its CRC-64
		// fingerprint too, in which case equal counts are required anyway.)
		if m3, err := ceci.MatchWithIndex(data, query, bytes.NewReader(blob), &ceci.Options{Workers: 1}); err == nil {
			if got := m3.Count(); got != want {
				t.Fatalf("forged index accepted with wrong count %d (want %d)", got, want)
			}
		}
	})
}
