package ceci_test

import (
	"bytes"
	"fmt"
	"hash/crc64"
	"math/rand"
	"os"
	"strings"
	"testing"

	"ceci/internal/ceci"
	"ceci/internal/gen"
	"ceci/internal/graph"
	"ceci/internal/order"
)

// goldenRows builds every golden pair (gen.ForEachGoldenPair) under five
// option sets and renders, per build, the crc64 of the serialized bytes
// and the four size/cardinality accessors. testdata/golden_index.tsv
// holds these rows as commit eefd9bf (the last with the mutable CandMap
// mode and Freeze) produced them, but for the PhysicalBytes column, which
// was rewritten three times: when map keys and values became positions
// (dense offsets, no key column), when a vertex with at most 2^16
// candidates got a two-byte arena, and when a cardinality column took the
// width its largest value needs. Any other index-layout change must
// reproduce the file bit for bit.
func goldenRows(t *testing.T) []string {
	t.Helper()
	var rows []string
	ecma := crc64.MakeTable(crc64.ECMA)
	add := func(name string, data, query *graph.Graph, seed int64) {
		tree, err := order.Preprocess(data, query, order.DefaultOptions())
		if err != nil {
			t.Fatalf("%s: Preprocess: %v", name, err)
		}
		// A shuffled half of the default build's pivots (non-nil even when
		// empty, so the build is pivot-restricted either way).
		pivots := append([]graph.VertexID{}, ceci.Build(data, tree, ceci.Options{}).Pivots()...)
		rand.New(rand.NewSource(seed)).Shuffle(len(pivots), func(i, j int) {
			pivots[i], pivots[j] = pivots[j], pivots[i]
		})
		pivots = pivots[:(len(pivots)+1)/2]
		for _, v := range []struct {
			name string
			opts ceci.Options
		}{
			{"default", ceci.Options{}},
			{"skip-nlc", ceci.Options{SkipNLCFilter: true}},
			{"skip-refine", ceci.Options{SkipRefinement: true}},
			{"two-rounds", ceci.Options{RefineRounds: 2}},
			{"pivots", ceci.Options{Pivots: pivots}},
		} {
			ix := ceci.Build(data, tree, v.opts)
			var buf bytes.Buffer
			if _, err := ix.WriteTo(&buf); err != nil {
				t.Fatalf("%s/%s: WriteTo: %v", name, v.name, err)
			}
			rows = append(rows, fmt.Sprintf("%s/%s\t%016x\t%d\t%d\t%d\t%d", name, v.name,
				crc64.Checksum(buf.Bytes(), ecma),
				ix.PhysicalBytes(), ix.CandidateEdges(), ix.UniqueCandidateEdges(), ix.TotalCardinality()))
		}
	}
	gen.ForEachGoldenPair(add)
	return rows
}

const goldenHeader = "build\tcrc64(WriteTo)\tPhysicalBytes\tCandidateEdges\tUniqueCandidateEdges\tTotalCardinality"

func TestGoldenIndexTable(t *testing.T) {
	raw, err := os.ReadFile("testdata/golden_index.tsv")
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	got := append([]string{goldenHeader}, goldenRows(t)...)
	if len(got) != len(want) {
		t.Fatalf("%d rows, golden table has %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("row %d:\n got %s\nwant %s", i, got[i], want[i])
		}
	}
}
