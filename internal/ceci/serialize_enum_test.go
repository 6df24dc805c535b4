package ceci_test

import (
	"bytes"
	"testing"

	"ceci/internal/ceci"
	"ceci/internal/enum"
	"ceci/internal/gen"
	"ceci/internal/order"
)

// TestSerializeLoadEnumerate proves the full round trip: build,
// serialize, load, and enumerate — the loaded index must occupy exactly
// the bytes of the original and produce exactly its embedding count.
func TestSerializeLoadEnumerate(t *testing.T) {
	for seed := int64(1); seed <= 15; seed++ {
		data, query := gen.RandomPair(seed)
		tree, err := order.Preprocess(data, query, order.Options{})
		if err != nil {
			t.Fatalf("seed %d: Preprocess: %v", seed, err)
		}
		ix := ceci.Build(data, tree, ceci.Options{})
		var buf bytes.Buffer
		if _, err := ix.WriteTo(&buf); err != nil {
			t.Fatalf("seed %d: WriteTo: %v", seed, err)
		}
		got, err := ceci.ReadIndex(&buf, data, tree)
		if err != nil {
			t.Fatalf("seed %d: ReadIndex: %v", seed, err)
		}
		if got.PhysicalBytes() != ix.PhysicalBytes() {
			t.Fatalf("seed %d: loaded index is %d bytes, built one %d", seed, got.PhysicalBytes(), ix.PhysicalBytes())
		}
		want := enum.NewMatcher(ix, enum.Options{Workers: 2}).Count()
		n := enum.NewMatcher(got, enum.Options{Workers: 2}).Count()
		if n != want {
			t.Fatalf("seed %d: loaded index enumerates %d embeddings, want %d", seed, n, want)
		}
	}
}
