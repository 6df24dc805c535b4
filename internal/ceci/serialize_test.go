package ceci_test

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"ceci/internal/ceci"
	"ceci/internal/gen"
	"ceci/internal/graph"
	"ceci/internal/order"
)

func TestIndexRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 20; trial++ {
		data := randomGraph(rng, 20, 60, 3)
		query, err := gen.DFSQuery(data, 3+rng.Intn(3), rng)
		if err != nil {
			continue
		}
		tree, err := order.Preprocess(data, query, order.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		ix := ceci.Build(data, tree, ceci.Options{})

		var buf bytes.Buffer
		n, err := ix.WriteTo(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if n != int64(buf.Len()) {
			t.Fatalf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
		}
		got, err := ceci.ReadIndex(&buf, data, tree)
		if err != nil {
			t.Fatal(err)
		}
		assertSameIndex(t, ix, got, tree)
	}
}

func assertSameIndex(t *testing.T, a, b *ceci.Index, tree *order.QueryTree) {
	t.Helper()
	if a.CandidateEdges() != b.CandidateEdges() {
		t.Fatalf("candidate edges differ: %d vs %d", a.CandidateEdges(), b.CandidateEdges())
	}
	for u := range a.Nodes {
		na, nb := &a.Nodes[u], &b.Nodes[u]
		if !eqIDs(na.Cands, nb.Cands) {
			t.Fatalf("node %d cands differ", u)
		}
		for p := range na.Cands {
			if na.CardAt(uint32(p)) != nb.CardAt(uint32(p)) {
				t.Fatalf("node %d card[%d] differs: %d vs %d", u, na.Cands[p], na.CardAt(uint32(p)), nb.CardAt(uint32(p)))
			}
		}
		if na.TE.Len() != nb.TE.Len() {
			t.Fatalf("node %d: %d TE entries, %d read back", u, na.TE.Len(), nb.TE.Len())
		}
		for slot := ceci.TESlot; slot < len(na.NTE); slot++ {
			a.ForEachID(graph.VertexID(u), slot, func(key graph.VertexID, vals []graph.VertexID) {
				if got := b.IDsAt(graph.VertexID(u), slot, key); got == nil || !eqIDs(vals, got) {
					t.Fatalf("node %d slot %d [%d] differs", u, slot, key)
				}
			})
		}
	}
}

func TestIndexFingerprintMismatch(t *testing.T) {
	data, query := gen.Fig1Data(), gen.Fig1Query()
	tree, err := order.Preprocess(data, query, order.Options{ForcedRoot: 0})
	if err != nil {
		t.Fatal(err)
	}
	ix := ceci.Build(data, tree, ceci.Options{})
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	// Loading against a different root (hence different tree) must fail.
	otherTree, err := order.Preprocess(data, query, order.Options{ForcedRoot: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ceci.ReadIndex(bytes.NewReader(buf.Bytes()), data, otherTree); err == nil {
		t.Fatal("mismatched tree accepted")
	}
	// And against a different data graph.
	other := gen.QG5()
	if _, err := ceci.ReadIndex(bytes.NewReader(buf.Bytes()), other, tree); err == nil {
		t.Fatal("mismatched data graph accepted")
	}
}

func TestIndexRejectsGarbage(t *testing.T) {
	data, query := gen.Fig1Data(), gen.Fig1Query()
	tree, _ := order.Preprocess(data, query, order.Options{ForcedRoot: 0})
	if _, err := ceci.ReadIndex(strings.NewReader("definitely not an index"), data, tree); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := ceci.ReadIndex(strings.NewReader(""), data, tree); err == nil {
		t.Fatal("empty input accepted")
	}
}
