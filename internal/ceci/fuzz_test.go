package ceci_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"ceci/internal/ceci"
	"ceci/internal/enum"
	"ceci/internal/gen"
	"ceci/internal/graph"
	"ceci/internal/order"
)

// indexPair is a (data, tree) pair index files are read against.
type indexPair struct {
	name string
	data *graph.Graph
	tree *order.QueryTree
}

// indexPairs are the pairs testdata/parent_index holds a file for, each
// written by commit eefd9bf — the last to build through the mutable
// CandMap mode and Freeze — with default options.
func indexPairs(t testing.TB) []indexPair {
	t.Helper()
	pairs := []indexPair{{name: "fig1", data: gen.Fig1Data()}}
	queries := []*graph.Graph{gen.Fig1Query()}
	for _, seed := range []int64{1, 2, 3, 7} {
		data, query := gen.RandomPair(seed)
		pairs = append(pairs, indexPair{name: fmt.Sprintf("seed%d", seed), data: data})
		queries = append(queries, query)
	}
	for i := range pairs {
		tree, err := order.Preprocess(pairs[i].data, queries[i], order.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		pairs[i].tree = tree
	}
	return pairs
}

// TestReadIndexParentCommitFiles: an index the parent commit wrote loads,
// is what this commit builds and writes for the same pair byte for byte,
// holds every invariant, and enumerates what a fresh build does.
func TestReadIndexParentCommitFiles(t *testing.T) {
	for _, p := range indexPairs(t) {
		file, err := os.ReadFile(filepath.Join("testdata", "parent_index", p.name+".idx"))
		if err != nil {
			t.Fatal(err)
		}
		loaded, err := ceci.ReadIndex(bytes.NewReader(file), p.data, p.tree)
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		built := ceci.Build(p.data, p.tree, ceci.Options{})
		for _, ix := range []*ceci.Index{loaded, built} {
			var buf bytes.Buffer
			if _, err := ix.WriteTo(&buf); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), file) {
				t.Fatalf("%s: serialization differs from the parent commit's file", p.name)
			}
		}
		if !checkInvariants(t, loaded, p.tree, p.data) {
			t.Fatalf("%s: loaded index breaks an invariant", p.name)
		}
		if loaded.PhysicalBytes() != built.PhysicalBytes() {
			t.Fatalf("%s: loaded index occupies %d bytes, built one %d", p.name, loaded.PhysicalBytes(), built.PhysicalBytes())
		}
		got := enum.NewMatcher(loaded, enum.Options{Workers: 1}).Count()
		if want := enum.NewMatcher(built, enum.Options{Workers: 1}).Count(); got != want {
			t.Fatalf("%s: loaded index enumerates %d embeddings, built one %d", p.name, got, want)
		}
	}
}

// FuzzReadIndex feeds arbitrary bytes to the index loader against one of
// indexPairs (sel picks it). Whatever the bytes, ReadIndex returns an
// error or an index that is structurally sound and enumerates without
// panicking, and it allocates no more than a small multiple of the input
// length plus |V| per section of the file — never what a length field
// inside the input asks for; every cardinality it reads back lies in
// [1, CardSaturation]. The committed corpus
// (testdata/fuzz/FuzzReadIndex) holds the parent commit's files and
// truncations, bit flips and hostile lengths made from them.
func FuzzReadIndex(f *testing.F) {
	pairs := indexPairs(f)
	for i, p := range pairs {
		var buf bytes.Buffer
		if _, err := ceci.Build(p.data, p.tree, ceci.Options{}).WriteTo(&buf); err != nil {
			f.Fatal(err)
		}
		file := buf.Bytes()
		f.Add(uint8(i), file)
		f.Add(uint8(i), file[:len(file)/2])
		flipped := bytes.Clone(file)
		flipped[len(flipped)*3/4] ^= 0x10
		f.Add(uint8(i), flipped)
		// A valid header, then a list length of 2^32-1.
		f.Add(uint8(i), binary.AppendUvarint(bytes.Clone(file[:17]), math.MaxUint32))
	}
	// A cardinality on either side of each width boundary of a column, and
	// the largest value a file may hold.
	var buf bytes.Buffer
	if _, err := ceci.Build(pairs[0].data, pairs[0].tree, ceci.Options{}).WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	for _, c := range []uint64{1<<16 - 1, 1 << 16, 1<<32 - 1, 1 << 32, ceci.CardSaturation} {
		f.Add(uint8(0), withFirstCard(buf.Bytes(), c))
	}
	f.Fuzz(func(t *testing.T, sel uint8, blob []byte) {
		p := pairs[int(sel)%len(pairs)]
		sections := 0 // candidate columns, TE and NTE maps
		for u := range p.tree.NTEParents {
			sections += 2 + len(p.tree.NTEParents[u])
		}
		budget := uint64(64<<10 + 64*len(blob) + 64*p.data.NumVertices()*sections)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		ix, err := ceci.ReadIndex(bytes.NewReader(blob), p.data, p.tree)
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got > budget {
			t.Fatalf("reading %d bytes against %s allocated %d bytes, budget %d", len(blob), p.name, got, budget)
		}
		if err != nil {
			return
		}
		if !checkStructure(t, ix, p.tree) {
			t.Fatalf("ReadIndex accepted a structurally unsound index for %s", p.name)
		}
		for u := range ix.Nodes {
			for i := range ix.Nodes[u].Cands {
				if c := ix.Nodes[u].CardAt(uint32(i)); c < 1 || c > ceci.CardSaturation {
					t.Fatalf("ReadIndex accepted %s with u%d's cardinality %d at %d", p.name, u, c, i)
				}
			}
		}
		enum.NewMatcher(ix, enum.Options{Workers: 1, Limit: 1 << 16}).Count()
	})
}

// withFirstCard returns a copy of an index file with the first
// cardinality of its first node (which must have a candidate) replaced by
// c, patched in the bytes so that no writer chooses how it is stored.
func withFirstCard(file []byte, c uint64) []byte {
	at := 16 // magic, fingerprint
	next := func() uint64 {
		v, n := binary.Uvarint(file[at:])
		at += n
		return v
	}
	next() // the node count
	for range next() {
		next() // the first node's candidates
	}
	start := at
	next()
	return append(binary.AppendUvarint(bytes.Clone(file[:start]), c), file[at:]...)
}
