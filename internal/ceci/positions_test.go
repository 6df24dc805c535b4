package ceci_test

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"slices"
	"testing"

	"ceci/internal/ceci"
	"ceci/internal/gen"
	"ceci/internal/graph"
	"ceci/internal/order"
	"ceci/internal/setops"
)

// fileEntry is one key of a TE or NTE structure as CECIIDX1 stores it.
type fileEntry struct {
	key  graph.VertexID
	vals []graph.VertexID
}

// fileNode is one query vertex of a CECIIDX1 file: its candidates and its
// maps, maps[0] the TE and maps[1+j] NTE[j], every key and value an id.
type fileNode struct {
	cands []graph.VertexID
	maps  [][]fileEntry
}

// decodeIndexFile reads a CECIIDX1 file with nothing of the package: the
// header is skipped and the body read as the format comment lays it out.
func decodeIndexFile(t *testing.T, file []byte) []fileNode {
	t.Helper()
	r := bufio.NewReader(bytes.NewReader(file[16:]))
	next := func() uint64 {
		x, err := binary.ReadUvarint(r)
		if err != nil {
			t.Fatalf("decoding the file: %v", err)
		}
		return x
	}
	list := func() []graph.VertexID {
		out := make([]graph.VertexID, next())
		prev := uint64(0)
		for i := range out {
			prev += next()
			out[i] = graph.VertexID(prev)
		}
		return out
	}
	cmap := func() []fileEntry {
		out := make([]fileEntry, next())
		for i := range out {
			out[i].key = graph.VertexID(next())
			out[i].vals = list()
		}
		return out
	}
	nodes := make([]fileNode, next())
	for u := range nodes {
		nodes[u].cands = list()
		for range nodes[u].cands {
			next() // cardinality
		}
		nodes[u].maps = [][]fileEntry{cmap()}
		for j := next(); j > 0; j-- {
			nodes[u].maps = append(nodes[u].maps, cmap())
		}
	}
	if _, err := r.ReadByte(); err != io.EOF {
		t.Fatalf("bytes after the last node")
	}
	return nodes
}

// TestPositionsMatchIds: an index keeps positions, a file keeps ids, and
// the two must say the same thing. For every golden pair under the golden
// table's five option sets, for the index, the two views that split its
// pivots in half, and the index ReadIndex makes of its own file: every
// entry, read by position and expanded through Cands, is the id list the
// file holds under that key, no other key has one, and CandidatesFor along
// a walk of the matching order returns exactly the id-level intersection
// of the file's lists under the walk's assignments.
func TestPositionsMatchIds(t *testing.T) {
	var builds, calls int
	gen.ForEachGoldenPair(func(name string, data, query *graph.Graph, seed int64) {
		tree, err := order.Preprocess(data, query, order.DefaultOptions())
		if err != nil {
			t.Fatalf("%s: Preprocess: %v", name, err)
		}
		all := ceci.Build(data, tree, ceci.Options{}).Pivots()
		half := slices.Clone(all[:(len(all)+1)/2])
		for _, v := range []struct {
			name string
			opts ceci.Options
		}{
			{"default", ceci.Options{}},
			{"skip-nlc", ceci.Options{SkipNLCFilter: true}},
			{"skip-refine", ceci.Options{SkipRefinement: true}},
			{"two-rounds", ceci.Options{RefineRounds: 2}},
			{"pivots", ceci.Options{Pivots: half}},
		} {
			ix := ceci.Build(data, tree, v.opts)
			var buf bytes.Buffer
			if _, err := ix.WriteTo(&buf); err != nil {
				t.Fatalf("%s/%s: WriteTo: %v", name, v.name, err)
			}
			file := decodeIndexFile(t, buf.Bytes())
			loaded, err := ceci.ReadIndex(bytes.NewReader(buf.Bytes()), data, tree)
			if err != nil {
				t.Fatalf("%s/%s: ReadIndex: %v", name, v.name, err)
			}
			pivots := ix.Pivots()
			mid := len(pivots) / 2
			for _, c := range []struct {
				name string
				ix   *ceci.Index
			}{
				{"index", ix},
				{"low view", ix.Restrict(pivots[:mid])},
				{"high view", ix.Restrict(pivots[mid:])},
				{"read back", loaded},
			} {
				label := fmt.Sprintf("%s/%s %s", name, v.name, c.name)
				if err := c.ix.CheckColumns(); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				checkEntriesMatchFile(t, label, c.ix, file)
				calls += checkWalkMatchesFile(t, label, c.ix, file)
			}
			builds++
		}
	})
	t.Logf("%d builds, %d CandidatesFor calls checked against the file", builds, calls)
}

// checkEntriesMatchFile compares every map of ix, read by position and
// expanded through Cands, with the file's id lists, key for key.
func checkEntriesMatchFile(t *testing.T, label string, ix *ceci.Index, file []fileNode) {
	t.Helper()
	for u := range ix.Nodes {
		if !slices.Equal(ix.Nodes[u].Cands, file[u].cands) {
			t.Fatalf("%s: u%d candidates %v, file %v", label, u, ix.Nodes[u].Cands, file[u].cands)
		}
		for slot := ceci.TESlot; slot < len(ix.Nodes[u].NTE); slot++ {
			var got []fileEntry
			ix.ForEachID(graph.VertexID(u), slot, func(key graph.VertexID, vals []graph.VertexID) {
				got = append(got, fileEntry{key, vals})
			})
			want := file[u].maps[1+slot]
			if len(got) != len(want) {
				t.Fatalf("%s: u%d slot %d has %d entries, file %d", label, u, slot, len(got), len(want))
			}
			for i, e := range want {
				if got[i].key != e.key || !slices.Equal(got[i].vals, e.vals) {
					t.Fatalf("%s: u%d slot %d entry %d is %d→%v, file %d→%v", label, u, slot, i, got[i].key, got[i].vals, e.key, e.vals)
				}
				if at := ix.IDsAt(graph.VertexID(u), slot, e.key); !slices.Equal(at, e.vals) {
					t.Fatalf("%s: u%d slot %d under %d reads %v, file %v", label, u, slot, e.key, at, e.vals)
				}
			}
		}
	}
}

// walkBudget bounds the CandidatesFor calls one index's walk makes.
const walkBudget = 400

// checkWalkMatchesFile walks the matching order from each of ix's pivots,
// depth first, without injectivity, and at every step compares
// CandidatesFor — positions, through the same per-depth scratch an
// enumerator keeps — with the intersection of the file's id lists under
// the walk's assignments. It returns the number of calls compared.
func checkWalkMatchesFile(t *testing.T, label string, ix *ceci.Index, file []fileNode) int {
	t.Helper()
	tr := ix.Tree
	n := tr.NumVertices()
	lookup := func(u, slot int, key graph.VertexID) []graph.VertexID {
		m := file[u].maps[1+slot]
		if i, ok := slices.BinarySearchFunc(m, key, func(e fileEntry, k graph.VertexID) int { return int(e.key) - int(k) }); ok {
			return m[i].vals
		}
		return nil
	}
	emb, pos := make([]graph.VertexID, n), make([]uint32, n)
	scratch := make([]ceci.MatchScratch, n)
	calls := 0
	var walk func(depth int)
	walk = func(depth int) {
		if depth == n || calls >= walkBudget {
			return
		}
		u := tr.Order[depth]
		want := lookup(int(u), ceci.TESlot, emb[tr.Parent[u]])
		for j, un := range tr.NTEParents[u] {
			want = setops.Intersect(nil, want, lookup(int(u), j, emb[un]))
		}
		cands := ix.Nodes[u].Cands
		got := ix.CandidatesFor(u, pos, &scratch[depth])
		calls++
		ids := make([]graph.VertexID, len(got))
		for i, p := range got {
			ids[i] = cands[p]
		}
		if !slices.Equal(ids, want) {
			t.Fatalf("%s: CandidatesFor(u%d) under %v is %v, the file's lists intersect to %v", label, u, emb, ids, want)
		}
		for _, p := range slices.Clone(got) {
			emb[u], pos[u] = cands[p], p
			walk(depth + 1)
		}
	}
	root := tr.Order[0]
	for i, v := range ix.Pivots() {
		emb[root], pos[root] = v, ix.PivotPos(i)
		walk(1)
	}
	return calls
}
