package ceci_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"ceci/internal/ceci"
	"ceci/internal/gen"
	"ceci/internal/graph"
	"ceci/internal/order"
	"ceci/internal/setops"
)

// dumpEntry is one key of a TE or NTE structure as Index.Dump lists it.
type dumpEntry struct {
	key  graph.VertexID
	vals []graph.VertexID
}

// dumpNode is one query vertex of a dump: its candidates, their
// cardinalities and its maps, maps[0] the TE and maps[1+j] NTE[j], every
// key and value an id.
type dumpNode struct {
	cands []graph.VertexID
	cards []uint64
	maps  [][]dumpEntry
}

// decodeDump reads ix.Dump() with nothing of the package but the tree's
// NTE counts, as Dump's comment lays the list out.
func decodeDump(t *testing.T, ix *ceci.Index) []dumpNode {
	t.Helper()
	dump := ix.Dump()
	next := func() uint64 {
		if len(dump) == 0 {
			t.Fatal("the dump ends early")
		}
		x := dump[0]
		dump = dump[1:]
		return x
	}
	list := func() []graph.VertexID {
		out := make([]graph.VertexID, next())
		for i := range out {
			out[i] = graph.VertexID(next())
		}
		return out
	}
	cmap := func() []dumpEntry {
		out := make([]dumpEntry, next())
		for i := range out {
			out[i].key = graph.VertexID(next())
			out[i].vals = list()
		}
		return out
	}
	nodes := make([]dumpNode, len(ix.Nodes))
	for u := range nodes {
		nodes[u].cands = list()
		for range nodes[u].cands {
			nodes[u].cards = append(nodes[u].cards, next())
		}
		nodes[u].maps = [][]dumpEntry{cmap()}
		for range ix.Tree.NTEParents[u] {
			nodes[u].maps = append(nodes[u].maps, cmap())
		}
	}
	if len(dump) > 0 {
		t.Fatalf("%d values after the last node", len(dump))
	}
	return nodes
}

// TestIndexRoundTrip: the dump is an index's identity, so it must carry
// all of it. Over random pairs, the dump read back holds what the index's
// own accessors report: the candidates and their cardinalities (CardAt),
// every TE and NTE entry (ForEachID, IDsAt), and as many values as the
// index has candidate edges.
func TestIndexRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	checked := 0
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
		dump := decodeDump(t, ix)
		label := fmt.Sprintf("trial %d", trial)
		checkEntriesMatchDump(t, label, ix, dump)
		var edges int64
		for u := range ix.Nodes {
			for p, c := range dump[u].cards {
				if got := ix.Nodes[u].CardAt(uint32(p)); uint64(got) != c {
					t.Fatalf("%s: u%d card[%d] is %d, dump %d", label, u, p, got, c)
				}
			}
			for _, m := range dump[u].maps {
				for _, e := range m {
					edges += int64(len(e.vals))
				}
			}
		}
		if edges != ix.CandidateEdges() {
			t.Fatalf("%s: the dump lists %d candidate edges, the index has %d", label, edges, ix.CandidateEdges())
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no trial found a query region")
	}
	t.Logf("%d pairs checked", checked)
}

// TestPositionsMatchIds: an index keeps positions, its dump ids, and the
// two must say the same thing. For every golden pair under the golden
// table's four option sets, for the index and the two views that split
// its pivots in half: every entry, read by position and expanded through
// Cands, is the id list the dump holds under that key, no other key has
// one, and CandidatesFor along a walk of the matching order returns
// exactly the id-level intersection of the dump's lists under the walk's
// assignments.
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
			{"pivots", ceci.Options{Pivots: half}},
		} {
			ix := ceci.Build(data, tree, v.opts)
			dump := decodeDump(t, ix)
			pivots := ix.Pivots()
			mid := len(pivots) / 2
			for _, c := range []struct {
				name string
				ix   *ceci.Index
			}{
				{"index", ix},
				{"low view", ix.Restrict(pivots[:mid])},
				{"high view", ix.Restrict(pivots[mid:])},
			} {
				label := fmt.Sprintf("%s/%s %s", name, v.name, c.name)
				if err := c.ix.CheckColumns(); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				checkEntriesMatchDump(t, label, c.ix, dump)
				calls += checkWalkMatchesDump(t, label, c.ix, dump)
			}
			builds++
		}
	})
	t.Logf("%d builds, %d CandidatesFor calls checked against the dump", builds, calls)
}

// checkEntriesMatchDump compares every map of ix, read by position and
// expanded through Cands, with the dump's id lists, key for key.
func checkEntriesMatchDump(t *testing.T, label string, ix *ceci.Index, dump []dumpNode) {
	t.Helper()
	for u := range ix.Nodes {
		if !slices.Equal(ix.Nodes[u].Cands, dump[u].cands) {
			t.Fatalf("%s: u%d candidates %v, dump %v", label, u, ix.Nodes[u].Cands, dump[u].cands)
		}
		for slot := ceci.TESlot; slot < len(ix.Nodes[u].NTE); slot++ {
			var got []dumpEntry
			ix.ForEachID(graph.VertexID(u), slot, func(key graph.VertexID, vals []graph.VertexID) {
				got = append(got, dumpEntry{key, vals})
			})
			want := dump[u].maps[1+slot]
			if len(got) != len(want) {
				t.Fatalf("%s: u%d slot %d has %d entries, dump %d", label, u, slot, len(got), len(want))
			}
			for i, e := range want {
				if got[i].key != e.key || !slices.Equal(got[i].vals, e.vals) {
					t.Fatalf("%s: u%d slot %d entry %d is %d→%v, dump %d→%v", label, u, slot, i, got[i].key, got[i].vals, e.key, e.vals)
				}
				if at := ix.IDsAt(graph.VertexID(u), slot, e.key); !slices.Equal(at, e.vals) {
					t.Fatalf("%s: u%d slot %d under %d reads %v, dump %v", label, u, slot, e.key, at, e.vals)
				}
			}
		}
	}
}

// walkBudget bounds the CandidatesFor calls one index's walk makes.
const walkBudget = 400

// checkWalkMatchesDump walks the matching order from each of ix's pivots,
// depth first, without injectivity, and at every step compares
// CandidatesFor — positions, through the same per-depth scratch an
// enumerator keeps — with the intersection of the dump's id lists under
// the walk's assignments. It returns the number of calls compared.
func checkWalkMatchesDump(t *testing.T, label string, ix *ceci.Index, dump []dumpNode) int {
	t.Helper()
	tr := ix.Tree
	n := tr.NumVertices()
	lookup := func(u, slot int, key graph.VertexID) []graph.VertexID {
		m := dump[u].maps[1+slot]
		if i, ok := slices.BinarySearchFunc(m, key, func(e dumpEntry, k graph.VertexID) int { return int(e.key) - int(k) }); ok {
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
			t.Fatalf("%s: CandidatesFor(u%d) under %v is %v, the dump's lists intersect to %v", label, u, emb, ids, want)
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
