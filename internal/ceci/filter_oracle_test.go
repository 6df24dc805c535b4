package ceci

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"maps"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"weak"

	"ceci/internal/gen"
	"ceci/internal/graph"
	"ceci/internal/order"
	"ceci/internal/prof"
	"ceci/internal/stats"
)

// The oracle: index construction the slow, obvious way, sharing nothing
// with the builder. The label / degree / NLC filters are evaluated per
// candidate edge against a materialized signature, candidate unions are
// gather-sort-dedupe, TE and NTE structures are Go maps of slices,
// cardinalities a hash map, cascade deletion one value at a time and a
// walk over every entry for each, and the file format is written by hand —
// so every verdict-table read, the NLC-from-runs identity, the bitmap
// union, the column layout, the set-at-a-time cascade, in-place
// compaction, the cardinality key walk and WriteTo are all on the other
// side of the comparison.

// refVerdict reports the first stage that drops v for u, in the builder's
// stage order; v already carries u's primary label.
func refVerdict(data, q *graph.Graph, u, v graph.VertexID, skipNLC bool) order.Verdict {
	for _, l := range q.Labels(u)[1:] {
		if !data.HasLabel(v, l) {
			return order.DropLabel
		}
	}
	if data.Degree(v) < q.Degree(u) {
		return order.DropDegree
	}
	if !skipNLC && !graph.NLCOf(data, v).Covers(graph.NLCOf(q, u)) {
		return order.DropNLC
	}
	return order.Pass
}

func refCandidates(data, q *graph.Graph, u graph.VertexID) []graph.VertexID {
	var out []graph.VertexID
	for _, v := range data.VerticesWithLabel(q.Label(u)) {
		if refVerdict(data, q, u, v, false) == order.Pass {
			out = append(out, v)
		}
	}
	return out
}

// refMap is a TE or NTE structure: key -> sorted values. A key whose list
// has emptied stays until something deletes the key itself.
type refMap map[graph.VertexID][]graph.VertexID

func (m refMap) sortedKeys() []graph.VertexID { return slices.Sorted(maps.Keys(m)) }

func (m refMap) union() []graph.VertexID {
	var all []graph.VertexID
	for _, vals := range m {
		all = append(all, vals...)
	}
	slices.Sort(all)
	return slices.Compact(all)
}

func (m refMap) edges() (n int64) {
	for _, vals := range m {
		n += int64(len(vals))
	}
	return n
}

// flatBytes is the map's footprint in the index layout when its key
// vertex has keySpace candidates and its own vertex valueSpace: values
// take two bytes when valueSpace is at most 2^16, four otherwise.
func (m refMap) flatBytes(keySpace, valueSpace int) int64 {
	bare := 0
	for _, vals := range m {
		if len(vals) == 0 {
			bare++
		}
	}
	width := int64(4)
	if valueSpace <= 1<<16 {
		width = 2
	}
	return 4*int64(keySpace+1+bare) + width*m.edges()
}

// deleteValue removes v from every list and returns, in key order, the
// keys it emptied.
func (m refMap) deleteValue(v graph.VertexID) (emptied []graph.VertexID) {
	for _, key := range m.sortedKeys() {
		if i, found := slices.BinarySearch(m[key], v); found {
			m[key] = slices.Delete(m[key], i, i+1)
			if len(m[key]) == 0 {
				emptied = append(emptied, key)
			}
		}
	}
	return emptied
}

type refNode struct {
	te    refMap
	nte   []refMap
	cands []graph.VertexID
	card  map[graph.VertexID]int64
}

type refIndex struct {
	data  *graph.Graph
	tree  *order.QueryTree
	opts  Options
	nodes []refNode
}

// filterNeighbors is the per-edge filter loop, funnel counters included.
func (r *refIndex) filterNeighbors(vf, u graph.VertexID) []graph.VertexID {
	q, data := r.tree.Query, r.data
	var out []graph.VertexID
	var dropLabel, dropDegree, dropNLC int64
	for _, v := range data.Neighbors(vf) {
		if !data.HasLabel(v, q.Label(u)) {
			dropLabel++
			continue
		}
		switch refVerdict(data, q, u, v, r.opts.SkipNLCFilter) {
		case order.DropLabel:
			dropLabel++
		case order.DropDegree:
			dropDegree++
		case order.DropNLC:
			dropNLC++
		default:
			out = append(out, v)
		}
	}
	if st := r.opts.Stats; st != nil {
		st.RemoteReads.Add(1)
		st.FilteredLabel.Add(dropLabel)
		st.FilteredDegree.Add(dropDegree)
		st.FilteredNLC.Add(dropNLC)
	}
	if p := r.opts.Profile; p != nil {
		vc := p.Vertex(int(u))
		vc.NeighborsScanned.Add(int64(data.Degree(vf)))
		vc.DroppedLabel.Add(dropLabel)
		vc.DroppedDegree.Add(dropDegree)
		vc.DroppedNLC.Add(dropNLC)
	}
	return out
}

// remove is cascade deletion (Algorithm 1 lines 9-12, Algorithm 2).
func (r *refIndex) remove(u, v graph.VertexID) {
	node := &r.nodes[u]
	i, found := slices.BinarySearch(node.cands, v)
	if !found {
		return
	}
	node.cands = slices.Delete(node.cands, i, i+1)
	delete(node.card, v)
	if p := r.opts.Profile; p != nil {
		p.Vertex(int(u)).AddRemoved(1)
	}
	emptied := node.te.deleteValue(v)
	for _, m := range node.nte {
		m.deleteValue(v)
	}
	for w := range r.nodes {
		if r.tree.Parent[w] == int32(u) {
			delete(r.nodes[w].te, v)
		}
		for j, un := range r.tree.NTEParents[w] {
			if un == u {
				delete(r.nodes[w].nte[j], v)
			}
		}
	}
	if up := r.tree.Parent[u]; up != order.NoParent {
		for _, key := range emptied {
			delete(node.te, key)
			r.remove(graph.VertexID(up), key)
		}
	}
}

func (r *refIndex) cardinality(u, v graph.VertexID, nteUnions [][]graph.VertexID) int64 {
	for _, union := range nteUnions {
		if !slices.Contains(union, v) {
			return 0
		}
	}
	card := int64(1)
	for _, uc := range r.tree.Children[u] {
		var sum int64
		for _, vc := range r.nodes[uc].te[v] {
			sum = satAdd(sum, r.nodes[uc].card[vc])
		}
		card = satMul(card, sum)
	}
	return card
}

func referenceBuild(data *graph.Graph, tree *order.QueryTree, opts Options) *refIndex {
	if opts.RefineRounds <= 0 {
		opts.RefineRounds = 1
	}
	r := &refIndex{data: data, tree: tree, opts: opts, nodes: make([]refNode, tree.NumVertices())}
	for u := range r.nodes {
		r.nodes[u].te = refMap{}
		r.nodes[u].nte = make([]refMap, len(tree.NTEParents[u]))
		for j := range r.nodes[u].nte {
			r.nodes[u].nte[j] = refMap{}
		}
	}
	if p := opts.Profile; p != nil {
		p.InitQuery(tree.NumVertices(), func(u int) []int {
			var parents []int
			for _, un := range tree.NTEParents[u] {
				parents = append(parents, int(un))
			}
			return parents
		})
	}
	if opts.Pivots != nil {
		pivots := slices.Clone(opts.Pivots)
		slices.Sort(pivots)
		r.nodes[tree.Root].cands = slices.Compact(pivots)
	} else {
		r.nodes[tree.Root].cands = refCandidates(data, tree.Query, tree.Root)
	}
	for _, u := range tree.Order[1:] {
		up := graph.VertexID(tree.Parent[u])
		node := &r.nodes[u]
		var dead []graph.VertexID
		for _, vf := range r.nodes[up].cands {
			vals := r.filterNeighbors(vf, u)
			if len(vals) == 0 {
				dead = append(dead, vf)
				if opts.Stats != nil {
					opts.Stats.FilteredCascade.Add(1)
				}
				continue
			}
			node.te[vf] = vals
		}
		node.cands = node.te.union()
		for _, vf := range dead {
			r.remove(up, vf)
		}
		uLabel := tree.Query.Label(u)
		for j, un := range tree.NTEParents[u] {
			frontier := r.nodes[un].cands
			var cmp, out int64
			for _, vn := range frontier {
				var vals []graph.VertexID
				for _, w := range data.Neighbors(vn) {
					if slices.Contains(node.cands, w) {
						vals = append(vals, w)
					}
				}
				if len(vals) > 0 {
					node.nte[j][vn] = vals
				}
				// What the builder's merge intersection is charged: the
				// key's label partition against the candidate set.
				cmp += int64(len(data.NeighborsWithLabel(vn, uLabel)) + len(node.cands))
				out += int64(len(vals))
			}
			if opts.Stats != nil {
				opts.Stats.IntersectionOps.Add(int64(len(frontier)))
				opts.Stats.RemoteReads.Add(int64(len(frontier)))
			}
			if p := opts.Profile; p != nil {
				nc := p.Vertex(int(u)).NTE(j)
				nc.BuildComparisons.Add(cmp)
				nc.BuildOutput.Add(out)
			}
		}
	}
	rounds := opts.RefineRounds
	if opts.SkipRefinement {
		rounds = 1
	}
	for round := 0; round < rounds; round++ {
		for i := len(tree.Order) - 1; i >= 0; i-- {
			u := tree.Order[i]
			node := &r.nodes[u]
			node.card = map[graph.VertexID]int64{}
			var unions [][]graph.VertexID
			for _, m := range node.nte {
				unions = append(unions, m.union())
			}
			if opts.SkipRefinement {
				unions = nil // optimistic: TE sizes only, nothing deleted
			}
			for _, v := range slices.Clone(node.cands) {
				card := r.cardinality(u, v, unions)
				if card == 0 && !opts.SkipRefinement {
					if opts.Stats != nil {
						opts.Stats.FilteredRefine.Add(1)
					}
					if p := opts.Profile; p != nil {
						p.Vertex(int(u)).AddRefined(1)
					}
					r.remove(u, v)
					continue
				}
				node.card[v] = card
			}
		}
	}
	if p := opts.Profile; p != nil {
		for u := range r.nodes {
			node := &r.nodes[u]
			vc := p.Vertex(u)
			vc.FinalCands.Add(int64(len(node.cands)))
			vc.TEEntries.Add(int64(len(node.te)))
			vc.TECandidates.Add(node.te.edges())
			// 4 bytes per candidate, and 2, 4 or 8 per cardinality as
			// the largest is below 2^16, below 2^32 or neither; a map has
			// one 4-byte offset per candidate of its key vertex plus one,
			// 4 bytes per key whose list is empty, and 2 or 4 per value.
			keySpace := 0
			if p := tree.Parent[u]; p != order.NoParent {
				keySpace = len(r.nodes[p].cands)
			}
			var top int64
			for _, v := range node.cands {
				top = max(top, node.card[v])
			}
			cardWidth := int64(8)
			if top < 1<<16 {
				cardWidth = 2
			} else if top < 1<<32 {
				cardWidth = 4
			}
			flat := (4+cardWidth)*int64(len(node.cands)) + node.te.flatBytes(keySpace, len(node.cands))
			for j, m := range node.nte {
				nc := vc.NTE(j)
				nc.Entries.Add(int64(len(m)))
				nc.Candidates.Add(m.edges())
				flat += m.flatBytes(len(r.nodes[tree.NTEParents[u][j]].cands), len(node.cands))
			}
			vc.FlatBytes.Add(flat)
		}
	}
	return r
}

// sizeBytes is the paper's accounting: 8 bytes per candidate edge, an
// edge stored in both directions of one map counted once.
func (r *refIndex) sizeBytes() int64 {
	var n int64
	count := func(m refMap) {
		for key, vals := range m {
			for _, v := range vals {
				if key < v || !slices.Contains(m[v], key) {
					n++
				}
			}
		}
	}
	for u := range r.nodes {
		count(r.nodes[u].te)
		for _, m := range r.nodes[u].nte {
			count(m)
		}
	}
	return 8 * n
}

// result renders the oracle's index in the CECIIDX1 layout documented in
// serialize.go, written here by hand.
func (r *refIndex) result() buildResult {
	ids := func(b []byte, vs []graph.VertexID) []byte {
		b = binary.AppendUvarint(b, uint64(len(vs)))
		prev := graph.VertexID(0)
		for _, v := range vs {
			b = binary.AppendUvarint(b, uint64(v-prev))
			prev = v
		}
		return b
	}
	candMap := func(b []byte, m refMap) []byte {
		b = binary.AppendUvarint(b, uint64(len(m)))
		for _, key := range m.sortedKeys() {
			b = ids(binary.AppendUvarint(b, uint64(key)), m[key])
		}
		return b
	}
	b := binary.LittleEndian.AppendUint64([]byte("CECIIDX1"), Fingerprint(r.data, r.tree))
	b = binary.AppendUvarint(b, uint64(len(r.nodes)))
	res := buildResult{sizeBytes: r.sizeBytes()}
	for u := range r.nodes {
		node := &r.nodes[u]
		res.cands = append(res.cands, node.cands)
		b = ids(b, node.cands)
		for _, v := range node.cands {
			b = binary.AppendUvarint(b, uint64(node.card[v]))
		}
		b = candMap(b, node.te)
		b = binary.AppendUvarint(b, uint64(len(node.nte)))
		for _, m := range node.nte {
			b = candMap(b, m)
		}
	}
	res.serialized = b
	return res
}

// buildResult is what assertSameBuild compares of an index.
type buildResult struct {
	cands      [][]graph.VertexID
	serialized []byte
	sizeBytes  int64
}

func resultOf(t *testing.T, ix *Index) buildResult {
	t.Helper()
	res := buildResult{serialized: serialized(t, ix), sizeBytes: ix.SizeBytes()}
	for u := range ix.Nodes {
		res.cands = append(res.cands, ix.Nodes[u].Cands)
	}
	return res
}

// instrumented returns opts with fresh Stats and Profile sinks.
func instrumented(opts Options) Options {
	opts.Stats = &stats.Counters{}
	opts.Profile = prof.New()
	return opts
}

func serialized(t *testing.T, ix *Index) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// assertSameBuild holds got to want: candidate sets, the serialized index
// byte for byte, the paper-accounting size, every filter-funnel counter
// and the profiler's whole per-vertex table (NeighborsScanned, Dropped*,
// refine/cascade deletions, TE/NTE shape, flat bytes).
func assertSameBuild(t *testing.T, name string, got, want buildResult, gotOpts, wantOpts Options) {
	t.Helper()
	for u := range want.cands {
		if !slices.Equal(got.cands[u], want.cands[u]) {
			t.Fatalf("%s: Cands(u%d) = %v, want %v", name, u, got.cands[u], want.cands[u])
		}
	}
	if !bytes.Equal(got.serialized, want.serialized) {
		t.Fatalf("%s: serialized indexes differ", name)
	}
	if got.sizeBytes != want.sizeBytes {
		t.Fatalf("%s: SizeBytes %d, want %d", name, got.sizeBytes, want.sizeBytes)
	}
	g, w := gotOpts.Stats, wantOpts.Stats
	for _, c := range []struct {
		name      string
		got, want int64
	}{
		{"FilteredLabel", g.FilteredLabel.Load(), w.FilteredLabel.Load()},
		{"FilteredDegree", g.FilteredDegree.Load(), w.FilteredDegree.Load()},
		{"FilteredNLC", g.FilteredNLC.Load(), w.FilteredNLC.Load()},
		{"FilteredCascade", g.FilteredCascade.Load(), w.FilteredCascade.Load()},
		{"FilteredRefine", g.FilteredRefine.Load(), w.FilteredRefine.Load()},
		{"RemoteReads", g.RemoteReads.Load(), w.RemoteReads.Load()},
	} {
		if c.got != c.want {
			t.Fatalf("%s: Stats.%s = %d, want %d", name, c.name, c.got, c.want)
		}
	}
	gp, wp := gotOpts.Profile.Snapshot().Vertices, wantOpts.Profile.Snapshot().Vertices
	if !reflect.DeepEqual(gp, wp) {
		t.Fatalf("%s: profiles differ:\n got %+v\nwant %+v", name, gp, wp)
	}
}

// oraclePair is seed's data/query pair. Every third seed re-labels the
// data with up to three labels per vertex, and every sixth also gives
// query vertices a second label, so the extra-label stage and the
// multi-label NLC counts are exercised.
func oraclePair(seed int64) (data, query *graph.Graph) {
	data, query = gen.RandomPair(seed)
	if seed%3 != 0 {
		return data, query
	}
	labels := 2 + int(seed%4)
	data = gen.WithRandomMultiLabels(data, labels, 3, seed)
	rng := gen.NewRNG(seed)
	query, err := gen.DFSQuery(data, query.NumVertices(), rng)
	if err != nil {
		panic(err)
	}
	if seed%6 == 0 {
		b := graph.NewBuilder(query.NumVertices())
		for u := 0; u < query.NumVertices(); u++ {
			b.SetLabel(graph.VertexID(u), query.Label(graph.VertexID(u)))
			if rng.Intn(2) == 0 {
				b.AddExtraLabel(graph.VertexID(u), graph.Label(rng.Intn(labels)))
			}
		}
		query.Edges(func(a, c graph.VertexID) bool {
			b.AddEdge(a, c)
			return true
		})
		query = b.MustBuild()
	}
	return data, query
}

// cascadePair is a pair sized for deletion rather than for breadth: a
// 5-clique (even seeds) or two triangles joined by a two-edge path (odd
// seeds) under random labels, on a skewed graph of 2000 vertices and 8
// labels, where refinement and the cascades it starts remove tens of
// candidates a level instead of the seeded pairs' one or two.
func cascadePair(seed int64) (data, query *graph.Graph) {
	const labels = 8
	data = gen.WithRandomLabels(gen.ChungLu(2000, 8, 2.3, seed), labels, seed)
	shape := gen.QG5()
	if seed%2 == 1 {
		b := graph.NewBuilder(7)
		for _, e := range [][2]graph.VertexID{{0, 1}, {0, 2}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {4, 6}, {5, 6}} {
			b.AddEdge(e[0], e[1])
		}
		shape = b.MustBuild()
	}
	rng := gen.NewRNG(seed)
	b := graph.NewBuilder(shape.NumVertices())
	for u := 0; u < shape.NumVertices(); u++ {
		b.SetLabel(graph.VertexID(u), graph.Label(rng.Intn(labels)))
	}
	shape.Edges(func(a, c graph.VertexID) bool {
		b.AddEdge(a, c)
		return true
	})
	return data, b.MustBuild()
}

// lollipopPair is built so that one refinement level drops two thirds of
// its vertex's candidates and the cascade climbs three levels. The query,
// rooted at u0, is the path u0-u1-u2 ending in the triangle u2-u3-u4, a
// label per vertex. The data is n copies of it, copy i's u1 also joined to
// copy i+1's u2; two copies in three lack the triangle's far edge and hang
// a leaf off each of its ends instead, so their u3 and u4 images pass the
// label, degree and NLC filters, but no candidate of u3 has the u4 image
// as a neighbor. Refinement drops those 2n/3 u4 candidates at once; their
// u2 keys empty; a third of the u1 candidates have both their u2 values
// among them, and the u0 candidates above those follow.
func lollipopPair(n int) (data, query *graph.Graph) {
	q := graph.NewBuilder(5)
	for u := graph.VertexID(0); u < 5; u++ {
		q.SetLabel(u, graph.Label(u))
	}
	for _, e := range [][2]graph.VertexID{{0, 1}, {1, 2}, {2, 3}, {2, 4}, {3, 4}} {
		q.AddEdge(e[0], e[1])
	}
	// Copy i is vertices 7i..7i+4 in query-vertex order, then the two
	// spare leaves (labels 4 and 3), used or not.
	d := graph.NewBuilder(7 * n)
	for i := 0; i < n; i++ {
		at := func(u int) graph.VertexID { return graph.VertexID(7*i + u) }
		for u, l := range []graph.Label{0, 1, 2, 3, 4, 4, 3} {
			d.SetLabel(at(u), l)
		}
		for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 3}, {2, 4}} {
			d.AddEdge(at(e[0]), at(e[1]))
		}
		d.AddEdge(at(1), graph.VertexID(7*((i+1)%n)+2))
		if i%3 == 0 {
			d.AddEdge(at(3), at(4))
		} else {
			d.AddEdge(at(3), at(5))
			d.AddEdge(at(4), at(6))
		}
	}
	return d.MustBuild(), q.MustBuild()
}

// TestBuildMatchesPerEdgeFilterOracle: Figure 1, 240 seeded pairs, six
// larger ones and the lollipop, each under the default build, the NLC and
// refinement ablations, two refinement rounds, and a pivot-restricted
// (shard / cluster style) build over every other root candidate. The
// comparison says nothing about the set-at-a-time cascade unless some
// build drops a large set at one level and some cascade climbs through
// several, so both are required of the pairs, read off the per-vertex
// funnel the profiler collects anyway.
func TestBuildMatchesPerEdgeFilterOracle(t *testing.T) {
	halved, climbed := 0, 0
	check := func(name string, data, query *graph.Graph, opt order.Options) {
		tree, err := order.Preprocess(data, query, opt)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		everyOther := []graph.VertexID{} // non-nil: restricted even when empty
		for i, v := range refCandidates(data, query, tree.Root) {
			if i%2 == 0 {
				everyOther = append(everyOther, v)
			}
		}
		funnels := map[string][]prof.VertexProfile{}
		for _, v := range []struct {
			name string
			opts Options
		}{
			{"default", Options{}},
			{"skip-nlc", Options{SkipNLCFilter: true}},
			{"skip-refine", Options{SkipRefinement: true}},
			{"two-rounds", Options{RefineRounds: 2}},
			{"pivots", Options{Pivots: everyOther}},
		} {
			gotOpts, wantOpts := instrumented(v.opts), instrumented(v.opts)
			got := resultOf(t, Build(data, tree, gotOpts))
			want := referenceBuild(data, tree, wantOpts).result()
			assertSameBuild(t, name+"/"+v.name, got, want, gotOpts, wantOpts)
			funnels[v.name] = gotOpts.Profile.Snapshot().Vertices
		}
		h, c := cascadeShapes(tree, funnels["default"], funnels["skip-refine"])
		if h {
			halved++
		}
		if c {
			climbed++
		}
	}
	check("fig1", gen.Fig1Data(), gen.Fig1Query(), order.DefaultOptions())
	multi := 0
	for seed := int64(0); seed < 240; seed++ {
		data, query := oraclePair(seed)
		if data.NumLabels() > 1 && seed%3 == 0 {
			multi++
		}
		check(fmt.Sprintf("seed%d", seed), data, query, order.DefaultOptions())
	}
	if multi < 40 {
		t.Fatalf("only %d multi-label pairs", multi)
	}
	for seed := int64(1); seed <= 6; seed++ {
		data, query := cascadePair(seed)
		check(fmt.Sprintf("cascade%d", seed), data, query, order.DefaultOptions())
	}
	data, query := lollipopPair(300)
	check("lollipop", data, query, order.Options{ForcedRoot: 0, Heuristic: order.BFSOrder})
	t.Logf("%d pairs refine away at least half of a vertex's candidates at one level, %d cascade at least two levels up", halved, climbed)
	if halved == 0 || climbed == 0 {
		t.Fatalf("the pairs do not exercise the set cascade: %d drop half a level's candidates, %d climb two levels", halved, climbed)
	}
}

// cascadeShapes reads two facts about a pair's default build off its
// funnel and that of the same build without refinement. halved: some
// refinement level removed at least half of the candidates its vertex had
// left (in a one-round build nothing leaves a vertex after its own level,
// so that is what survived plus what the level dropped). climbed: some
// cascade went at least two levels above the level that started it — a
// vertex lost candidates to cascades during refinement (more than the
// expansion-time cascades, which the refinement-free build counts alone)
// although none of its tree children refined any away, so the set came
// from a grandchild's level or deeper.
func cascadeShapes(tree *order.QueryTree, build, expandOnly []prof.VertexProfile) (halved, climbed bool) {
	for u, vp := range build {
		if vp.DroppedRefine > 0 && vp.DroppedRefine >= vp.FinalCands {
			halved = true
		}
		below := int64(0)
		for _, uc := range tree.Children[u] {
			below += build[uc].DroppedRefine
		}
		if below == 0 && vp.DroppedCascade > expandOnly[u].DroppedCascade {
			climbed = true
		}
	}
	return halved, climbed
}

// denseMultiLabelPair is large enough that frontiers exceed parallelFor's
// serial cutoff, so Workers > 1 really partitions the expansion.
func denseMultiLabelPair(t *testing.T) (data, query *graph.Graph) {
	t.Helper()
	data = gen.WithRandomMultiLabels(gen.ErdosRenyi(700, 9000, 11), 5, 3, 12)
	query, err := gen.DFSQuery(data, 6, gen.NewRNG(13))
	if err != nil {
		t.Fatal(err)
	}
	return data, query
}

// TestBuildWorkersByteEqual: one worker and four produce the same bytes,
// counters and profile (run under -race in CI: the workers share the
// verdict tables read-only).
func TestBuildWorkersByteEqual(t *testing.T) {
	data, query := denseMultiLabelPair(t)
	tree, err := order.Preprocess(data, query, order.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	oneOpts, fourOpts := instrumented(Options{Workers: 1}), instrumented(Options{Workers: 4})
	one, four := Build(data, tree, oneOpts), Build(data, tree, fourOpts)
	if len(one.Pivots()) < 64 {
		t.Fatalf("only %d pivots: the parallel path did not run", len(one.Pivots()))
	}
	assertSameBuild(t, "workers 4 vs 1", resultOf(t, four), resultOf(t, one), fourOpts, oneOpts)
	refOpts := instrumented(Options{})
	assertSameBuild(t, "workers 1 vs oracle", resultOf(t, one), referenceBuild(data, tree, refOpts).result(), oneOpts, refOpts)
}

// TestBuildOnAnotherGraphRecomputesFilter: the tables on a tree are keyed
// by the data graph Preprocess ran on. A build against a different graph
// (cluster/diskshared preprocesses on a region view and builds on each
// machine's own view; a shard part is its own graph) must not read them.
func TestBuildOnAnotherGraphRecomputesFilter(t *testing.T) {
	data, query := denseMultiLabelPair(t)
	tree, err := order.Preprocess(data, query, order.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Same vertices and edges, different labels: every stale verdict that
	// mattered would change the index.
	other := gen.WithRandomMultiLabels(data, 5, 3, 99)
	gotOpts, wantOpts := instrumented(Options{}), instrumented(Options{})
	got := resultOf(t, Build(other, tree, gotOpts))
	assertSameBuild(t, "other graph", got, referenceBuild(other, tree, wantOpts).result(), gotOpts, wantOpts)
	stale := referenceBuild(data, tree, Options{}).result()
	if bytes.Equal(got.serialized, stale.serialized) {
		t.Fatal("the two graphs index identically: the test cannot tell a stale table from a fresh one")
	}
}

// TestFrozenIndexDropsFilter: a finished index — what a cache retains —
// references neither the verdict tables nor the tree that carries them,
// and the tree it does retain is otherwise the caller's.
func TestFrozenIndexDropsFilter(t *testing.T) {
	data, query := denseMultiLabelPair(t)
	tree, err := order.Preprocess(data, query, order.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	filter := weak.Make(tree.Filter(data))
	ix := Build(data, tree, Options{})
	if ix.Tree == tree || !slices.Equal(ix.Tree.Order, tree.Order) || ix.Tree.Root != tree.Root {
		t.Fatal("index must retain a detached copy of the caller's tree")
	}
	tree = nil
	for i := 0; i < 3 && filter.Value() != nil; i++ {
		runtime.GC()
	}
	if filter.Value() != nil {
		t.Fatal("verdict tables still reachable with only the finished index alive")
	}
	runtime.KeepAlive(ix)
}
