package ceci

import (
	"bytes"
	"encoding/binary"
	"math"
	"runtime"
	"strings"
	"testing"

	"ceci/internal/gen"
	"ceci/internal/graph"
	"ceci/internal/order"
)

// fig1Tree is the paper's running example rooted at u1 in BFS order: tree
// edges (u1,u2) (u1,u3) (u2,u4) (u3,u5), non-tree edges (u2,u3) (u3,u4).
func fig1Tree(t *testing.T) (*graph.Graph, *order.QueryTree) {
	t.Helper()
	data := gen.Fig1Data()
	tree, err := order.Preprocess(data, gen.Fig1Query(), order.Options{ForcedRoot: 0, Heuristic: order.BFSOrder})
	if err != nil {
		t.Fatal(err)
	}
	return data, tree
}

// TestReadIndexRejectsCorruptFiles: the fingerprint vouches for the
// (graph, tree) pair only, so ReadIndex checks the body itself. Each case
// corrupts one thing in the oracle's model of a valid Figure 1 index,
// renders it in the file format, and must get an error that names the
// node and section — as must every truncation of the valid file.
func TestReadIndexRejectsCorruptFiles(t *testing.T) {
	data, tree := fig1Tree(t)
	n := graph.VertexID(data.NumVertices())
	valid := referenceBuild(data, tree, Options{}).result().serialized
	if _, err := ReadIndex(bytes.NewReader(valid), data, tree); err != nil {
		t.Fatalf("valid file: %v", err)
	}
	first := func(m refMap) graph.VertexID { return m.sortedKeys()[0] }
	for _, c := range []struct {
		name    string
		corrupt func(r *refIndex)
		want    string
	}{
		{"duplicate candidate", func(r *refIndex) {
			c := r.nodes[1].cands
			r.nodes[1].cands = append(c, c[len(c)-1])
		}, "node 1 cands: id"},
		{"descending candidates", func(r *refIndex) {
			r.nodes[2].cands = append(r.nodes[2].cands, 0)
		}, "node 2 cands: id past"},
		{"candidate beyond the graph", func(r *refIndex) {
			r.nodes[0].cands = append(r.nodes[0].cands, n)
		}, "node 0 cands: id past"},
		{"zero cardinality", func(r *refIndex) {
			r.nodes[3].card[r.nodes[3].cands[0]] = 0
		}, "node 3 card: cardinality 0"},
		{"cardinality beyond saturation", func(r *refIndex) {
			r.nodes[0].card[r.nodes[0].cands[0]] = math.MaxInt64
		}, "node 0 card: cardinality"},
		{"root with a TE key", func(r *refIndex) {
			r.nodes[0].te[0] = []graph.VertexID{0}
		}, "node 0 TE: the root has 1 keys"},
		{"TE key beyond the graph", func(r *refIndex) {
			r.nodes[1].te[n] = []graph.VertexID{r.nodes[1].cands[0]}
		}, "node 1 TE: key"},
		{"TE key that is no parent candidate", func(r *refIndex) {
			r.nodes[3].te[n-1] = []graph.VertexID{r.nodes[3].cands[0]}
		}, "node 3 TE: key 14 is not a candidate of query vertex 1"},
		{"TE value that is no candidate", func(r *refIndex) {
			m := r.nodes[4].te
			m[first(m)] = append(m[first(m)], n-1)
		}, "node 4 TE: value 14 under key"},
		{"TE value repeated", func(r *refIndex) {
			m := r.nodes[1].te
			m[first(m)] = append(m[first(m)], m[first(m)][0])
		}, "node 1 TE: key"},
		{"NTE key that is no candidate", func(r *refIndex) {
			r.nodes[2].nte[0][n-1] = []graph.VertexID{r.nodes[2].cands[0]}
		}, "node 2 NTE 0: key 14 is not a candidate of query vertex 1"},
		{"NTE value that is no candidate", func(r *refIndex) {
			m := r.nodes[3].nte[0]
			m[first(m)] = append(m[first(m)], n-1)
		}, "node 3 NTE 0: value 14 under key"},
		{"one NTE map too many", func(r *refIndex) {
			r.nodes[1].nte = append(r.nodes[1].nte, refMap{})
		}, "node 1 NTE: 1 maps, tree expects 0"},
	} {
		r := referenceBuild(data, tree, Options{})
		c.corrupt(r)
		_, err := ReadIndex(bytes.NewReader(r.result().serialized), data, tree)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want one containing %q", c.name, err, c.want)
		}
	}
	if _, err := ReadIndex(bytes.NewReader(append(bytes.Clone(valid), 0)), data, tree); err == nil || !strings.Contains(err.Error(), "trailing bytes") {
		t.Errorf("trailing byte: error %v", err)
	}
	for cut := range valid {
		if _, err := ReadIndex(bytes.NewReader(valid[:cut]), data, tree); err == nil {
			t.Errorf("file cut to %d of %d bytes was accepted", cut, len(valid))
		}
	}
}

// TestReadIndexHostileLength: nine bytes after the header used to buy a
// 16 GiB allocation (a list length of 2^32-1 was "plausible"). A length
// the graph cannot hold is refused before anything is allocated for it.
func TestReadIndexHostileLength(t *testing.T) {
	data, tree := fig1Tree(t)
	file := binary.LittleEndian.AppendUint64(idxMagic[:], Fingerprint(data, tree))
	file = binary.AppendUvarint(file, uint64(tree.NumVertices()))
	file = binary.AppendUvarint(file, math.MaxUint32) // node 0's candidate count
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadIndex(bytes.NewReader(file), data, tree)
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "node 0 cands: list of 4294967295 ids") {
		t.Fatalf("error %v", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Fatalf("refusing it allocated %d bytes", got)
	}
}
