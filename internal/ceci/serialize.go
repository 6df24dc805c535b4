package ceci

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc64"
	"io"

	"ceci/internal/graph"
	"ceci/internal/order"
	"ceci/internal/setops"
)

// Index serialization. The paper's §6.4 anticipates storing CECI outside
// main memory ("for larger graphs whose CECI does not fit inside memory,
// we plan to store it in non-volatile memory"); this binary format makes
// the index a persistable artifact: build once, reuse across processes,
// or hand a machine's partition to another node.
//
// The format embeds a fingerprint of the (data graph, query tree) pair it
// was built for, and loading verifies it — an index is meaningless
// against any other pair.
//
// Layout (little endian, length-prefixed sections):
//
//	magic "CECIIDX1"
//	fingerprint uint64
//	numQueryVertices uvarint
//	per query vertex:
//	  cands: uvarint count + delta-encoded ids
//	  card:  per cand, uvarint cardinality
//	  TE:    uvarint keys; per key: id + value list (delta-encoded)
//	  NTE:   uvarint maps; per map as TE
//
// Keys and values are ids on disk, positions (CandMap) in memory.
var idxMagic = [8]byte{'C', 'E', 'C', 'I', 'I', 'D', 'X', '1'}

var crcTable = crc64.MakeTable(crc64.ECMA)

// Fingerprint identifies the (data, tree) pair an index belongs to.
func Fingerprint(data *graph.Graph, tree *order.QueryTree) uint64 {
	h := crc64.New(crcTable)
	var buf [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(buf[:], x)
		h.Write(buf[:])
	}
	put(uint64(data.NumVertices()))
	put(uint64(data.NumEdges()))
	put(uint64(data.NumLabels()))
	put(uint64(tree.Root))
	for _, u := range tree.Order {
		put(uint64(u))
	}
	tree.Query.Edges(func(a, b graph.VertexID) bool {
		put(uint64(a)<<32 | uint64(b))
		return true
	})
	for u := 0; u < tree.Query.NumVertices(); u++ {
		for _, l := range tree.Query.Labels(graph.VertexID(u)) {
			put(uint64(l))
		}
	}
	return h.Sum64()
}

// WriteTo serializes the index. It returns the number of bytes written.
func (ix *Index) WriteTo(w io.Writer) (int64, error) {
	cw := &countingWriter{w: bufio.NewWriter(w)}
	cw.Write(binary.LittleEndian.AppendUint64(idxMagic[:], Fingerprint(ix.Data, ix.Tree)))
	writeUvarint(cw, uint64(len(ix.Nodes)))
	for u := range ix.Nodes {
		node := &ix.Nodes[u]
		writeIDs(cw, node.Cands, nil)
		for p := range node.Cands {
			writeUvarint(cw, uint64(node.CardAt(uint32(p))))
		}
		writeCandMap(cw, &node.TE, ix.keySpace(graph.VertexID(u), teSlot), node.Cands)
		writeUvarint(cw, uint64(len(node.NTE)))
		for j := range node.NTE {
			writeCandMap(cw, &node.NTE[j], ix.keySpace(graph.VertexID(u), j), node.Cands)
		}
	}
	if cw.err != nil {
		return cw.n, cw.err
	}
	return cw.n, cw.w.(*bufio.Writer).Flush()
}

// ReadIndex deserializes an index previously written by WriteTo. The
// data graph and query tree must be the ones the index was built for;
// the embedded fingerprint is verified. The fingerprint covers only the
// (graph, tree) pair, so the body is checked as it is decoded: every list
// is at most |V| long and strictly ascending with ids below |V|, every
// cardinality lies in [1, CardSaturation], keys are candidates of the
// vertex they are keyed by and values candidates of their own, and
// nothing follows the last node. A file that fails any of it is an error
// naming the node and section, never an index that misbehaves later.
func ReadIndex(r io.Reader, data *graph.Graph, tree *order.QueryTree) (*Index, error) {
	br := bufio.NewReader(r)
	var header [16]byte // magic, fingerprint
	if _, err := io.ReadFull(br, header[:]); err != nil {
		return nil, fmt.Errorf("ceci: index header: %w", err)
	}
	if magic := [8]byte(header[:8]); magic != idxMagic {
		return nil, fmt.Errorf("ceci: bad index magic %q", magic)
	}
	if fp, want := binary.LittleEndian.Uint64(header[8:]), Fingerprint(data, tree); fp != want {
		return nil, fmt.Errorf("ceci: index fingerprint %x does not match graph/query %x", fp, want)
	}
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("ceci: index header: %w", err)
	}
	if n != uint64(tree.NumVertices()) {
		return nil, fmt.Errorf("ceci: index has %d query vertices, tree has %d", n, tree.NumVertices())
	}
	ix := newIndex(data, tree, Options{})
	d := idReader{r: br, limit: uint64(data.NumVertices())}
	// maps[u][0] is u's TE as read, maps[u][1+j] its NTE[j]; cards holds
	// a node's cardinalities until cardColumn narrows them.
	maps := make([][]mapBuilder, len(ix.Nodes))
	var cards []int64
	for u := range ix.Nodes {
		node := &ix.Nodes[u]
		fail := func(section string, err error) (*Index, error) {
			return nil, fmt.Errorf("ceci: index node %d %s: %w", u, section, err)
		}
		if node.Cands, err = d.ids(nil); err != nil {
			return fail("cands", err)
		}
		cards = cards[:0]
		for _, v := range node.Cands {
			c, err := binary.ReadUvarint(br)
			if err != nil {
				return fail("card", err)
			}
			if c < 1 || c > CardSaturation {
				return fail("card", fmt.Errorf("cardinality %d of candidate %d outside [1, %d]", c, v, int64(CardSaturation)))
			}
			cards = append(cards, int64(c))
		}
		node.cards = cardColumn(cards)
		maps[u] = make([]mapBuilder, 1+len(node.NTE))
		if err = d.candMap(&maps[u][0]); err != nil {
			return fail("TE", err)
		}
		nteCount, err := binary.ReadUvarint(br)
		if err != nil {
			return fail("NTE", err)
		}
		if nteCount != uint64(len(node.NTE)) {
			return fail("NTE", fmt.Errorf("%d maps, tree expects %d", nteCount, len(node.NTE)))
		}
		for j := range node.NTE {
			if err = d.candMap(&maps[u][1+j]); err != nil {
				return fail(fmt.Sprintf("NTE %d", j), err)
			}
		}
	}
	if _, err := br.ReadByte(); err == nil {
		return nil, fmt.Errorf("ceci: index: trailing bytes after node %d", len(ix.Nodes)-1)
	} else if err != io.EOF {
		return nil, fmt.Errorf("ceci: index: %w", err)
	}
	// Keys and values refer to candidate columns of other nodes, which the
	// file may hold later: checked once everything is decoded, then turned
	// into positions.
	pos := posTables.Get().(*posTable)
	defer posTables.Put(pos)
	for u := range ix.Nodes {
		node := &ix.Nodes[u]
		pos.fill(node.Cands, data.NumVertices())
		for slot := teSlot; slot < len(node.NTE); slot++ {
			m, section, keyedBy := &maps[u][1+slot], "TE", tree.Parent[u]
			if slot != teSlot {
				section, keyedBy = fmt.Sprintf("NTE %d", slot), int32(tree.NTEParents[u][slot])
			}
			if keyedBy == order.NoParent && len(m.keys) > 0 {
				return nil, fmt.Errorf("ceci: index node %d TE: the root has %d keys", u, len(m.keys))
			}
			keys := ix.keySpace(graph.VertexID(u), slot)
			if i := firstOutside(m.keys, keys); i >= 0 {
				return nil, fmt.Errorf("ceci: index node %d %s: key %d is not a candidate of query vertex %d", u, section, m.keys[i], keyedBy)
			}
			for i, key := range m.keys {
				if j := firstOutside(m.list(i), node.Cands); j >= 0 {
					return nil, fmt.Errorf("ceci: index node %d %s: value %d under key %d is not a candidate", u, section, m.list(i)[j], key)
				}
			}
			*node.slot(slot) = m.compact(keys, *pos, len(node.Cands))
		}
	}
	ix.finish()
	return ix, nil
}

// firstOutside returns the index of the first element of sub that set
// lacks, or -1; both are sorted ascending.
func firstOutside(sub, set []graph.VertexID) int {
	at := 0
	for i, x := range sub {
		at = setops.Gallop(set, at, x)
		if at == len(set) || set[at] != x {
			return i
		}
		at++
	}
	return -1
}

type countingWriter struct {
	w   io.Writer
	n   int64
	err error
}

func (c *countingWriter) Write(p []byte) (int, error) {
	if c.err != nil {
		return 0, c.err
	}
	n, err := c.w.Write(p)
	c.n += int64(n)
	c.err = err
	return n, err
}

func writeUvarint(w io.Writer, x uint64) {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], x)
	w.Write(buf[:n])
}

// writeIDs delta-encodes a sorted id list: list, or of[p] for each p in it.
func writeIDs(w io.Writer, list []uint32, of []graph.VertexID) {
	writeUvarint(w, uint64(len(list)))
	prev := uint64(0)
	for _, v := range list {
		if of != nil {
			v = of[v]
		}
		writeUvarint(w, uint64(v)-prev)
		prev = uint64(v)
	}
}

// idReader decodes the vertex-id sections of an index file, refusing
// anything a well-formed index over a graph of limit vertices cannot hold
// before allocating for it.
type idReader struct {
	r     *bufio.Reader
	limit uint64 // |V|: bounds every id and every list length
	list  []graph.VertexID
}

// ids appends one delta-encoded list to dst: at most limit ids, strictly
// ascending, each below limit.
func (d *idReader) ids(dst []graph.VertexID) ([]graph.VertexID, error) {
	n, err := binary.ReadUvarint(d.r)
	if err != nil {
		return nil, err
	}
	if n > d.limit {
		return nil, fmt.Errorf("list of %d ids, the graph has %d vertices", n, d.limit)
	}
	if dst == nil {
		dst = make([]graph.VertexID, 0, n)
	}
	var prev uint64
	for i := uint64(0); i < n; i++ {
		delta, err := binary.ReadUvarint(d.r)
		if err != nil {
			return nil, err
		}
		if delta == 0 && i > 0 {
			return nil, fmt.Errorf("id %d repeats", prev)
		}
		if delta >= d.limit || prev+delta >= d.limit {
			return nil, fmt.Errorf("id past the graph's %d vertices", d.limit)
		}
		prev += delta
		dst = append(dst, graph.VertexID(prev))
	}
	return dst, nil
}

// candMap decodes one TE or NTE structure into m: at most limit keys,
// strictly ascending and below limit, each with a list as ids reads it.
func (d *idReader) candMap(m *mapBuilder) error {
	n, err := binary.ReadUvarint(d.r)
	if err != nil {
		return err
	}
	if n > d.limit {
		return fmt.Errorf("%d keys, the graph has %d vertices", n, d.limit)
	}
	m.alloc(int(n), 0)
	for i := uint64(0); i < n; i++ {
		key, err := binary.ReadUvarint(d.r)
		if err != nil {
			return err
		}
		if key >= d.limit || i > 0 && key <= uint64(m.keys[i-1]) {
			return fmt.Errorf("key %d out of order or past the graph's %d vertices", key, d.limit)
		}
		if d.list, err = d.ids(d.list[:0]); err != nil {
			return fmt.Errorf("key %d: %w", key, err)
		}
		if err := m.append(graph.VertexID(key), d.list); err != nil {
			return err
		}
	}
	return nil
}

// writeCandMap writes m, keyed by keys and valued in vals, as ids.
func writeCandMap(w io.Writer, m *CandMap, keys, vals []graph.VertexID) {
	writeUvarint(w, uint64(m.Len()))
	m.ForEach(func(key uint32, list []uint32) {
		writeUvarint(w, uint64(keys[key]))
		writeIDs(w, list, vals)
	})
}
