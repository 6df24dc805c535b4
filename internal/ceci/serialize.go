package ceci

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc64"
	"io"

	"ceci/internal/graph"
	"ceci/internal/order"
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
	if _, err := cw.Write(idxMagic[:]); err != nil {
		return cw.n, err
	}
	writeU64(cw, Fingerprint(ix.Data, ix.Tree))
	writeUvarint(cw, uint64(len(ix.Nodes)))
	for u := range ix.Nodes {
		node := &ix.Nodes[u]
		writeIDs(cw, node.Cands)
		for _, v := range node.Cands {
			writeUvarint(cw, uint64(node.CardOf(v)))
		}
		writeCandMap(cw, &node.TE)
		writeUvarint(cw, uint64(len(node.NTE)))
		for j := range node.NTE {
			writeCandMap(cw, &node.NTE[j])
		}
	}
	if cw.err != nil {
		return cw.n, cw.err
	}
	return cw.n, cw.w.(*bufio.Writer).Flush()
}

// ReadIndex deserializes an index previously written by WriteTo. The
// data graph and query tree must be the ones the index was built for;
// the embedded fingerprint is verified.
func ReadIndex(r io.Reader, data *graph.Graph, tree *order.QueryTree) (*Index, error) {
	br := bufio.NewReader(r)
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("ceci: index header: %w", err)
	}
	if magic != idxMagic {
		return nil, fmt.Errorf("ceci: bad index magic %q", magic)
	}
	fp, err := readU64(br)
	if err != nil {
		return nil, err
	}
	if want := Fingerprint(data, tree); fp != want {
		return nil, fmt.Errorf("ceci: index fingerprint %x does not match graph/query %x", fp, want)
	}
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	if int(n) != tree.NumVertices() {
		return nil, fmt.Errorf("ceci: index has %d query vertices, tree has %d", n, tree.NumVertices())
	}
	ix := &Index{
		Data:  data,
		Tree:  tree.WithFilter(nil), // a loaded index is retained; it must not pin the verdict tables
		Nodes: make([]Node, n),
	}
	ix.indexNTEChildren()
	for u := range ix.Nodes {
		node := &ix.Nodes[u]
		if node.Cands, err = readIDs(br); err != nil {
			return nil, fmt.Errorf("ceci: node %d cands: %w", u, err)
		}
		node.Card = make(map[graph.VertexID]int64, len(node.Cands))
		for _, v := range node.Cands {
			c, err := binary.ReadUvarint(br)
			if err != nil {
				return nil, err
			}
			node.Card[v] = int64(c)
		}
		if err := readCandMap(br, &node.TE); err != nil {
			return nil, fmt.Errorf("ceci: node %d TE: %w", u, err)
		}
		nteCount, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, err
		}
		if int(nteCount) != len(node.NTE) {
			return nil, fmt.Errorf("ceci: node %d has %d NTE maps, tree expects %d", u, nteCount, len(node.NTE))
		}
		for j := range node.NTE {
			if err := readCandMap(br, &node.NTE[j]); err != nil {
				return nil, fmt.Errorf("ceci: node %d NTE %d: %w", u, j, err)
			}
		}
	}
	// A loaded index goes straight to the steady state: compact it into
	// the flat arena-backed form the enumerator reads.
	ix.Freeze()
	return ix, nil
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

func writeU64(w io.Writer, x uint64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], x)
	w.Write(buf[:])
}

func readU64(r io.Reader) (uint64, error) {
	var buf [8]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(buf[:]), nil
}

func writeUvarint(w io.Writer, x uint64) {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], x)
	w.Write(buf[:n])
}

// writeIDs delta-encodes a sorted vertex list.
func writeIDs(w io.Writer, ids []graph.VertexID) {
	writeUvarint(w, uint64(len(ids)))
	prev := uint64(0)
	for _, v := range ids {
		writeUvarint(w, uint64(v)-prev)
		prev = uint64(v)
	}
}

func readIDs(r io.ByteReader) ([]graph.VertexID, error) {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, err
	}
	const maxReasonable = 1 << 32
	if n > maxReasonable {
		return nil, fmt.Errorf("ceci: implausible list length %d", n)
	}
	if n == 0 {
		return nil, nil
	}
	out := make([]graph.VertexID, n)
	prev := uint64(0)
	for i := range out {
		d, err := binary.ReadUvarint(r)
		if err != nil {
			return nil, err
		}
		prev += d
		out[i] = graph.VertexID(prev)
	}
	return out, nil
}

func writeCandMap(w io.Writer, m *CandMap) {
	writeUvarint(w, uint64(m.Len()))
	m.ForEach(func(key graph.VertexID, vals []graph.VertexID) {
		writeUvarint(w, uint64(key))
		writeIDs(w, vals)
	})
}

func readCandMap(r io.ByteReader, m *CandMap) error {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return err
	}
	for i := uint64(0); i < n; i++ {
		key, err := binary.ReadUvarint(r)
		if err != nil {
			return err
		}
		vals, err := readIDs(r)
		if err != nil {
			return err
		}
		m.AppendKey(graph.VertexID(key), vals)
	}
	return nil
}
