package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"ceci/internal/bitset"
)

// Text formats
//
// Edge list (unlabeled):      one "u v" pair per line; '#' comments.
// Labeled graph (.lg):        header "t <n> <m>", then "v <id> <label...>"
//                             lines and "e <u> <v>" lines — the format used
//                             by the subgraph-matching literature's query
//                             sets (and by TurboIso/CFLMatch artifacts).

// LoadEdgeList reads an unlabeled edge list from r.
func LoadEdgeList(r io.Reader) (*Graph, error) {
	b := &Builder{}
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<20) // grown on demand; a line may be up to 1 MiB
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") || strings.HasPrefix(line, "%") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, fmt.Errorf("graph: edge list line %d: want 2 fields, got %q", lineNo, line)
		}
		u, err := strconv.ParseUint(fields[0], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graph: edge list line %d: %v", lineNo, err)
		}
		v, err := strconv.ParseUint(fields[1], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graph: edge list line %d: %v", lineNo, err)
		}
		b.AddEdge(VertexID(u), VertexID(v))
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("graph: reading edge list: %w", err)
	}
	return b.Build()
}

// MaxLabelValue bounds label values accepted by the loader, and by
// anything else that builds a graph from outside input.
const MaxLabelValue = 1 << 24

// LoadLabeled reads the "t/v/e" labeled-graph format from r.
//
// The loader validates the input rather than silently repairing it: a
// malformed header, a vertex or edge referring to an ID at or beyond the
// header's declared vertex count, a label beyond MaxLabelValue, a vertex
// declared twice, and a duplicate edge (in either orientation) are all
// errors with line numbers, since each one signals a corrupt or
// mis-generated artifact.
func LoadLabeled(r io.Reader) (*Graph, error) { return LoadLabeledMax(r, math.MaxUint32+1) }

// LoadLabeledMax is LoadLabeled for text from outside the program: a
// vertex ID at or beyond maxVertices is an error. The builder allocates
// up to the largest ID it is given, so without the bound one line
// ("v 4294967295 0") costs gigabytes.
func LoadLabeledMax(r io.Reader, maxVertices int64) (*Graph, error) {
	b := &Builder{}
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<20) // grown on demand; a line may be up to 1 MiB
	lineNo := 0
	declaredV := int64(-1)
	seenEdges := map[[2]uint64]int{}
	// declared has bit id set once a line declares vertex id. One bit a
	// vertex: it is alive beside the edge map at the load's peak.
	var declared bitset.Bits
	checkID := func(id uint64) error {
		if declaredV >= 0 && id >= uint64(declaredV) {
			return fmt.Errorf("graph: line %d: vertex %d out of range [0,%d) declared by header", lineNo, id, declaredV)
		}
		if id >= uint64(maxVertices) {
			return fmt.Errorf("graph: line %d: vertex %d beyond the %d vertices accepted", lineNo, id, maxVertices)
		}
		return nil
	}
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "t":
			switch {
			case len(fields) == 1:
				// bare section marker; counts unknown
			case len(fields) >= 3:
				n, err := strconv.ParseInt(fields[1], 10, 32)
				if err != nil || n < 0 {
					return nil, fmt.Errorf("graph: line %d: malformed header vertex count %q", lineNo, fields[1])
				}
				if _, err := strconv.ParseInt(fields[2], 10, 64); err != nil {
					return nil, fmt.Errorf("graph: line %d: malformed header edge count %q", lineNo, fields[2])
				}
				declaredV = n
			default:
				return nil, fmt.Errorf("graph: line %d: malformed header %q (want \"t <vertices> <edges>\")", lineNo, line)
			}
		case "v":
			if len(fields) < 3 {
				return nil, fmt.Errorf("graph: line %d: vertex needs id and label", lineNo)
			}
			id, err := strconv.ParseUint(fields[1], 10, 32)
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: %v", lineNo, err)
			}
			if err := checkID(id); err != nil {
				return nil, err
			}
			for uint64(len(declared)) <= id>>6 {
				declared = append(declared, 0)
			}
			if declared.Get(uint32(id)) {
				return nil, fmt.Errorf("graph: line %d: duplicate vertex %d", lineNo, id)
			}
			declared.Set(uint32(id))
			for i, f := range fields[2:] {
				// some variants append a degree column; accept pure ints only
				l, err := strconv.ParseUint(f, 10, 32)
				if err != nil {
					return nil, fmt.Errorf("graph: line %d: %v", lineNo, err)
				}
				if l > MaxLabelValue {
					return nil, fmt.Errorf("graph: line %d: label %d out of range [0,%d]", lineNo, l, MaxLabelValue)
				}
				if i == 0 {
					b.SetLabel(VertexID(id), Label(l))
				} else {
					b.AddExtraLabel(VertexID(id), Label(l))
				}
			}
		case "e":
			if len(fields) < 3 {
				return nil, fmt.Errorf("graph: line %d: edge needs two endpoints", lineNo)
			}
			u, err := strconv.ParseUint(fields[1], 10, 32)
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: %v", lineNo, err)
			}
			v, err := strconv.ParseUint(fields[2], 10, 32)
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: %v", lineNo, err)
			}
			if err := checkID(u); err != nil {
				return nil, err
			}
			if err := checkID(v); err != nil {
				return nil, err
			}
			key := [2]uint64{u, v}
			if v < u {
				key = [2]uint64{v, u}
			}
			if first, dup := seenEdges[key]; dup {
				return nil, fmt.Errorf("graph: line %d: duplicate edge (%d,%d) (first at line %d)", lineNo, u, v, first)
			}
			seenEdges[key] = lineNo
			b.AddEdge(VertexID(u), VertexID(v))
		default:
			return nil, fmt.Errorf("graph: line %d: unknown record %q", lineNo, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("graph: reading labeled graph: %w", err)
	}
	return b.Build()
}

// LoadFile loads a graph from path, dispatching on extension:
// ".lg" labeled format, anything else edge list.
func LoadFile(path string) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	// The loaders' scanners start small (a query is ~100 bytes); a graph
	// file is still read a megabyte at a time.
	r := bufio.NewReaderSize(f, 1<<20)
	if strings.HasSuffix(path, ".lg") {
		return LoadLabeled(r)
	}
	return LoadEdgeList(r)
}

// WriteLabeled writes g in the "t/v/e" format.
func WriteLabeled(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "t %d %d\n", g.NumVertices(), g.NumEdges())
	for v := 0; v < g.NumVertices(); v++ {
		fmt.Fprintf(bw, "v %d", v)
		for _, l := range g.Labels(VertexID(v)) {
			fmt.Fprintf(bw, " %d", l)
		}
		fmt.Fprintln(bw)
	}
	var werr error
	g.Edges(func(u, v VertexID) bool {
		_, werr = fmt.Fprintf(bw, "e %d %d\n", u, v)
		return werr == nil
	})
	if werr != nil {
		return werr
	}
	return bw.Flush()
}

// Binary CSR format (".csr"): the on-disk layout used by the shared-storage
// distributed mode (Section 5 of the paper keeps one CSR copy on a lustre
// filesystem and locates adjacency lists via a beginning_position array).
//
// Layout (little endian):
//   magic "CECICSR1" (8 bytes)
//   n uint64, m2 uint64 (directed half-edge count), numLabels uint64
//   offsets [n+1]int64
//   neighbors [m2]uint32
//   labels [n]uint32

var csrMagic = [8]byte{'C', 'E', 'C', 'I', 'C', 'S', 'R', '1'}

// WriteCSR serializes g into the binary CSR format.
func WriteCSR(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(csrMagic[:]); err != nil {
		return err
	}
	hdr := []uint64{uint64(g.NumVertices()), uint64(len(g.neighbors)), uint64(g.numLabels)}
	for _, x := range hdr {
		if err := binary.Write(bw, binary.LittleEndian, x); err != nil {
			return err
		}
	}
	if err := binary.Write(bw, binary.LittleEndian, g.offsets); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, g.neighbors); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, g.labels); err != nil {
		return err
	}
	return bw.Flush()
}

// ReadCSR deserializes a graph written by WriteCSR.
func ReadCSR(r io.Reader) (*Graph, error) {
	br := bufio.NewReader(r)
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("graph: csr header: %w", err)
	}
	if magic != csrMagic {
		return nil, fmt.Errorf("graph: bad csr magic %q", magic)
	}
	var n, m2, nl uint64
	for _, p := range []*uint64{&n, &m2, &nl} {
		if err := binary.Read(br, binary.LittleEndian, p); err != nil {
			return nil, fmt.Errorf("graph: csr header: %w", err)
		}
	}
	const maxReasonable = 1 << 34
	if n > maxReasonable || m2 > maxReasonable {
		return nil, fmt.Errorf("graph: csr header implausible (n=%d m2=%d)", n, m2)
	}
	g := &Graph{
		offsets:   make([]int64, n+1),
		neighbors: make([]VertexID, m2),
		labels:    make([]Label, n),
		numLabels: int(nl),
	}
	if err := binary.Read(br, binary.LittleEndian, g.offsets); err != nil {
		return nil, fmt.Errorf("graph: csr offsets: %w", err)
	}
	if err := binary.Read(br, binary.LittleEndian, g.neighbors); err != nil {
		return nil, fmt.Errorf("graph: csr neighbors: %w", err)
	}
	if err := binary.Read(br, binary.LittleEndian, g.labels); err != nil {
		return nil, fmt.Errorf("graph: csr labels: %w", err)
	}
	for _, l := range g.labels {
		if uint64(l) >= nl {
			return nil, fmt.Errorf("graph: csr label %d out of range", l)
		}
	}
	g.indexLabels()
	return g, nil
}
