package graph

import (
	"bufio"
	"cmp"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"

	"ceci/internal/bitset"
)

// Text formats
//
// Edge list (unlabeled):      one "u v" pair per line; '#' comments.
// Labeled graph (.lg):        header "t <n> <m>", then "v <id> <label...>"
//                             lines and "e <u> <v>" lines — the format used
//                             by the subgraph-matching literature's query
//                             sets (and by TurboIso/CFLMatch artifacts).

// lines reads text a line at a time, as bufio.Scanner does, with lines
// of up to 1 MiB, and splits each line into fields where strings.Fields
// would, without making a string of it.
type lines struct {
	sc   *bufio.Scanner
	no   int    // the current line's number, from 1
	line []byte // the current line as read
	wide []byte // the current line with Unicode spaces made ASCII
}

func newLines(r io.Reader) *lines {
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<20) // grown on demand; a line may be up to 1 MiB
	return &lines{sc: sc}
}

// scan advances to the next line and returns its fields.
func (ls *lines) scan() (fields, bool) {
	if !ls.sc.Scan() {
		return fields{}, false
	}
	ls.no++
	ls.line = ls.sc.Bytes()
	for _, c := range ls.line {
		if c >= utf8.RuneSelf {
			return fields{ls.asciiSpaces()}, true
		}
	}
	return fields{ls.line}, true
}

// asciiSpaces returns a copy of the line in which every Unicode space
// strings.Fields splits on is replaced by as many ASCII spaces as it has
// bytes, so the fields are the same bytes.
func (ls *lines) asciiSpaces() []byte {
	ls.wide = append(ls.wide[:0], ls.line...)
	for i := 0; i < len(ls.wide); {
		r, size := utf8.DecodeRune(ls.wide[i:])
		if unicode.IsSpace(r) {
			for k := range size {
				ls.wide[i+k] = ' '
			}
		}
		i += size
	}
	return ls.wide
}

// trimmed is the current line as the error messages quote it.
func (ls *lines) trimmed() string { return strings.TrimSpace(string(ls.line)) }

// asciiSpace marks the ASCII bytes unicode.IsSpace reports.
var asciiSpace = [256]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// fields walks the space-separated fields of one line in place.
type fields struct{ rest []byte }

// next returns the next field, or an empty one past the last.
func (f *fields) next() []byte {
	b := f.rest
	i := 0
	for i < len(b) && asciiSpace[b[i]] {
		i++
	}
	j := i
	for j < len(b) && !asciiSpace[b[j]] {
		j++
	}
	f.rest = b[j:]
	return b[i:j]
}

// parseUint32 is strconv.ParseUint(string(b), 10, 32) without the string:
// decimal digits below 2^32 are read in place, and anything else goes to
// strconv for its value or its error.
func parseUint32(b []byte) (uint64, error) {
	if len(b) > 0 && len(b) <= 10 {
		x := uint64(0)
		for _, c := range b {
			if c < '0' || c > '9' {
				return strconv.ParseUint(string(b), 10, 32)
			}
			x = x*10 + uint64(c-'0')
		}
		if x <= math.MaxUint32 {
			return x, nil
		}
	}
	return strconv.ParseUint(string(b), 10, 32)
}

// LoadEdgeList reads an unlabeled edge list from r.
func LoadEdgeList(r io.Reader) (*Graph, error) {
	b := &Builder{}
	ls := newLines(r)
	for {
		f, ok := ls.scan()
		if !ok {
			break
		}
		first := f.next()
		if len(first) == 0 || first[0] == '#' || first[0] == '%' {
			continue
		}
		second := f.next()
		if len(second) == 0 {
			return nil, fmt.Errorf("graph: edge list line %d: want 2 fields, got %q", ls.no, ls.trimmed())
		}
		u, err := parseUint32(first)
		if err != nil {
			return nil, fmt.Errorf("graph: edge list line %d: %v", ls.no, err)
		}
		v, err := parseUint32(second)
		if err != nil {
			return nil, fmt.Errorf("graph: edge list line %d: %v", ls.no, err)
		}
		b.AddEdge(VertexID(u), VertexID(v))
	}
	if err := ls.sc.Err(); err != nil {
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
// mis-generated artifact. Of several faults, the one on the earliest line
// is reported.
func LoadLabeled(r io.Reader) (*Graph, error) { return LoadLabeledMax(r, math.MaxUint32+1) }

// LoadLabeledMax is LoadLabeled for text from outside the program: a
// vertex ID at or beyond maxVertices is an error. The builder allocates
// up to the largest ID it is given, so without the bound one line
// ("v 4294967295 0") costs gigabytes.
//
// Duplicate edges are not looked up as they are read: the edges go into
// the builder in line order, and the sorted adjacency rows show whether
// any repeats. Only then, or when another fault stops the load, are the
// lines of the first repeat worked out (edgeRepeats.first).
func LoadLabeledMax(r io.Reader, maxVertices int64) (*Graph, error) {
	b := &Builder{}
	ls := newLines(r)
	reps := edgeRepeats{edges: &b.edges}
	fail := func(err error) (*Graph, error) {
		if dup := reps.first(); dup != nil {
			return nil, dup
		}
		return nil, err
	}
	declaredV := int64(-1)
	// declared has bit id set once a line declares vertex id.
	var declared bitset.Bits
	checkID := func(id uint64) error {
		if declaredV >= 0 && id >= uint64(declaredV) {
			return fmt.Errorf("graph: line %d: vertex %d out of range [0,%d) declared by header", ls.no, id, declaredV)
		}
		if id >= uint64(maxVertices) {
			return fmt.Errorf("graph: line %d: vertex %d beyond the %d vertices accepted", ls.no, id, maxVertices)
		}
		return nil
	}
	for {
		f, ok := ls.scan()
		if !ok {
			break
		}
		rec := f.next()
		if len(rec) == 0 || rec[0] == '#' {
			continue
		}
		kind := byte(0)
		if len(rec) == 1 {
			kind = rec[0]
		}
		switch kind {
		case 't':
			nf, mf := f.next(), f.next()
			switch {
			case len(nf) == 0:
				// bare section marker; counts unknown
			case len(mf) > 0:
				n, err := strconv.ParseInt(string(nf), 10, 32)
				if err != nil || n < 0 {
					return fail(fmt.Errorf("graph: line %d: malformed header vertex count %q", ls.no, nf))
				}
				if _, err := strconv.ParseInt(string(mf), 10, 64); err != nil {
					return fail(fmt.Errorf("graph: line %d: malformed header edge count %q", ls.no, mf))
				}
				declaredV = n
			default:
				return fail(fmt.Errorf("graph: line %d: malformed header %q (want \"t <vertices> <edges>\")", ls.no, ls.trimmed()))
			}
		case 'v':
			idf, lf := f.next(), f.next()
			if len(lf) == 0 {
				return fail(fmt.Errorf("graph: line %d: vertex needs id and label", ls.no))
			}
			id, err := parseUint32(idf)
			if err != nil {
				return fail(fmt.Errorf("graph: line %d: %v", ls.no, err))
			}
			if err := checkID(id); err != nil {
				return fail(err)
			}
			for uint64(len(declared)) <= id>>6 {
				declared = append(declared, 0)
			}
			if declared.Get(uint32(id)) {
				return fail(fmt.Errorf("graph: line %d: duplicate vertex %d", ls.no, id))
			}
			declared.Set(uint32(id))
			for primary := true; len(lf) > 0; lf, primary = f.next(), false {
				// some variants append a degree column; accept pure ints only
				l, err := parseUint32(lf)
				if err != nil {
					return fail(fmt.Errorf("graph: line %d: %v", ls.no, err))
				}
				if l > MaxLabelValue {
					return fail(fmt.Errorf("graph: line %d: label %d out of range [0,%d]", ls.no, l, MaxLabelValue))
				}
				if primary {
					b.SetLabel(VertexID(id), Label(l))
				} else {
					b.AddExtraLabel(VertexID(id), Label(l))
				}
			}
		case 'e':
			uf, vf := f.next(), f.next()
			if len(vf) == 0 {
				return fail(fmt.Errorf("graph: line %d: edge needs two endpoints", ls.no))
			}
			u, err := parseUint32(uf)
			if err != nil {
				return fail(fmt.Errorf("graph: line %d: %v", ls.no, err))
			}
			v, err := parseUint32(vf)
			if err != nil {
				return fail(fmt.Errorf("graph: line %d: %v", ls.no, err))
			}
			if err := checkID(u); err != nil {
				return fail(err)
			}
			if err := checkID(v); err != nil {
				return fail(err)
			}
			reps.add(VertexID(u), VertexID(v), ls.no)
			b.AddEdge(VertexID(u), VertexID(v))
		default:
			return fail(fmt.Errorf("graph: line %d: unknown record %q", ls.no, rec))
		}
	}
	if err := ls.sc.Err(); err != nil {
		return fail(fmt.Errorf("graph: reading labeled graph: %w", err))
	}
	if reps.loopRepeats() {
		return nil, reps.first()
	}
	return b.build(reps.first)
}

// edgeRepeats finds the first line of a labeled graph that repeats an
// edge of an earlier line, in either orientation, from the builder's edge
// list (in line order) and as little as it takes to recover the lines.
type edgeRepeats struct {
	edges *pairs
	// runs maps an edge's position in edges to its line: one entry per
	// run of edges read from consecutive lines.
	runs []lineRun
	// loops holds each "e v v" line: not an edge, but a repeat of one is
	// an error all the same.
	loops []selfLoop
}

// lineRun says that edges from position edge on were read from
// consecutive lines, starting at line.
type lineRun struct{ edge, line int }

type selfLoop struct {
	v    VertexID
	line int
}

// add records that line holds edge (u, v), before the builder adds it.
func (r *edgeRepeats) add(u, v VertexID, line int) {
	if u == v {
		r.loops = append(r.loops, selfLoop{u, line})
		return
	}
	edge := r.edges.n
	if k := len(r.runs); k > 0 && line-r.runs[k-1].line == edge-r.runs[k-1].edge {
		return
	}
	r.runs = append(r.runs, lineRun{edge, line})
}

// loopRepeats reports whether a self loop was given twice.
func (r *edgeRepeats) loopRepeats() bool {
	if len(r.loops) < 2 {
		return false
	}
	vs := make([]VertexID, len(r.loops))
	for i, l := range r.loops {
		vs[i] = l.v
	}
	slices.Sort(vs)
	for i := 1; i < len(vs); i++ {
		if vs[i] == vs[i-1] {
			return true
		}
	}
	return false
}

// first returns the error a check of each line as it was read would have
// stopped at — the earliest line repeating an edge, with the line that
// first gave it — or nil if no edge repeats.
func (r *edgeRepeats) first() error {
	type occurrence struct {
		lo, hi VertexID // the edge, smaller endpoint first
		line   int
		u, v   VertexID // the edge as the line gives it
	}
	all := make([]occurrence, 0, r.edges.n+len(r.loops))
	run := 0
	for _, c := range r.edges.chunks {
		for i := 0; i < len(c); i += 2 {
			edge := len(all)
			for run+1 < len(r.runs) && r.runs[run+1].edge <= edge {
				run++
			}
			u, v := c[i], c[i+1]
			all = append(all, occurrence{min(u, v), max(u, v), r.runs[run].line + edge - r.runs[run].edge, u, v})
		}
	}
	for _, l := range r.loops {
		all = append(all, occurrence{l.v, l.v, l.line, l.v, l.v})
	}
	slices.SortFunc(all, func(a, b occurrence) int {
		return cmp.Or(cmp.Compare(a.lo, b.lo), cmp.Compare(a.hi, b.hi), cmp.Compare(a.line, b.line))
	})
	var repeat, first *occurrence
	start := 0
	for i := 1; i < len(all); i++ {
		if all[i].lo != all[start].lo || all[i].hi != all[start].hi {
			start = i
			continue
		}
		if repeat == nil || all[i].line < repeat.line {
			repeat, first = &all[i], &all[start]
		}
	}
	if repeat == nil {
		return nil
	}
	return fmt.Errorf("graph: line %d: duplicate edge (%d,%d) (first at line %d)", repeat.line, repeat.u, repeat.v, first.line)
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
