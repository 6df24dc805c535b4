package obs

import (
	"encoding/hex"
	"encoding/json"
	"strconv"
	"time"
)

// Trace is one finished request's spans as a flight record keeps them:
// the trees this process recorded, detached from the tracer but still
// the spans it recorded, and — on a shard router — the subtree of every
// shard that answered, as the bytes its leg reply carried. Nothing is
// snapshotted, decoded or stitched until Nodes is called, which is when
// somebody reads /tracez; a request pays for the spans it opened and no
// more.
type Trace struct {
	tracer *Tracer
	roots  []*Span   // never empty
	at     time.Time // when the trees left the tracer: "now" for a span still open
	remote [][]byte  // each a JSON array of flat span objects (AppendJSON's form)
}

// Detach removes every root span of trace tid from the tracer's live
// forest and returns them as a Trace, or nil if there are none — so a
// long-running server that files each completed query in its flight
// recorder does not accumulate spans without bound.
func (t *Tracer) Detach(tid TraceID) *Trace {
	if t == nil || tid.IsZero() {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var roots []*Span
	keep := t.roots[:0]
	for _, r := range t.roots {
		if r.tc.TraceID == tid {
			roots = append(roots, r)
		} else {
			keep = append(keep, r)
		}
	}
	clear(t.roots[len(keep):])
	t.roots = keep
	if roots == nil {
		return nil
	}
	return &Trace{tracer: t, roots: roots, at: time.Now()}
}

// AddRemote attaches the spans another process recorded for this trace,
// in the form AppendJSON writes. The bytes are kept, not parsed. Call it
// before the Trace is shared. Safe on nil.
func (tr *Trace) AddRemote(spans []byte) {
	if tr != nil {
		tr.remote = append(tr.remote, spans)
	}
}

// Nodes snapshots the trace as a stitched forest: this process's trees
// with every remote subtree re-rooted under the span that caused it (see
// Stitch). A remote member that does not decode costs that subtree only.
func (tr *Trace) Nodes() []*SpanNode {
	if tr == nil {
		return nil
	}
	t := tr.tracer
	t.mu.Lock()
	nodes := make([]*SpanNode, 0, len(tr.roots))
	for _, r := range tr.roots {
		nodes = append(nodes, r.snapshotLocked(t, tr.at))
	}
	t.mu.Unlock()
	for _, raw := range tr.remote {
		var flat []*SpanNode
		if json.Unmarshal(raw, &flat) != nil {
			continue
		}
		for _, n := range flat {
			if n != nil {
				n.Children = nil // flat records must not smuggle in nesting
				nodes = append(nodes, n)
			}
		}
	}
	return Stitch(nodes)
}

// AppendJSON appends this process's spans of the trace as one JSON
// array of flat objects — a span each, depth first, every one naming its
// parent: each is, byte for byte, what encoding/json writes for the
// span's SpanNode with its Children nil. It walks the recorded spans themselves, so a shard can put its
// subtree on a leg reply without building the SpanNode forest first.
func (tr *Trace) AppendJSON(dst []byte) []byte {
	t := tr.tracer
	t.mu.Lock()
	defer t.mu.Unlock()
	dst = append(dst, '[')
	for _, r := range tr.roots {
		dst = r.appendFlatLocked(dst, t, tr.at)
	}
	dst[len(dst)-1] = ']' // over the last span's comma
	return dst
}

// appendFlatLocked appends s and its recorded descendants, each followed
// by a comma, with the members and omissions of a marshalled SpanNode
// whose Children are nil.
func (s *Span) appendFlatLocked(dst []byte, t *Tracer, now time.Time) []byte {
	dst = append(dst, `{"name":`...)
	dst = appendJSONString(dst, s.name)
	if !s.tc.TraceID.IsZero() {
		dst = append(dst, `,"trace_id":"`...)
		dst = hex.AppendEncode(dst, s.tc.TraceID[:])
		dst = append(dst, `","span_id":"`...)
		dst = hex.AppendEncode(dst, s.tc.SpanID[:])
		if !s.parentSp.IsZero() {
			dst = append(dst, `","parent_span_id":"`...)
			dst = hex.AppendEncode(dst, s.parentSp[:])
		}
		dst = append(dst, '"')
	}
	if len(s.attrs) > 0 {
		dst = appendAttrs(append(dst, `,"attrs":`...), s.attrs)
	}
	end := s.end
	if !s.ended {
		end = now
	}
	dst = append(dst, `,"start_us":`...)
	dst = strconv.AppendInt(dst, s.start.Sub(t.epoch).Microseconds(), 10)
	dst = append(dst, `,"dur_us":`...)
	dst = strconv.AppendInt(dst, end.Sub(s.start).Microseconds(), 10)
	if !s.ended {
		dst = append(dst, `,"running":true`...)
	}
	if s.dropped > 0 {
		dst = append(dst, `,"dropped_children":`...)
		dst = strconv.AppendInt(dst, int64(s.dropped), 10)
	}
	dst = append(dst, '}', ',')
	for _, c := range s.children {
		dst = c.appendFlatLocked(dst, t, now)
	}
	return dst
}

// appendAttrs appends a non-empty attribute list as the JSON object
// encoding/json writes for attrMap of it: keys sorted, the last value
// of a repeated key.
func appendAttrs(dst []byte, attrs []Attr) []byte {
	var buf [8]Attr // more than any span in the tree carries
	sorted := append(buf[:0], attrs...)
	for i := 1; i < len(sorted); i++ { // insertion sort: stable, so repeats keep their order
		for j := i; j > 0 && sorted[j].Key < sorted[j-1].Key; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	dst = append(dst, '{')
	for i, a := range sorted {
		if i+1 < len(sorted) && sorted[i+1].Key == a.Key {
			continue
		}
		dst = append(appendJSONString(dst, a.Key), ':')
		if a.isNum {
			dst = append(strconv.AppendInt(append(dst, '"'), a.num, 10), '"')
		} else {
			dst = appendJSONString(dst, a.str)
		}
		dst = append(dst, ',')
	}
	dst[len(dst)-1] = '}'
	return dst
}

// appendJSONString appends s as encoding/json quotes it. Span names,
// attribute keys and nearly every value are plain printable ASCII and
// are copied; anything else goes through encoding/json itself.
func appendJSONString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			b, _ := json.Marshal(s) // a string always marshals
			return append(dst, b...)
		}
	}
	return append(append(append(dst, '"'), s...), '"')
}
