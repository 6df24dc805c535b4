package obs

import (
	"encoding/json"
	"strings"
	"testing"
)

// legTrace records the spans of one shard leg — service-query, enumerate,
// six clusters — under a remote parent and, when odd is set, with values
// an encoder has to get right: a repeated key, text encoding/json
// escapes, an empty key.
func legTrace(t testing.TB, odd bool) (*Tracer, *Trace) {
	tc, err := ParseTraceparent("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTracer(TracerOptions{MaxChildren: 6})
	root := tr.StartRemote(tc, "service-query", Int("query_vertices", 3))
	root.Annotate(String("cache_hit", "true"), String("query_hash", "00f067aa0ba902b7"))
	enum := root.Child("enumerate", String("strategy", "FGD"), Int("units", 8), Int("workers", 1))
	for i := int64(0); i < 8; i++ { // two past the cap: counted, not recorded
		enum.Child("cluster", Int("pivot", 1000*i), Int("depth", 1), Int("card", -170), Int("worker", 0)).End()
	}
	if odd {
		enum.Annotate(String("units", "eight"), String("note", "<é> & \"\\u0065\" \u2028\x7f\n"), String("", ""))
	}
	enum.End()
	root.Annotate(Int("outcome", 200), Int("admission_wait_us", 0))
	root.End()
	tr.Start("somebody else's").End()
	return tr, tr.Detach(tc.TraceID)
}

// flatArray is the reference for AppendJSON's form, written with
// encoding/json: nodes and their descendants depth first, each
// marshalled with its Children nil and naming its parent, as one array.
func flatArray(t *testing.T, nodes []*SpanNode) string {
	t.Helper()
	var elems []string
	var walk func(n *SpanNode, parent string)
	walk = func(n *SpanNode, parent string) {
		flat := *n
		flat.Children = nil
		if flat.ParentSpanID == "" {
			flat.ParentSpanID = parent
		}
		b, err := json.Marshal(&flat)
		if err != nil {
			t.Fatal(err)
		}
		elems = append(elems, string(b))
		for _, c := range n.Children {
			walk(c, n.SpanID)
		}
	}
	for _, n := range nodes {
		walk(n, "")
	}
	return "[" + strings.Join(elems, ",") + "]"
}

// TestDetachMovesTheTraceOut: Detach takes a trace's roots — and only
// that trace's — out of the tracer; what it returns snapshots to the
// tree the tracer held.
func TestDetachMovesTheTraceOut(t *testing.T) {
	tr, leg := legTrace(t, true)
	if rest := tr.Tree(); len(rest) != 1 || rest[0].Name != "somebody else's" {
		t.Fatalf("tracer holds %d roots after Detach, want the other trace's one", len(rest))
	}
	if tr.Detach(leg.roots[0].tc.TraceID) != nil || tr.Detach(TraceID{}) != nil || (*Tracer)(nil).Detach(tr.TraceID()) != nil {
		t.Fatal("Detach found a trace that is not there")
	}
	nodes := leg.Nodes()
	if len(nodes) != 1 || nodes[0].Name != "service-query" || nodes[0].ParentSpanID != "00f067aa0ba902b7" ||
		nodes[0].Attrs["outcome"] != "200" || nodes[0].Running {
		t.Fatalf("root = %+v", nodes[0])
	}
	enum := nodes[0].Children[0]
	if enum.Name != "enumerate" || len(enum.Children) != 6 || enum.Dropped != 2 || enum.Attrs["units"] != "eight" ||
		enum.Children[5].Attrs["pivot"] != "5000" || enum.Children[5].ParentSpanID != enum.SpanID {
		t.Fatalf("enumerate = %+v", enum)
	}
	if (*Trace)(nil).Nodes() != nil {
		t.Fatal("a nil Trace has spans")
	}

	// A span still open when its trace is detached reads as it did then.
	open := tr.Start("left open")
	detached := tr.Detach(tr.TraceID())
	open.End()
	if n := detached.Nodes(); len(n) != 2 || n[1].Name != "left open" || n[1].Running {
		t.Fatalf("a span ended after Detach: %+v", n)
	}
	tr.Start("never ended")
	if n := tr.Detach(tr.TraceID()).Nodes(); !n[0].Running || n[0].DurUS < 0 {
		t.Fatalf("a span never ended: %+v", n[0])
	}
}

// TestAppendJSONIsEncodingJSON: the append encoder over the recorded
// spans writes, element for element, the bytes encoding/json writes for
// their snapshot — escapes, sorted attributes, the last of a repeated
// key, omitted members and all.
func TestAppendJSONIsEncodingJSON(t *testing.T) {
	tr, leg := legTrace(t, true)
	tr.Start("open").Child("also open", Int("n", 1))
	for name, trace := range map[string]*Trace{"ended": leg, "running": tr.Detach(tr.TraceID())} {
		got := string(trace.AppendJSON([]byte("spans:")))
		if want := "spans:" + flatArray(t, trace.Nodes()); got != want {
			t.Errorf("%s:\n got %s\nwant %s", name, got, want)
		}
	}
}

// TestRemoteSpansDecodedOnRead: a router's Trace holds its shards'
// subtrees as the bytes they arrived as; Nodes decodes and stitches
// them, and one that is not spans costs that subtree only.
func TestRemoteSpansDecodedOnRead(t *testing.T) {
	_, leg := legTrace(t, true)
	router := NewTracer(TracerOptions{})
	route := router.StartRemote(TraceContext{TraceID: leg.roots[0].tc.TraceID}, "route-query")
	scatter := route.Child("scatter")
	scatter.tc.SpanID = leg.roots[0].parentSp // the span the leg was sent under
	scatter.End()
	route.End()
	trace := router.Detach(route.tc.TraceID)
	trace.AddRemote([]byte(`[{"name":5}]`))
	trace.AddRemote(leg.AppendJSON(nil))
	trace.AddRemote([]byte(`[null,{"name":"smuggler","span_id":"0000000000000001","children":[{"name":"nested"}]}]`))
	(*Trace)(nil).AddRemote(nil)

	nodes := trace.Nodes()
	if len(nodes) != 2 || nodes[0].Name != "route-query" || nodes[1].Name != "smuggler" || nodes[1].Children != nil {
		t.Fatalf("forest = %d roots: %+v", len(nodes), nodes)
	}
	adopted := nodes[0].Children[0].Children
	if len(adopted) != 1 || adopted[0].Name != "service-query" || len(adopted[0].Children[0].Children) != 6 {
		t.Fatalf("the scatter span adopted %+v", adopted)
	}
	if got, want := flatArray(t, adopted), flatArray(t, leg.Nodes()); got != want {
		t.Errorf("the shard's subtree changed in transit:\n got %s\nwant %s", got, want)
	}
}

// TestSpanAllocs: a span nobody is listening to costs a struct and its
// attributes, not an event map per start and end — 2 allocations to open
// (the span, its attribute slice; the parent's child list grows now and
// then), 1 to annotate (the attribute list growing), 0 to end — and
// putting a leg's eight spans on a reply costs none once the buffer has
// grown. The bound leaves the race detector's runtime its slack.
func TestSpanAllocs(t *testing.T) {
	tr := NewTracer(TracerOptions{MaxChildren: 1 << 20})
	root := tr.Start("enumerate")
	if n := testing.AllocsPerRun(1000, func() {
		s := root.Child("cluster", Int("pivot", 70000), Int("depth", 1), Int("card", 170), Int("worker", 0))
		s.Annotate(String("replica", "http://127.0.0.1:9000"))
		s.End()
	}); n > 5 {
		t.Errorf("start + annotate + end: %v allocations, want 3 (<= 5)", n)
	}

	_, leg := legTrace(t, false)
	buf := leg.AppendJSON(nil)
	if n := testing.AllocsPerRun(1000, func() { buf = leg.AppendJSON(buf[:0]) }); n != 0 {
		t.Errorf("AppendJSON into a grown buffer: %v allocations, want 0", n)
	}
}

func BenchmarkSpanStartEnd(b *testing.B) {
	tr := NewTracer(TracerOptions{MaxChildren: 1 << 30})
	root := tr.Start("enumerate")
	b.ReportAllocs()
	for b.Loop() {
		root.Child("cluster", Int("pivot", 70000), Int("depth", 1), Int("card", 170), Int("worker", 0)).End()
	}
}

func BenchmarkTraceAppendJSON(b *testing.B) {
	_, leg := legTrace(b, false)
	buf := leg.AppendJSON(nil)
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	for b.Loop() {
		buf = leg.AppendJSON(buf[:0])
	}
}
