package obs

import (
	"sync"
	"testing"
	"time"
)

func TestTracerNesting(t *testing.T) {
	tr := NewTracer(TracerOptions{})
	root := tr.Start("enumerate", Int("units", 3))
	c1 := root.Child("cluster", Int("pivot", 7))
	c1.End()
	c2 := root.Child("cluster", Int("pivot", 9))
	c2.Annotate(String("note", "late"))
	c2.End()
	root.End()

	tree := tr.Tree()
	if len(tree) != 1 {
		t.Fatalf("roots = %d, want 1", len(tree))
	}
	r := tree[0]
	if r.Name != "enumerate" || r.Attrs["units"] != "3" || r.Running {
		t.Fatalf("root = %+v", r)
	}
	if len(r.Children) != 2 {
		t.Fatalf("children = %d, want 2", len(r.Children))
	}
	if r.Children[0].Attrs["pivot"] != "7" || r.Children[1].Attrs["note"] != "late" {
		t.Fatalf("children = %+v, %+v", r.Children[0], r.Children[1])
	}
}

func TestTracerOpenSpanRunning(t *testing.T) {
	tr := NewTracer(TracerOptions{})
	s := tr.Start("build")
	time.Sleep(time.Millisecond)
	tree := tr.Tree()
	if !tree[0].Running || tree[0].DurUS <= 0 {
		t.Fatalf("open span should be running with positive duration: %+v", tree[0])
	}
	s.End()
	s.End() // idempotent
	if tr.Tree()[0].Running {
		t.Fatal("ended span still running")
	}
}

func TestTracerChildCap(t *testing.T) {
	tr := NewTracer(TracerOptions{MaxChildren: 2})
	root := tr.Start("enumerate")
	for i := 0; i < 5; i++ {
		c := root.Child("cluster")
		// Detached spans must still be usable.
		c.Annotate(String("k", "v"))
		gc := c.Child("inner")
		gc.End()
		c.End()
	}
	root.End()
	n := tr.Tree()[0]
	if len(n.Children) != 2 {
		t.Fatalf("recorded children = %d, want 2", len(n.Children))
	}
	if n.Dropped != 3 {
		t.Fatalf("dropped = %d, want 3", n.Dropped)
	}
}

func TestTracerRootCap(t *testing.T) {
	tr := NewTracer(TracerOptions{MaxChildren: 1})
	tr.Start("a").End()
	tr.Start("b").End() // beyond cap: detached, not recorded
	if got := len(tr.Tree()); got != 1 {
		t.Fatalf("roots = %d, want 1", got)
	}
}

// TestTracerOnStart: the start hook sees every recorded span as it
// opens, in order, and none past a child cap; what it saw is the tree
// the tracer holds.
func TestTracerOnStart(t *testing.T) {
	var started []string
	tr := NewTracer(TracerOptions{MaxChildren: 1, OnStart: func(name string) { started = append(started, name) }})
	s := tr.Start("build", Int("n", 4))
	c := s.Child("refine")
	s.Child("beyond the cap").End()
	c.End()
	s.End()

	if len(started) != 2 || started[0] != "build" || started[1] != "refine" {
		t.Fatalf("hook saw %q, want [build refine]", started)
	}
	roots := tr.Tree()
	if len(roots) != 1 || roots[0].Name != "build" || roots[0].Attrs["n"] != "4" || roots[0].Running {
		t.Fatalf("roots = %+v", roots)
	}
	if k := roots[0].Children; len(k) != 1 || k[0].Name != "refine" || k[0].ParentSpanID != roots[0].SpanID || k[0].Running {
		t.Fatalf("children = %+v", k)
	}
}

func TestTracerNilSafe(t *testing.T) {
	var tr *Tracer
	s := tr.Start("x")
	s.Annotate(String("a", "b"))
	c := s.Child("y")
	c.End()
	s.End()
	if tr.Tree() != nil || tr.PhaseDurations() != nil {
		t.Fatal("nil tracer should snapshot to nil")
	}
}

func TestTracerConcurrent(t *testing.T) {
	tr := NewTracer(TracerOptions{})
	root := tr.Start("enumerate")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				c := root.Child("cluster", Int("worker", int64(i)))
				c.End()
			}
		}(i)
	}
	wg.Wait()
	root.End()
	n := tr.Tree()[0]
	if len(n.Children)+n.Dropped != 400 {
		t.Fatalf("children %d + dropped %d != 400", len(n.Children), n.Dropped)
	}
}

func TestPhaseDurations(t *testing.T) {
	tr := NewTracer(TracerOptions{})
	b := tr.Start("build")
	r1 := b.Child("refine")
	time.Sleep(time.Millisecond)
	r1.End()
	r2 := b.Child("refine")
	time.Sleep(time.Millisecond)
	r2.End()
	b.End()
	d := tr.PhaseDurations()
	if d["refine"] < 2*time.Millisecond {
		t.Fatalf("refine = %v, want >= 2ms", d["refine"])
	}
	if d["build"] < d["refine"] {
		t.Fatalf("build %v < refine %v", d["build"], d["refine"])
	}
}

// TestPhaseDurationsSemantics documents the chosen PhaseDurations
// contract:
//
//  1. repeated same-name spans — siblings or nested — sum into one
//     entry (flat by-name total, not a tree rollup);
//  2. still-open spans contribute their elapsed-so-far, so the map is
//     usable mid-run, and the same open spans also appear in Tree()
//     snapshots with Running=true and a positive duration;
//  3. aggregating a fully-closed trace is deterministic: repeated calls
//     return identical durations at full time resolution.
func TestPhaseDurationsSemantics(t *testing.T) {
	tr := NewTracer(TracerOptions{})

	// Nested same-name spans: an "enumerate" containing an "enumerate".
	outer := tr.Start("enumerate")
	inner := outer.Child("enumerate")
	time.Sleep(2 * time.Millisecond)
	inner.End()
	outer.End()

	// A still-open span.
	open := tr.Start("build")
	time.Sleep(time.Millisecond)

	d := tr.PhaseDurations()
	// (1) flat by-name total: outer and inner both count, so the entry
	// is at least twice the inner sleep.
	if d["enumerate"] < 4*time.Millisecond {
		t.Fatalf("nested same-name spans not summed: enumerate = %v, want >= 4ms", d["enumerate"])
	}
	// (2) the open span contributes elapsed time...
	if d["build"] <= 0 {
		t.Fatalf("open span missing from PhaseDurations: %v", d)
	}
	// ...and shows up in Tree() as running with positive elapsed time.
	var node *SpanNode
	for _, r := range tr.Tree() {
		if r.Name == "build" {
			node = r
		}
	}
	if node == nil || !node.Running || node.DurUS <= 0 {
		t.Fatalf("open span in Tree() = %+v, want Running with DurUS > 0", node)
	}
	open.End()

	// (3) determinism on a closed trace: two aggregations agree exactly.
	d1 := tr.PhaseDurations()
	d2 := tr.PhaseDurations()
	if len(d1) != len(d2) {
		t.Fatalf("aggregations differ: %v vs %v", d1, d2)
	}
	for name, v := range d1 {
		if d2[name] != v {
			t.Fatalf("non-deterministic aggregation for %s: %v vs %v", name, v, d2[name])
		}
	}
}
