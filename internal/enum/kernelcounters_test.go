package enum_test

import (
	"testing"

	"ceci/internal/ceci"
	"ceci/internal/enum"
	"ceci/internal/gen"
	"ceci/internal/order"
	"ceci/internal/prof"
)

// TestKernelCountersAccountAllWork: the per-kernel scanned/call counters
// drained from the enumeration scratches must be internally consistent —
// calls sum to the intersection count and scanned work is nonzero
// whenever intersections ran.
func TestKernelCountersAccountAllWork(t *testing.T) {
	data := gen.Kronecker(8, 8, 1)
	query := gen.QG3()
	tree, err := order.Preprocess(data, query, order.DefaultOptions())
	if err != nil {
		t.Fatalf("Preprocess: %v", err)
	}
	collector := prof.New()
	ix := ceci.Build(data, tree, ceci.Options{Profile: collector})
	enum.NewMatcher(ix, enum.Options{Workers: 4, Profile: collector}).Count()
	p := collector.Snapshot()

	var intersections, kernelCalls, scanned int64
	for _, v := range p.Vertices {
		intersections += v.Enum.Intersections
		scanned += v.Enum.Scanned
		for _, k := range v.Enum.Kernels {
			kernelCalls += k.Calls
		}
	}
	if intersections == 0 {
		t.Fatal("fixture produced no intersections; pick a denser one")
	}
	// Every charged intersection runs at most one kernel call (IntersectK
	// stops early once an intermediate comes up empty, so calls can fall
	// short of the charge, never past it). Kernel calls above the charge
	// would mean work ran outside the adaptive dispatch's accounting.
	if kernelCalls > intersections {
		t.Fatalf("kernel calls %d > intersections %d: work escaped the per-kernel accounting", kernelCalls, intersections)
	}
	if kernelCalls == 0 {
		t.Fatal("no kernel calls recorded despite intersections")
	}
	if scanned == 0 {
		t.Fatal("no scanned work recorded despite intersections")
	}
	totals := p.FunnelTotals()
	if totals["enum_scanned"] != scanned {
		t.Fatalf("FunnelTotals enum_scanned %d != summed %d", totals["enum_scanned"], scanned)
	}
}

// TestKernelCountersDeterministic: two identical profiled runs must
// record identical kernel splits (they are pure functions of the inputs,
// regardless of worker interleaving).
func TestKernelCountersDeterministic(t *testing.T) {
	data := gen.Kronecker(7, 7, 2)
	query := gen.QG3()
	run := func() map[string]int64 {
		tree, err := order.Preprocess(data, query, order.DefaultOptions())
		if err != nil {
			t.Fatalf("Preprocess: %v", err)
		}
		collector := prof.New()
		ix := ceci.Build(data, tree, ceci.Options{Profile: collector})
		enum.NewMatcher(ix, enum.Options{Workers: 4, Profile: collector}).Count()
		return collector.Snapshot().FunnelTotals()
	}
	a, b := run(), run()
	for _, key := range []string{
		"enum_comparisons", "enum_scanned",
		"enum_kernel_merge_calls", "enum_kernel_gallop_calls", "enum_kernel_probe_calls",
		"enum_kernel_merge_scanned", "enum_kernel_gallop_scanned", "enum_kernel_probe_scanned",
	} {
		if a[key] != b[key] {
			t.Fatalf("%s nondeterministic: %d vs %d", key, a[key], b[key])
		}
	}
}
