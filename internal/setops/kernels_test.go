package setops_test

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"ceci/internal/setops"

	"ceci/internal/bitset"
)

// naiveIntersect is the reference oracle every kernel is checked against:
// the simplest possible two-pointer walk, no unrolling, no skipping.
func naiveIntersect(a, b []uint32) []uint32 {
	var out []uint32
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

var allKernels = []setops.Kernel{setops.KernelMerge, setops.KernelGallop}

// checkAllKernels asserts that both kernels produce exactly the
// reference intersection for (a, b), with and without a scratch, that
// the recorded stats are attributed to the kernel that ran, that the
// counting IntersectionSize agrees, and that so does the bitmap probe.
func checkAllKernels(t *testing.T, a, b []uint32) {
	t.Helper()
	want := naiveIntersect(a, b)
	for _, k := range allKernels {
		got := setops.IntersectWith(k, nil, a, b, nil)
		if !equal(got, want) {
			t.Fatalf("kernel %v: got %v want %v\na=%v\nb=%v", k, got, want, a, b)
		}
		var sc setops.Scratch
		got = setops.IntersectWith(k, nil, a, b, &sc)
		if !equal(got, want) {
			t.Fatalf("kernel %v (scratch): got %v want %v", k, got, want)
		}
		if len(a) > 0 && len(b) > 0 {
			if sc.Stats.Calls[k] != 1 {
				t.Fatalf("kernel %v: stats recorded under wrong kernel: %+v", k, sc.Stats)
			}
			if sc.Stats.Emitted[k] != int64(len(want)) {
				t.Fatalf("kernel %v: emitted %d want %d", k, sc.Stats.Emitted[k], len(want))
			}
		}
	}
	if n := setops.IntersectionSize(a, b); n != len(want) {
		t.Fatalf("IntersectionSize: got %d want %d\na=%v\nb=%v", n, len(want), a, b)
	}
	checkFilledSpan(t, a, b, want)
}

// checkFilledSpan drives the probe-against-a-filled-bitmap entry point:
// once FillSpan has accepted a, IntersectSpan of any b — values below,
// inside and above the bitmap's window, up to MaxUint32, or none at all —
// is the reference intersection, recorded as one probe call. FillSpan
// declines an empty list, and a span nothing was filled into intersects
// to nothing.
func checkFilledSpan(t *testing.T, a, b, want []uint32) {
	t.Helper()
	var sp bitset.Span
	var sc setops.Scratch
	if got := setops.IntersectSpan(nil, &sp, b, &sc); len(got) != 0 {
		t.Fatalf("unfilled span intersects to %v", got)
	}
	if !setops.FillSpan(&sp, a, &sc) {
		return // declined: empty, or too sparse to be worth a bitmap
	}
	if len(a) == 0 {
		t.Fatal("FillSpan accepted an empty list")
	}
	if sc.Stats.Calls[setops.KernelProbe] != 0 || sc.Stats.Scanned[setops.KernelProbe] != int64(len(a)) {
		t.Fatalf("fill of %d elements charged %+v", len(a), sc.Stats)
	}
	for round := 0; round < 2; round++ { // the bitmap serves any number of calls
		got := setops.IntersectSpan(nil, &sp, b, &sc)
		if !equal(got, want) {
			t.Fatalf("filled span: got %v want %v\na=%v\nb=%v", got, want, a, b)
		}
	}
	if len(b) > 0 && (sc.Stats.Calls[setops.KernelProbe] != 2 || sc.Stats.Emitted[setops.KernelProbe] != 2*int64(len(want))) {
		t.Fatalf("filled span: two calls emitting %d each recorded as %+v", len(want), sc.Stats)
	}
	// The probe writes every element of its window and advances by the
	// element's bit, so three things must hold of dst. It may be b rewound:
	// the write index never passes the read index.
	alias := slices.Clone(b)
	if got := setops.IntersectSpan(alias[:0], &sp, alias, nil); !equal(got, want) {
		t.Fatalf("filled span, dst = b[:0]: got %v want %v", got, want)
	}
	// A dst with less capacity than the window is replaced, not written past
	// its capacity (the guard word after it stays put).
	lo := sort.Search(len(b), func(i int) bool { return b[i] >= sp.Lo() })
	hi := sort.Search(len(b), func(i int) bool { return b[i] > sp.Hi() })
	if short := hi - lo - 1; short >= 0 {
		const guard = 0xdeadbeef
		backing := make([]uint32, short+1)
		backing[short] = guard
		if got := setops.IntersectSpan(backing[:0:short], &sp, b, nil); !equal(got, want) || backing[short] != guard {
			t.Fatalf("filled span, dst of capacity %d under a window of %d: got %v want %v, guard %#x", short, hi-lo, got, want, backing[short])
		}
	}
	// The window may touch either end of b, or both: every element of the
	// intersection lies inside it, so trimming b to it changes nothing.
	for _, edge := range [][]uint32{b[lo:], b[:hi], b[lo:hi]} {
		if got := setops.IntersectSpan(nil, &sp, edge, nil); !equal(got, want) {
			t.Fatalf("filled span, b trimmed to %v: got %v want %v\na=%v", edge, got, want, a)
		}
	}
}

func TestKernelDifferentialOracleRandom(t *testing.T) {
	f := func(a, b sortedSet) bool {
		want := naiveIntersect(a, b)
		for _, k := range allKernels {
			if !equal(setops.IntersectWith(k, nil, a, b, nil), want) {
				return false
			}
		}
		return setops.IntersectionSize(a, b) == len(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

// ramp returns {start, start+step, start+2*step, ...} of length n.
func ramp(start, step uint32, n int) []uint32 {
	out := make([]uint32, n)
	v := start
	for i := range out {
		out[i] = v
		v += step
	}
	return out
}

// TestKernelAdversarialShapes drives every kernel through the shapes that
// historically break intersection kernels: empties, singletons, identical
// lists, disjoint ranges, extreme skew, dense runs straddling 64-bit word
// and 4096-value boundaries, and values at the top of the uint32 range
// (where window arithmetic can wrap).
func TestKernelAdversarialShapes(t *testing.T) {
	const chunk = 4096
	cases := []struct {
		name string
		a, b []uint32
	}{
		{"both empty", nil, nil},
		{"one empty", nil, []uint32{1, 2, 3}},
		{"singletons hit", []uint32{7}, []uint32{7}},
		{"singletons miss", []uint32{7}, []uint32{8}},
		{"singleton vs huge", []uint32{5000}, ramp(0, 1, 20000)},
		{"identical lists", ramp(3, 5, 1000), ramp(3, 5, 1000)},
		{"disjoint low/high", ramp(0, 1, 500), ramp(100000, 1, 500)},
		{"interleaved no overlap", ramp(0, 2, 1000), ramp(1, 2, 1000)},
		{"1:10000 skew", []uint32{0, 9999, 50000, 99990}, ramp(0, 1, 100000)},
		{"skew misses between runs", []uint32{10, 20, 30}, ramp(1000, 3, 40000)},
		{"dense straddling word boundary", ramp(60, 1, 10), ramp(62, 1, 10)},
		{"dense at word edges", []uint32{63, 64, 127, 128, 191, 192}, []uint32{64, 128, 192}},
		{"dense straddling chunk boundary", ramp(chunk-32, 1, 64), ramp(chunk-16, 1, 64)},
		{"chunk-aligned heads", ramp(chunk, 1, 100), ramp(2*chunk, 1, 100)},
		{"sparse across many chunks", ramp(0, chunk, 64), ramp(0, chunk/2, 128)},
		{"gap skips whole chunks", append(ramp(0, 1, 16), ramp(100*chunk, 1, 16)...), append(ramp(8, 1, 16), ramp(100*chunk+8, 1, 16)...)},
		{"top of uint32 range", ramp(1<<32-100, 1, 100), ramp(1<<32-50, 1, 50)},
		{"last value is MaxUint32", []uint32{1<<32 - 1}, ramp(1<<32-chunk, 7, chunk/7)},
		{"wrap probe: huge jump after dense", append(ramp(0, 1, 64), 1<<32-2, 1<<32-1), append(ramp(32, 1, 64), 1<<32-1)},
		// The probe's window (the span of whichever list fills the bitmap)
		// covering all of the other list, or reaching only its first or its
		// last element.
		{"probe window covers b", ramp(0, 1, 512), ramp(100, 3, 100)},
		{"probe window at b's start", ramp(0, 1, 512), ramp(500, 1, 200)},
		{"probe window at b's end", ramp(1000, 1, 512), ramp(0, 7, 210)},
		{"run lengths 1..5 mixed", []uint32{1, 2, 3, 10, 11, 40, 41, 42, 43, 44, 90}, []uint32{2, 3, 4, 11, 12, 13, 42, 43, 90, 91}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			checkAllKernels(t, tc.a, tc.b)
			checkAllKernels(t, tc.b, tc.a)
		})
	}
}

// TestChooseKernelBreakpoints pins the selector's decision at the
// cardinality-ratio breakpoint, and that density decides nothing — dense,
// clustered and sparse pairs of similar size all merge — so a per-call
// kernel keyed on density must be added (and benchmarked) deliberately.
func TestChooseKernelBreakpoints(t *testing.T) {
	// Sparse lists: step 100.
	sparse := func(n int) []uint32 { return ramp(0, 100, n) }
	// Dense lists: step 1 is maximal density.
	dense := func(n int) []uint32 { return ramp(0, 1, n) }
	cases := []struct {
		name string
		a, b []uint32
		want setops.Kernel
	}{
		{"empty a", nil, sparse(10), setops.KernelMerge},
		{"empty both", nil, nil, setops.KernelMerge},
		{"equal sizes gap 100", sparse(100), sparse(100), setops.KernelMerge},
		{"ratio 15 gap 100", sparse(10), sparse(150), setops.KernelMerge},
		{"ratio 16 sparse", sparse(10), sparse(160), setops.KernelGallop},
		{"ratio 16 reversed", sparse(160), sparse(10), setops.KernelGallop},
		{"ratio 1000", sparse(4), sparse(4000), setops.KernelGallop},
		// Dense inputs have no kernel of their own.
		{"dense equal sizes", dense(1000), ramp(0, 4, 1000), setops.KernelMerge},
		{"gap exactly 8", ramp(0, 16, 1000), ramp(8, 16, 1000), setops.KernelMerge},
		{"gap just past 8", ramp(0, 17, 1000), ramp(8, 17, 1000), setops.KernelMerge},
		// Spans either side of 512x the combined length:
		// 999*1024 = 1022976 <= 2000*512 = 1024000 < 999*1026.
		{"gap just under 512", ramp(0, 1024, 1000), ramp(500, 1024, 1000), setops.KernelMerge},
		{"gap just past 512", ramp(0, 1026, 1000), ramp(500, 1026, 1000), setops.KernelMerge},
		// Skew wins over density: a dense pair at ratio >= 16 still gallops.
		{"dense but skewed", dense(10), dense(160), setops.KernelGallop},
		{"disjoint dense runs", dense(100), ramp(1<<20, 1, 100), setops.KernelMerge},
		{"singleton vs singleton", []uint32{3}, []uint32{9}, setops.KernelMerge},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := setops.ChooseKernel(tc.a, tc.b); got != tc.want {
				t.Fatalf("ChooseKernel = %v, want %v", got, tc.want)
			}
		})
	}
}

func TestKernelStringNames(t *testing.T) {
	names := map[setops.Kernel]string{
		setops.KernelMerge:  "merge",
		setops.KernelGallop: "gallop",
		setops.KernelProbe:  "probe",
		setops.Kernel(99):   "unknown",
	}
	for k, want := range names {
		if got := k.String(); got != want {
			t.Fatalf("Kernel(%d).String() = %q, want %q", k, got, want)
		}
	}
}

// TestKernelStatsDeterministic asserts the work counters are pure
// functions of the inputs: two identical runs, the stats zeroed in
// between the way the enumerator's drain does, record identical work.
func TestKernelStatsDeterministic(t *testing.T) {
	lists := [][]uint32{ramp(0, 3, 2000), ramp(0, 2, 3000), ramp(0, 7, 500)}
	var sc setops.Scratch
	setops.IntersectK(&sc, lists)
	d1 := sc.Stats

	sc.Stats = setops.KernelStats{}
	setops.IntersectK(&sc, lists)
	d2 := sc.Stats

	if d1 != d2 {
		t.Fatalf("identical runs recorded different stats:\n%+v\n%+v", d1, d2)
	}
	if d1.TotalScanned() == 0 {
		t.Fatal("no scanned work recorded")
	}
	var calls int64
	for k := 0; k < setops.NumKernels; k++ {
		calls += d1.Calls[k]
	}
	if calls != 2 { // 3 lists → 2 pairwise intersections
		t.Fatalf("recorded %d calls, want 2", calls)
	}
}

// TestKernelScratchRace runs 8 workers, each reusing one Scratch and one
// span bitmap across many distinct "queries" (list pairs chosen to hit
// both kernels and the bitmap's fill gate on either side), and checks
// every result — IntersectK's and the bitmap probe's — against the
// reference. Under -race this proves per-worker scratch reuse never leaks
// state across queries or workers.
func TestKernelScratchRace(t *testing.T) {
	type query struct {
		a, b []uint32
		want []uint32
	}
	rng := rand.New(rand.NewSource(42))
	queries := make([]query, 48)
	for i := range queries {
		var a, b []uint32
		switch i % 4 {
		case 0: // dense: merge; bitmap filled
			a = ramp(uint32(rng.Intn(1000)), 1+uint32(rng.Intn(3)), 500+rng.Intn(1500))
			b = ramp(uint32(rng.Intn(1000)), 1+uint32(rng.Intn(3)), 500+rng.Intn(1500))
		case 1: // skewed: gallop; bitmap filled
			a = ramp(uint32(rng.Intn(100)), 17, 30+rng.Intn(50))
			b = ramp(0, 1, 40000)
		case 2: // clustered gap ~100: merge; bitmap filled
			a = ramp(uint32(rng.Intn(100)), 97, 1000)
			b = ramp(uint32(rng.Intn(100)), 101, 1000)
		default: // wide-span sparse: merge; bitmap declined
			a = ramp(uint32(rng.Intn(100)), 2000, 1000)
			b = ramp(uint32(rng.Intn(100)), 2003, 1000)
		}
		queries[i] = query{a, b, naiveIntersect(a, b)}
	}

	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var sc setops.Scratch
			var sp bitset.Span
			var dst []uint32
			for iter := 0; iter < 50; iter++ {
				q := queries[(w*31+iter)%len(queries)]
				got := setops.IntersectK(&sc, [][]uint32{q.a, q.b})
				if !equal(got, q.want) {
					errs <- fmt.Errorf("worker %d iter %d: got %d elems want %d", w, iter, len(got), len(q.want))
					return
				}
				if setops.FillSpan(&sp, q.a, &sc) {
					if dst = setops.IntersectSpan(dst, &sp, q.b, &sc); !equal(dst, q.want) {
						errs <- fmt.Errorf("worker %d iter %d: bitmap probe got %d elems want %d", w, iter, len(dst), len(q.want))
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestIntersectAdaptiveAgreement checks the public adaptive entry points
// agree with the oracle regardless of which kernel the selector picked.
func TestIntersectAdaptiveAgreement(t *testing.T) {
	f := func(a, b sortedSet) bool {
		want := naiveIntersect(a, b)
		return equal(setops.Intersect(nil, a, b), want) &&
			setops.IntersectionSize(a, b) == len(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 800}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkKernelMergeBalanced(b *testing.B) {
	x := ramp(0, 97, 4096)
	y := ramp(50, 101, 4096)
	benchKernel(b, setops.KernelMerge, x, y)
}

func BenchmarkKernelGallopSkewed(b *testing.B) {
	x := ramp(0, 1017, 256)
	y := ramp(0, 3, 100000)
	benchKernel(b, setops.KernelGallop, x, y)
}

// BenchmarkKernelProbeClustered probes a bitmap filled once, outside the
// loop, the way the depth cursor's outer side is probed.
func BenchmarkKernelProbeClustered(b *testing.B) {
	x := ramp(0, 97, 4096)
	y := ramp(50, 101, 4096)
	var sp bitset.Span
	var sc setops.Scratch
	if !setops.FillSpan(&sp, x, &sc) {
		b.Fatal("FillSpan declined the clustered list")
	}
	var dst []uint32
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = setops.IntersectSpan(dst, &sp, y, &sc)
	}
	sinkLen = len(dst)
}

func BenchmarkKernelAdaptive(b *testing.B) {
	x := ramp(0, 2, 8192)
	y := ramp(1, 3, 8192)
	var sc setops.Scratch
	var dst []uint32
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = setops.IntersectWith(setops.ChooseKernel(x, y), dst[:0], x, y, &sc)
	}
	sinkLen = len(dst)
}

var sinkLen int

func benchKernel(b *testing.B, k setops.Kernel, x, y []uint32) {
	var sc setops.Scratch
	var dst []uint32
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = setops.IntersectWith(k, dst[:0], x, y, &sc)
	}
	sinkLen = len(dst)
}
