package setops_test

import (
	"slices"
	"testing"
	"testing/quick"

	"ceci/internal/setops"
)

// These tests pin the package's aliasing contract: Intersect supports
// dst = a[:0] and dst = b[:0] for every kernel (writes never pass the
// read cursor).
//
// Each property test clones the inputs up front so the oracle sees the
// pre-call values even after the operation scribbles over the shared
// backing array.

func TestIntersectAliasDstA(t *testing.T) {
	f := func(a, b sortedSet) bool {
		orig := slices.Clone([]uint32(a))
		want := naiveIntersect(orig, b)
		got := setops.Intersect(a[:0], a, b)
		return equal(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestIntersectAliasDstB(t *testing.T) {
	f := func(a, b sortedSet) bool {
		orig := slices.Clone([]uint32(b))
		want := naiveIntersect(a, orig)
		got := setops.Intersect(b[:0], a, b)
		return equal(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestIntersectAliasEveryKernel forces each kernel individually through
// both rewound-alias forms on shapes that exercise its skip logic, so the
// write-cursor-behind-read-cursor invariant is proven per kernel rather
// than only for whatever the selector happens to pick.
func TestIntersectAliasEveryKernel(t *testing.T) {
	shapes := [][2][]uint32{
		{ramp(0, 1, 3000), ramp(1500, 1, 3000)},            // dense, half-overlap
		{ramp(0, 3, 5000), ramp(0, 7, 5000)},               // moderate density
		{ramp(0, 211, 40), ramp(0, 1, 8000)},               // 1:200 skew
		{ramp(0, 1, 64), ramp(0, 1, 64)},                   // identical
		{ramp(0, 1, 100), ramp(1<<20, 1, 100)},             // disjoint
		{ramp(1<<32-200, 1, 200), ramp(1<<32-100, 1, 100)}, // top of range
	}
	for _, k := range allKernels {
		for si, s := range shapes {
			a, b := s[0], s[1]
			want := naiveIntersect(a, b)

			aa := slices.Clone(a)
			if got := setops.IntersectWith(k, aa[:0], aa, b, nil); !equal(got, want) {
				t.Fatalf("kernel %v shape %d dst=a[:0]: got %d elems want %d", k, si, len(got), len(want))
			}
			bb := slices.Clone(b)
			if got := setops.IntersectWith(k, bb[:0], a, bb, nil); !equal(got, want) {
				t.Fatalf("kernel %v shape %d dst=b[:0]: got %d elems want %d", k, si, len(got), len(want))
			}
		}
	}
}

// TestIntersectKAliasFirstList: IntersectK's documented contract is that
// the result may alias lists[0] only when k == 1; with k >= 2 the result
// lives in the scratch buffers and the inputs are untouched.
func TestIntersectKAliasInputsUntouched(t *testing.T) {
	a := ramp(0, 2, 100)
	b := ramp(0, 3, 100)
	ac, bc := slices.Clone(a), slices.Clone(b)
	var sc setops.Scratch
	setops.IntersectK(&sc, [][]uint32{a, b})
	if !equal(a, ac) || !equal(b, bc) {
		t.Fatal("IntersectK mutated its inputs")
	}
}
