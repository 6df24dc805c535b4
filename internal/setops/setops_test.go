package setops_test

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"ceci/internal/setops"
)

// sortedSet is a quick.Generator producing random strictly-increasing
// uint32 slices with varied densities, so both merge and gallop paths get
// exercised.
type sortedSet []uint32

func (sortedSet) Generate(r *rand.Rand, size int) reflect.Value {
	n := r.Intn(size + 1)
	span := 1 + r.Intn(4*size+1)
	m := map[uint32]bool{}
	for i := 0; i < n; i++ {
		m[uint32(r.Intn(span))] = true
	}
	out := make(sortedSet, 0, len(m))
	for x := range m {
		out = append(out, x)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return reflect.ValueOf(out)
}

func mapIntersect(a, b []uint32) []uint32 {
	in := map[uint32]bool{}
	for _, x := range a {
		in[x] = true
	}
	var out []uint32
	for _, x := range b {
		if in[x] {
			out = append(out, x)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func equal(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestIntersectMatchesMapReference(t *testing.T) {
	f := func(a, b sortedSet) bool {
		got := setops.Intersect(nil, a, b)
		return equal(got, mapIntersect(a, b))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestIntersectGallopPath(t *testing.T) {
	// Force the galloping path with a tiny list against a huge one.
	large := make([]uint32, 10000)
	for i := range large {
		large[i] = uint32(3 * i)
	}
	small := []uint32{0, 3, 4, 2997, 29997, 30000}
	got := setops.Intersect(nil, small, large)
	want := []uint32{0, 3, 2997, 29997}
	if !equal(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
	// Symmetric argument order must agree.
	if !equal(setops.Intersect(nil, large, small), want) {
		t.Fatal("argument order changed the result")
	}
}

func TestIntersectEmpty(t *testing.T) {
	if got := setops.Intersect(nil, nil, []uint32{1, 2}); len(got) != 0 {
		t.Fatalf("nil ∩ x = %v", got)
	}
	if got := setops.Intersect(nil, []uint32{1, 2}, nil); len(got) != 0 {
		t.Fatalf("x ∩ nil = %v", got)
	}
}

func TestIntersectReusesDst(t *testing.T) {
	dst := make([]uint32, 0, 64)
	a := []uint32{1, 5, 9}
	b := []uint32{5, 9, 11}
	got := setops.Intersect(dst, a, b)
	if !equal(got, []uint32{5, 9}) {
		t.Fatalf("got %v", got)
	}
	if cap(got) != cap(dst) {
		t.Error("dst capacity not reused")
	}
}

func TestIntersectKMatchesFold(t *testing.T) {
	f := func(a, b, c, d sortedSet) bool {
		want := mapIntersect(mapIntersect(a, b), mapIntersect(c, d))
		var sc setops.Scratch
		got := setops.IntersectK(&sc, [][]uint32{a, b, c, d})
		return equal(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestIntersectKSingleAliases(t *testing.T) {
	a := []uint32{1, 2, 3}
	got := setops.IntersectK(nil, [][]uint32{a})
	if &got[0] != &a[0] {
		t.Error("k=1 should return the input list unchanged")
	}
	if setops.IntersectK[uint32](nil, nil) != nil {
		t.Error("k=0 should return nil")
	}
}

func TestIntersectKScratchReuse(t *testing.T) {
	var sc setops.Scratch
	a := []uint32{1, 2, 3, 4}
	b := []uint32{2, 4, 6}
	c := []uint32{4, 5}
	first := setops.IntersectK(&sc, [][]uint32{a, b, c})
	if !equal(first, []uint32{4}) {
		t.Fatalf("got %v", first)
	}
	// A second use with the same scratch must not corrupt results.
	second := setops.IntersectK(&sc, [][]uint32{a, b})
	if !equal(second, []uint32{2, 4}) {
		t.Fatalf("got %v", second)
	}
}

func TestIntersectionSizeMatchesIntersect(t *testing.T) {
	f := func(a, b sortedSet) bool {
		return setops.IntersectionSize(a, b) == len(setops.Intersect(nil, a, b))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestIntersectionSizeGallop(t *testing.T) {
	large := make([]uint32, 5000)
	for i := range large {
		large[i] = uint32(2 * i)
	}
	small := []uint32{0, 2, 3, 9998}
	if got := setops.IntersectionSize(small, large); got != 3 {
		t.Fatalf("got %d want 3", got)
	}
}

func TestIsSorted(t *testing.T) {
	if !setops.IsSorted([]uint32{1, 2, 3}) || !setops.IsSorted(nil) {
		t.Fatal("sorted input rejected")
	}
	if setops.IsSorted([]uint32{1, 1}) || setops.IsSorted([]uint32{2, 1}) {
		t.Fatal("unsorted input accepted")
	}
}

func TestOutputsAreSortedSets(t *testing.T) {
	f := func(a, b sortedSet) bool {
		return setops.IsSorted(setops.Intersect(nil, a, b))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
