package setops

import (
	"math/rand"
	"sort"
	"testing"

	"ceci/internal/bitset"
)

// unionMany is the many-list union as the index build performs it: mark
// every value in a bitmap sized to the id range, read the marks back in
// order (bitset.Bits.Drain). The tests below hold it to the map oracle the
// sort-based UnionMany it replaced was held to.
func unionMany(lists [][]uint32) []uint32 {
	n := 0
	for _, l := range lists {
		if len(l) > 0 && int(l[len(l)-1]) >= n {
			n = int(l[len(l)-1]) + 1
		}
	}
	marks := bitset.New(n)
	for _, l := range lists {
		for _, x := range l {
			marks.Set(x)
		}
	}
	return marks.Drain(make([]uint32, 0, marks.Count()))
}

// naiveUnion is the obviously-correct oracle: gather into a set, sort.
func naiveUnion(lists [][]uint32) []uint32 {
	set := map[uint32]bool{}
	for _, l := range lists {
		for _, x := range l {
			set[x] = true
		}
	}
	out := make([]uint32, 0, len(set))
	for x := range set {
		out = append(out, x)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func equalU32(a, b []uint32) bool {
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

// decodeLists turns fuzz bytes into strictly increasing lists: each byte
// is a gap (gap+1 keeps them strictly increasing); a zero byte starts a
// new list, so empty, single and many-list inputs all occur.
func decodeLists(data []byte) [][]uint32 {
	var lists [][]uint32
	var cur []uint32
	var last uint32
	for _, b := range data {
		if b == 0 {
			lists = append(lists, cur)
			cur, last = nil, 0
			continue
		}
		last += uint32(b)
		cur = append(cur, last)
	}
	return append(lists, cur)
}

func FuzzUnionMany(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3})
	f.Add([]byte{1, 2, 0, 2, 2, 0, 3})
	f.Add([]byte{5, 0, 5, 0, 5, 0, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		lists := decodeLists(data)
		got := unionMany(lists)
		want := naiveUnion(lists)
		if !equalU32(got, want) {
			t.Fatalf("unionMany(%v) = %v, want %v", lists, got, want)
		}
		if !IsSorted(got) {
			t.Fatalf("unionMany(%v) = %v: not strictly sorted", lists, got)
		}
	})
}

// TestUnionManyProperty is the non-fuzz property check that runs on every
// `go test`: random list shapes against the naive oracle.
func TestUnionManyProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 300; trial++ {
		k := rng.Intn(8)
		lists := make([][]uint32, k)
		for i := range lists {
			n := rng.Intn(30)
			x := uint32(0)
			for j := 0; j < n; j++ {
				x += uint32(1 + rng.Intn(9))
				lists[i] = append(lists[i], x)
			}
		}
		got := unionMany(lists)
		want := naiveUnion(lists)
		if !equalU32(got, want) {
			t.Fatalf("trial %d: unionMany = %v, want %v (lists %v)", trial, got, want, lists)
		}
	}
}
