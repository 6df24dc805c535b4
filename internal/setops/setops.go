// Package setops implements sorted-set operations over candidate lists of
// positions, two or four bytes wide (Position). These kernels are the hot path of CECI's intersection-based
// embedding enumeration (Section 4.1, Lemma 2 of the paper): every
// non-tree-edge verification becomes an intersection of sorted candidate
// lists instead of an adjacency probe.
//
// Two intersection kernels are selected per call from the inputs'
// lengths (on a CECI index, free reads of the flat columns):
//
//   - KernelMerge: classic two-cursor linear merge, for similarly sized
//     inputs;
//   - KernelGallop: exponential search plus binary refinement, when one
//     input is much smaller.
//
// A list intersected with many others is instead filled once into a
// span-offset bitmap (bitset.Span, FillSpan) that each of them probes
// (IntersectSpan, recorded as KernelProbe) — the enumeration's depth
// cursor does this for its outer side.
//
// All functions treat inputs as strictly increasing sequences and produce
// strictly increasing []uint32 outputs. Both kernels and the bitmap probe are
// bit-identical on the same inputs; the cross-kernel differential tests
// and the FuzzIntersectKernels target enforce that.
package setops

import "slices"

// Position is the element type of a candidate list: a position in one
// query vertex's candidates, two bytes wide for a vertex with at most 2^16
// of them and four otherwise (internal/ceci's CandMap). The kernels read
// lists of either width, in any pairing, and write []uint32.
type Position interface{ ~uint16 | ~uint32 }

// Intersect writes the intersection of a and b into dst (reusing its
// capacity) and returns the result, selecting the cheapest kernel for the
// inputs' shape. dst may be nil.
//
// Aliasing: dst may share a backing array with a or b in the rewound form
// dst = x[:0] (every kernel writes at or below the positions it has
// already consumed). Arbitrary overlap — dst starting mid-way into a or b
// — is not supported.
func Intersect(dst, a, b []uint32) []uint32 {
	dst = dst[:0]
	if len(a) == 0 || len(b) == 0 {
		return dst
	}
	return IntersectWith(ChooseKernel(a, b), dst, a, b, nil)
}

// IntersectK intersects k sorted lists (k >= 1), smallest first for
// speed, choosing the cheapest kernel per pairwise step and recording
// per-kernel work into scratch.Stats. scratch provides reusable buffers;
// pass nil to allocate. With k == 1 the result is lists[0] itself when it
// is a []uint32, and a copy widened into scratch's buffer otherwise.
func IntersectK[T Position](scratch *Scratch, lists [][]T) []uint32 {
	switch len(lists) {
	case 0:
		return nil
	case 1:
		if l, ok := any(lists[0]).([]uint32); ok {
			return l
		}
	}
	if scratch == nil {
		scratch = &Scratch{}
	}
	if len(lists) == 1 {
		scratch.a = Widen(scratch.a[:0], lists[0])
		return scratch.a
	}
	// Order by length without copying list contents. Insertion sort on
	// indices: k is tiny (one list per query edge into the new vertex)
	// and sort.Slice would allocate on every enumeration step.
	order := scratch.order[:0]
	for i := range lists {
		order = append(order, i)
	}
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && len(lists[order[j-1]]) > len(lists[order[j]]); j-- {
			order[j-1], order[j] = order[j], order[j-1]
		}
	}
	scratch.order = order

	first, second := lists[order[0]], lists[order[1]]
	cur := IntersectWith(ChooseKernel(first, second), scratch.a[:0], first, second, scratch)
	scratch.a = cur
	for i := 2; i < len(order) && len(cur) > 0; i++ {
		next := lists[order[i]]
		out := IntersectWith(ChooseKernel(cur, next), scratch.b[:0], cur, next, scratch)
		scratch.a, scratch.b = out, cur[:0]
		cur = out
	}
	return cur
}

// Scratch holds reusable buffers for the scratch-taking entry points —
// intermediate result slices for IntersectK and the per-kernel work
// counters — avoiding per-call allocation in the enumeration inner loop.
// Not safe for concurrent use; each worker keeps its own.
type Scratch struct {
	a, b  []uint32
	order []int

	// Stats accumulates per-kernel calls / scanned / emitted across every
	// recorded operation on this scratch. Callers that need per-call
	// deltas snapshot it before and Sub after.
	Stats KernelStats
}

// FootprintBytes returns the scratch's allocated backing size: the two
// intermediate result buffers and the ordering slice. The resource ledger
// reads this at work-unit boundaries to track a query's peak scratch
// memory.
func (s *Scratch) FootprintBytes() int64 {
	return int64(cap(s.a))*4 + int64(cap(s.b))*4 + int64(cap(s.order))*8
}

// Widen appends the values of list to dst as []uint32.
func Widen[T Position](dst []uint32, list []T) []uint32 {
	n := len(dst)
	dst = slices.Grow(dst, len(list))[:n+len(list)]
	for i, x := range list {
		dst[n+i] = uint32(x)
	}
	return dst
}

// IntersectionSize returns |a ∩ b| without materializing the result.
func IntersectionSize(a, b []uint32) int {
	n, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			n++
			i++
			j++
		}
	}
	return n
}

// IsSorted reports whether a is strictly increasing (the invariant all
// kernels in this package rely on).
func IsSorted(a []uint32) bool {
	for i := 1; i < len(a); i++ {
		if a[i-1] >= a[i] {
			return false
		}
	}
	return true
}
