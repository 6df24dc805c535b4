// Package bitset provides word-packed bitmap primitives keyed by dense
// uint32 IDs. The enumeration workers use Bits for the injectivity check
// ("is this data vertex already matched?"): one bit per data vertex is
// 8× smaller than the []bool it replaces, which matters because every
// worker carries its own O(|V_data|) map for the lifetime of a search.
// Span backs the probe intersection kernel in internal/setops and the
// stable-side bitmap of the enumeration's depth cursors.
package bitset

import "math/bits"

// Bits is a fixed-size bitmap. The zero value is an empty bitmap of
// capacity 0; use New to size one.
type Bits []uint64

// New returns a bitmap able to hold ids in [0, n).
func New(n int) Bits { return make(Bits, (n+63)/64) }

// Get reports whether id is set.
func (b Bits) Get(id uint32) bool { return b[id>>6]&(1<<(id&63)) != 0 }

// Set marks id.
func (b Bits) Set(id uint32) { b[id>>6] |= 1 << (id & 63) }

// Clear unmarks id.
func (b Bits) Clear(id uint32) { b[id>>6] &^= 1 << (id & 63) }

// Count returns the number of set bits.
func (b Bits) Count() int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

// Drain appends the set ids to dst in ascending order and unmarks them,
// leaving b empty for reuse: a set of ids marked in any order reads back
// sorted and deduplicated in O(set bits + len(b)).
func (b Bits) Drain(dst []uint32) []uint32 {
	for i, w := range b {
		for ; w != 0; w &= w - 1 {
			dst = append(dst, uint32(i<<6+bits.TrailingZeros64(w)))
		}
		b[i] = 0
	}
	return dst
}

// Span is a reusable span-offset bitmap: one bit per value in the window
// [Lo(), Hi()], where Lo is aligned down to a word boundary from the
// first value of the filled list. It backs the probe intersection kernel
// in internal/setops and the cached non-tree-edge filter in
// internal/ceci: fill once from a sorted list, test membership with a
// single load-shift-mask, reuse across calls without reallocating.
type Span struct {
	base  uint32
	words []uint64
}

// Cover clears the span and sizes it to the window of the values lo..hi
// (lo <= hi), with no bit set: the caller then Sets each value of the
// sorted list the window was taken from.
func (s *Span) Cover(lo, hi uint32) {
	clear(s.words)
	s.base = lo &^ 63
	nw := int((hi-s.base)>>6) + 1
	if cap(s.words) < nw {
		s.words = make([]uint64, nw+nw/2)
	}
	s.words = s.words[:nw]
}

// Set sets x's bit. x must lie within [Lo(), Hi()].
func (s *Span) Set(x uint32) { s.words[(x-s.base)>>6] |= 1 << (x & 63) }

// Test reports whether x is set. x must lie within [Lo(), Hi()].
func (s *Span) Test(x uint32) bool { return s.Bit(x) == 1 }

// Bit returns x's bit: 1 if x is set, 0 if not — a number to add, where
// Test is a branch to take. x must lie within [Lo(), Hi()].
func (s *Span) Bit(x uint32) int {
	return int(s.words[(x-s.base)>>6] >> (x & 63) & 1)
}

// Empty reports whether the span has not been filled.
func (s *Span) Empty() bool { return len(s.words) == 0 }

// FootprintBytes returns the span's allocated backing size — what the
// bitmap costs to keep around, independent of the currently filled
// window. The resource ledger sums these at work-unit boundaries.
func (s *Span) FootprintBytes() int64 { return int64(cap(s.words)) * 8 }

// Lo returns the smallest value covered by the filled window.
func (s *Span) Lo() uint32 { return s.base }

// Hi returns the largest value covered by the filled window (which may
// exceed the largest filled value by up to 63). The span must be
// non-empty.
func (s *Span) Hi() uint32 {
	return s.base + uint32(len(s.words))*64 - 1
}
