package setops

import (
	"ceci/internal/bitset"
)

// Kernel identifies how one intersection was computed. The two per-call
// kernels compute exactly the same strictly-increasing intersection and
// differ only in cost shape; ChooseKernel picks the cheaper from O(1)
// statistics of the inputs. The third label is the bitmap probe of a list
// filled once and intersected many times (FillSpan / IntersectSpan).
type Kernel uint8

const (
	// KernelMerge is the classic two-cursor linear merge: the kernel for
	// similarly sized lists.
	KernelMerge Kernel = iota
	// KernelGallop probes each element of the smaller list into the
	// larger by exponential search plus binary refinement; it wins when
	// the size ratio is heavily skewed.
	KernelGallop
	// KernelProbe labels IntersectSpan: a list already filled into a
	// span-offset bitmap (bitset.Span) is probed by another — one
	// load-shift-mask per element instead of the merge's unpredictable
	// cursor branch, with the fill paid once for every list probed.
	KernelProbe

	// NumKernels is the number of distinct labels (array sizing).
	NumKernels = 3
)

// String returns the kernel's short name.
func (k Kernel) String() string {
	switch k {
	case KernelMerge:
		return "merge"
	case KernelGallop:
		return "gallop"
	case KernelProbe:
		return "probe"
	}
	return "unknown"
}

// gallopRatio is the size disparity beyond which probing the smaller list
// into the larger beats merging — 16 follows the classic adaptive
// set-intersection literature and measured well here. probeMaxGap is the
// average gap between a list's values beyond which FillSpan declines to
// fill a bitmap from it (unless its span is under fillAlwaysSpan): the
// bitmap costs one memclr of span/8 bytes plus one bit-set per element,
// and memclr retires cache-line-at-a-time, so the overhead stays small
// relative to a merge up to an average gap of 512; beyond that, sweeping
// mostly-empty bitmap words costs more than the merge's linear walk.
const (
	gallopRatio = 16
	probeMaxGap = 512
)

// fillAlwaysSpan is the value span below which FillSpan fills a bitmap
// whatever the list's density: 32768 values are 4 KiB of words, which
// stay L1-resident and clear in a few dozen cycles — less than one
// kernel call on the list would cost.
const fillAlwaysSpan = 1 << 15

// ChooseKernel picks the cheaper kernel for a ∩ b from the two lengths
// alone: skewed sizes gallop, everything else merges. A span bitmap of
// the smaller list pays only where it is filled once and probed by many
// lists (FillSpan); filled per call it measured no better than the merge
// on any benchmark workload (DESIGN §7.2).
func ChooseKernel[A, B Position](a []A, b []B) Kernel {
	small, large := len(a), len(b)
	if small > large {
		small, large = large, small
	}
	if small > 0 && large >= gallopRatio*small {
		return KernelGallop
	}
	return KernelMerge
}

// intersectMerge is the classic two-cursor merge. Branch-reduced and
// 4-way block-skip variants were benchmarked against it on the list
// shapes the enumeration actually produces and lost: the select-style
// cursor advance compiles to more branches than the three-way switch on
// this toolchain, and the shapes that would reward block-skipping are
// routed to the gallop kernel by ChooseKernel or to a filled bitmap by
// the caller instead (see DESIGN.md). Returns the result and the number
// of elements examined, both the same whichever side is a.
func intersectMerge[A, B Position](dst []uint32, a []A, b []B) ([]uint32, int) {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		x, y := uint32(a[i]), uint32(b[j])
		switch {
		case x < y:
			i++
		case x > y:
			j++
		default:
			dst = append(dst, x)
			i++
			j++
		}
	}
	return dst, i + j
}

// intersectGallop probes each element of small into large by exponential
// search. The scanned count is the final cursor position in large plus
// one visit per element of small — derived after the fact rather than by
// instrumenting the search loops, so profiling costs nothing on the hot
// path. Returns the result and that scanned count.
func intersectGallop[S, L Position](dst []uint32, small []S, large []L) ([]uint32, int) {
	lo := 0
	for _, s := range small {
		x := uint32(s)
		lo = Gallop(large, lo, x)
		if lo == len(large) {
			break
		}
		if uint32(large[lo]) == x {
			dst = append(dst, x)
			lo++
		}
	}
	return dst, lo + len(small)
}

// Gallop returns the smallest index i >= lo with large[i] >= x, using
// exponential probing followed by binary search.
func Gallop[T Position](large []T, lo int, x uint32) int {
	n := len(large)
	if lo >= n || uint32(large[lo]) >= x {
		return lo
	}
	step := 1
	hi := lo + 1
	for hi < n && uint32(large[hi]) < x {
		lo = hi
		step <<= 1
		hi = lo + step
	}
	if hi > n {
		hi = n
	}
	// binary search in (lo, hi]
	for lo+1 < hi {
		mid := int(uint(lo+hi) >> 1)
		if uint32(large[mid]) < x {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}

// FillSpan materializes the sorted list a into sp for repeated
// IntersectSpan calls and reports whether it did. The fill — one clear of
// span/8 bytes plus one bit-set per element — is paid once and saves every
// later call its own, so it is declined only where it could dwarf them:
// an empty list, or a span that is both wider than probeMaxGap times the
// length and wider than fillAlwaysSpan. The fill is charged to sc's probe
// counters as scanned elements (sc may be nil).
func FillSpan[T Position](sp *bitset.Span, a []T, sc *Scratch) bool {
	if len(a) == 0 {
		return false
	}
	lo, hi := uint32(a[0]), uint32(a[len(a)-1])
	if span := uint64(hi - lo); span >= fillAlwaysSpan && span > uint64(len(a))*probeMaxGap {
		return false
	}
	sp.Cover(lo, hi)
	for _, x := range a {
		sp.Set(uint32(x))
	}
	if sc != nil {
		sc.Stats.Scanned[KernelProbe] += int64(len(a))
	}
	return true
}

// IntersectSpan is the bitmap probe against a bitmap that is already
// filled: it writes a ∩ b into dst, where a is the list sp was last
// filled from, by galloping b to the bitmap's window and testing each
// element inside it — no fill, no clear, no kernel choice per call. The
// test takes no branch: every element of the window is written at the
// output index, which then advances by the element's bit, so a result
// that keeps an unpredictable half of the window costs what one that
// keeps all of it does. A dst with less capacity than the window is
// replaced, not written past. Recorded into sc.Stats as a probe call
// that scanned the tested elements (sc may be nil). A []uint32 b may be
// dst's backing array in the dst = b[:0] form: the output index never
// passes the element being read.
func IntersectSpan[T Position](dst []uint32, sp *bitset.Span, b []T, sc *Scratch) []uint32 {
	dst = dst[:0]
	if sp.Empty() || len(b) == 0 {
		return dst
	}
	j, end := Gallop(b, 0, sp.Lo()), len(b)
	if hi := sp.Hi(); uint32(b[end-1]) > hi {
		// A walk, not a gallop: its one branch is predictable, and it
		// stops at b's last element at the latest.
		for end = j; uint32(b[end]) <= hi; end++ {
		}
	}
	window := b[j:end]
	if cap(dst) < len(window) {
		dst = make([]uint32, 0, len(window))
	}
	out, n := dst[:len(window)], 0
	for _, v := range window {
		x := uint32(v)
		out[n] = x
		n += sp.Bit(x)
	}
	if sc != nil {
		sc.Stats.record(KernelProbe, len(window), n)
	}
	return out[:n]
}

// KernelStats accumulates per-kernel work counters: how often each kernel
// fired, how many elements it actually examined, and how many elements
// it emitted. The scratch-taking entry points (IntersectK, IntersectWith)
// record into their scratch's stats, which the scratch's owner reads and
// zeroes (internal/enum's drain). All counts are deterministic functions
// of the inputs.
type KernelStats struct {
	Calls   [NumKernels]int64
	Scanned [NumKernels]int64
	Emitted [NumKernels]int64
}

func (s *KernelStats) record(k Kernel, scanned, emitted int) {
	s.Calls[k]++
	s.Scanned[k] += int64(scanned)
	s.Emitted[k] += int64(emitted)
}

// TotalScanned sums the scanned counter across kernels.
func (s *KernelStats) TotalScanned() int64 {
	var n int64
	for k := 0; k < NumKernels; k++ {
		n += s.Scanned[k]
	}
	return n
}

// IntersectWith runs one specific kernel, KernelMerge or KernelGallop,
// for a ∩ b, appending to dst (which may share its backing array with a
// []uint32 a or b in the dst = x[:0] form, like Intersect). sc may be nil;
// when non-nil the kernel's work is recorded into sc.Stats. The
// cross-kernel differential tests and the fuzz targets drive both kernels
// through this entry point against the same inputs, at both widths.
// KernelProbe is not a per-call kernel (it needs a filled bitmap:
// FillSpan, IntersectSpan) and panics.
func IntersectWith[A, B Position](k Kernel, dst []uint32, a []A, b []B, sc *Scratch) []uint32 {
	dst = dst[:0]
	if k == KernelProbe {
		panic("setops: the probe runs against a filled bitmap (FillSpan, IntersectSpan)")
	}
	if len(a) == 0 || len(b) == 0 {
		return dst
	}
	var scanned int
	switch {
	case k == KernelMerge:
		dst, scanned = intersectMerge(dst, a, b)
	case len(a) <= len(b):
		dst, scanned = intersectGallop(dst, a, b)
	default:
		dst, scanned = intersectGallop(dst, b, a)
	}
	if sc != nil {
		sc.Stats.record(k, scanned, len(dst))
	}
	return dst
}
