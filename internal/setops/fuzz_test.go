package setops_test

import (
	"testing"

	"ceci/internal/bitset"
	"ceci/internal/setops"
)

// decodeLists turns raw fuzz bytes into two strictly-increasing uint32
// lists. data[0] picks the split point (so the fuzzer controls the size
// ratio, from 1:N skew to balanced); each remaining byte is a delta with
// gap = byte+1, except bytes >= 240 which decode to large jumps of
// (byte-239)*977 — prime-stepped so runs land on and straddle 64-bit word
// and 4096-value chunk boundaries at many alignments. Deltas are >= 1, so
// strict monotonicity holds by construction, and repeated large-jump
// bytes walk the lists toward the top of the uint32 range where window
// arithmetic must not wrap.
func decodeLists(data []byte) (a, b []uint32) {
	if len(data) < 1 {
		return nil, nil
	}
	split := int(data[0])
	rest := data[1:]
	cut := len(rest) * split / 256
	decode := func(bs []byte) []uint32 {
		if len(bs) == 0 {
			return nil
		}
		out := make([]uint32, 0, len(bs))
		var v uint64
		for _, c := range bs {
			var gap uint64
			if c >= 240 {
				gap = uint64(c-239) * 977 * 257 // jumps up to ~4.2M: skips whole chunks
			} else {
				gap = uint64(c) + 1
			}
			v += gap
			if v > 1<<32-1 {
				break
			}
			out = append(out, uint32(v))
		}
		return out
	}
	return decode(rest[:cut]), decode(rest[cut:])
}

// FuzzIntersectKernels drives every kernel (plus the adaptive entry
// point, with and without scratch, and the probe of a bitmap filled
// beforehand from either side) against the naive reference on
// fuzzer-shaped inputs, asserting bit-identical outputs everywhere — at
// four bytes a value and, below 2^16, at two (checkWidths).
func FuzzIntersectKernels(f *testing.F) {
	for _, seed := range fuzzSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		a, b := decodeLists(data)
		if !setops.IsSorted(a) || !setops.IsSorted(b) {
			t.Fatalf("decoder produced unsorted input: %v %v", a, b)
		}
		want := naiveIntersect(a, b)
		var sc setops.Scratch
		for _, k := range allKernels {
			if got := setops.IntersectWith(k, nil, a, b, nil); !equal(got, want) {
				t.Fatalf("kernel %v diverged: got %v want %v\na=%v\nb=%v", k, got, want, a, b)
			}
			if got := setops.IntersectWith(k, nil, a, b, &sc); !equal(got, want) {
				t.Fatalf("kernel %v (scratch) diverged\na=%v\nb=%v", k, a, b)
			}
		}
		if got := setops.Intersect(nil, a, b); !equal(got, want) {
			t.Fatalf("adaptive Intersect diverged\na=%v\nb=%v", a, b)
		}
		if got := setops.Intersect(nil, b, a); !equal(got, want) {
			t.Fatalf("adaptive Intersect not symmetric\na=%v\nb=%v", a, b)
		}
		checkFilledSpan(t, a, b, want)
		checkFilledSpan(t, b, a, want)
		checkWidths(t, a, b)
	})
}

// checkWidths drives every kernel over the parts of a and b below 2^16 read
// at both widths, []uint16 and []uint32, in every pairing: each must write
// the same []uint32 result and record the same work as the four-byte pair,
// and so must IntersectK and the probe of a bitmap filled from either
// width.
func checkWidths(t *testing.T, a, b []uint32) {
	t.Helper()
	a, b = below(a, 1<<16), below(b, 1<<16)
	a16, b16 := narrow(a), narrow(b)
	want := naiveIntersect(a, b)
	for _, k := range allKernels {
		var ref setops.Scratch
		setops.IntersectWith(k, nil, a, b, &ref)
		for i, run := range []func(*setops.Scratch) []uint32{
			func(sc *setops.Scratch) []uint32 { return setops.IntersectWith(k, nil, a16, b16, sc) },
			func(sc *setops.Scratch) []uint32 { return setops.IntersectWith(k, nil, a16, b, sc) },
			func(sc *setops.Scratch) []uint32 { return setops.IntersectWith(k, nil, a, b16, sc) },
		} {
			var sc setops.Scratch
			if got := run(&sc); !equal(got, want) || sc.Stats != ref.Stats {
				t.Fatalf("kernel %v, pairing %d: got %v (%+v), want %v (%+v)\na=%v\nb=%v", k, i, got, sc.Stats, want, ref.Stats, a, b)
			}
		}
	}
	var sc setops.Scratch
	if got := setops.IntersectK(&sc, [][]uint16{a16, b16}); !equal(got, want) {
		t.Fatalf("IntersectK of two-byte lists: got %v want %v", got, want)
	}
	if got := setops.IntersectK(&sc, [][]uint16{a16}); !equal(got, a) {
		t.Fatalf("IntersectK of one two-byte list: got %v want %v", got, a)
	}
	var sp, sp16 bitset.Span
	filled := setops.FillSpan(&sp, a, nil)
	if setops.FillSpan(&sp16, a16, nil) != filled {
		t.Fatalf("FillSpan takes %v at four bytes and not at two\na=%v", a, filled)
	}
	if !filled {
		return
	}
	for i, got := range [][]uint32{
		setops.IntersectSpan(nil, &sp16, b16, nil),
		setops.IntersectSpan(nil, &sp16, b, nil),
		setops.IntersectSpan(nil, &sp, b16, nil),
	} {
		if !equal(got, want) {
			t.Fatalf("filled span, pairing %d: got %v want %v\na=%v\nb=%v", i, got, want, a, b)
		}
	}
}

// below returns the prefix of the ascending list a that is below limit.
func below(a []uint32, limit uint32) []uint32 {
	n := 0
	for n < len(a) && a[n] < limit {
		n++
	}
	return a[:n]
}

// narrow returns a, every value below 2^16, as two-byte values.
func narrow(a []uint32) []uint16 {
	out := make([]uint16, len(a))
	for i, x := range a {
		out[i] = uint16(x)
	}
	return out
}

// FuzzIntersectionSize checks the counting intersection against the
// materializing reference on the same decoded inputs.
func FuzzIntersectionSize(f *testing.F) {
	for _, seed := range fuzzSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		a, b := decodeLists(data)
		want := len(naiveIntersect(a, b))
		if got := setops.IntersectionSize(a, b); got != want {
			t.Fatalf("size: got %d want %d\na=%v\nb=%v", got, want, a, b)
		}
		if got := setops.IntersectionSize(b, a); got != want {
			t.Fatalf("size not symmetric: got %d want %d\na=%v\nb=%v", got, want, a, b)
		}
	})
}

// fuzzSeeds returns in-code seeds complementing the committed corpus:
// shapes chosen to start the fuzzer at each kernel's breakpoints.
func fuzzSeeds() [][]byte {
	dense := func(n int) []byte {
		out := make([]byte, n)
		for i := range out {
			out[i] = 0 // gap 1
		}
		return out
	}
	seeds := [][]byte{
		{},
		{128},
		{0, 1, 2, 3},   // empty a, tiny b
		{255, 1, 2, 3}, // tiny a, empty b
	}
	// Balanced dense: both halves gap-1 runs (the bitmap probe).
	seeds = append(seeds, append([]byte{128}, dense(200)...))
	// 1:60 skew (gallop kernel): 3-element a, 180-element b.
	skew := append([]byte{4}, dense(183)...)
	seeds = append(seeds, skew)
	// Word-boundary straddles: gap-1 runs separated by mid jumps.
	run := append([]byte{128}, 63, 0, 0, 0, 63, 0, 0, 0)
	seeds = append(seeds, append(run, dense(64)...))
	// Chunk skips: large-jump bytes interleaved with dense runs.
	jumpy := []byte{128}
	for i := 0; i < 24; i++ {
		if i%6 == 5 {
			jumpy = append(jumpy, 250)
		} else {
			jumpy = append(jumpy, byte(i%3))
		}
	}
	seeds = append(seeds, jumpy)
	// Top-of-range walk: ~1100 max jumps of ~4M cross 1<<32, proving the
	// decoder's clamp and the kernels' window arithmetic at the ceiling.
	top := []byte{100}
	for i := 0; i < 1100; i++ {
		top = append(top, 255)
	}
	seeds = append(seeds, top)
	return seeds
}
