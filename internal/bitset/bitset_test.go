package bitset

import (
	"math/rand"
	"testing"
)

func TestBitsAgainstBoolSlice(t *testing.T) {
	const n = 1000
	b := New(n)
	ref := make([]bool, n)
	rng := rand.New(rand.NewSource(7))
	for step := 0; step < 10000; step++ {
		id := uint32(rng.Intn(n))
		switch rng.Intn(3) {
		case 0:
			b.Set(id)
			ref[id] = true
		case 1:
			b.Clear(id)
			ref[id] = false
		default:
			if b.Get(id) != ref[id] {
				t.Fatalf("step %d: Get(%d) = %v, want %v", step, id, b.Get(id), ref[id])
			}
		}
	}
	for id := 0; id < n; id++ {
		if b.Get(uint32(id)) != ref[id] {
			t.Fatalf("final: Get(%d) = %v, want %v", id, b.Get(uint32(id)), ref[id])
		}
	}
}

func TestBitsSizing(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 1000} {
		b := New(n)
		if b.Len() < n {
			t.Fatalf("New(%d).Len() = %d", n, b.Len())
		}
		if n > 0 {
			b.Set(uint32(n - 1)) // must not panic
		}
	}
}

func TestResetAndCount(t *testing.T) {
	b := New(300)
	ids := []uint32{0, 1, 63, 64, 65, 127, 128, 255, 299}
	for _, id := range ids {
		b.Set(id)
	}
	if got := b.Count(); got != len(ids) {
		t.Fatalf("Count = %d, want %d", got, len(ids))
	}
	b.Reset()
	if got := b.Count(); got != 0 {
		t.Fatalf("Count after Reset = %d", got)
	}
	for _, id := range ids {
		if b.Get(id) {
			t.Fatalf("bit %d survived Reset", id)
		}
	}
}

func TestDrainReadsBackSortedAndEmpties(t *testing.T) {
	b := New(300)
	for _, id := range []uint32{299, 64, 0, 63, 64, 128, 1, 299} { // unordered, with repeats
		b.Set(id)
	}
	got := b.Drain([]uint32{7}) // appends after what dst already holds
	want := []uint32{7, 0, 1, 63, 64, 128, 299}
	if len(got) != len(want) {
		t.Fatalf("Drain = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Drain = %v, want %v", got, want)
		}
	}
	if b.Count() != 0 || len(b.Drain(nil)) != 0 {
		t.Fatal("Drain must leave the bitmap empty")
	}
}

func TestAndAndCount(t *testing.T) {
	const n = 512
	a, b := New(n), New(n)
	ref := make([]bool, n)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < n; i++ {
		sa, sb := rng.Intn(2) == 0, rng.Intn(2) == 0
		if sa {
			a.Set(uint32(i))
		}
		if sb {
			b.Set(uint32(i))
		}
		ref[i] = sa && sb
	}
	wantCount := 0
	for _, v := range ref {
		if v {
			wantCount++
		}
	}
	if got := AndCount(a, b); got != wantCount {
		t.Fatalf("AndCount = %d, want %d", got, wantCount)
	}
	dst := New(n)
	if w := And(dst, a, b); w != len(dst) {
		t.Fatalf("And wrote %d words, want %d", w, len(dst))
	}
	for i := 0; i < n; i++ {
		if dst.Get(uint32(i)) != ref[i] {
			t.Fatalf("And bit %d = %v, want %v", i, dst.Get(uint32(i)), ref[i])
		}
	}
	if got := dst.Count(); got != wantCount {
		t.Fatalf("dst.Count = %d, want %d", got, wantCount)
	}
	// dst may alias an input.
	if w := And(a, a, b); w != len(a) {
		t.Fatalf("aliased And wrote %d words", w)
	}
	for i := 0; i < n; i++ {
		if a.Get(uint32(i)) != ref[i] {
			t.Fatalf("aliased And bit %d wrong", i)
		}
	}
}

func TestAndShortestCommonLength(t *testing.T) {
	a, b := New(128), New(256)
	a.Set(100)
	b.Set(100)
	b.Set(200)
	dst := New(256)
	dst.Set(200) // beyond common length: must be left untouched
	if w := And(dst, a, b); w != 2 {
		t.Fatalf("And over mismatched lengths wrote %d words, want 2", w)
	}
	if !dst.Get(100) || !dst.Get(200) {
		t.Fatal("And clobbered words beyond the common length")
	}
	if got := AndCount(a, b); got != 1 {
		t.Fatalf("AndCount over mismatched lengths = %d, want 1", got)
	}
}

func TestChunkBuilderFill(t *testing.T) {
	var c ChunkBuilder
	vals := []uint32{0, 1, 63, 64, 100, ChunkBits - 1, ChunkBits, ChunkBits + 5}
	n := c.Fill(vals, 0)
	if n != 6 { // values >= ChunkBits are out of window
		t.Fatalf("Fill consumed %d, want 6", n)
	}
	for _, v := range vals[:n] {
		if c.Words[v>>6]&(1<<(v&63)) == 0 {
			t.Fatalf("bit %d not set", v)
		}
	}
	set := 0
	for _, w := range c.Words {
		for ; w != 0; w &= w - 1 {
			set++
		}
	}
	if set != n {
		t.Fatalf("%d bits set, want %d", set, n)
	}
	// Refill with a different window must clear the old one.
	n = c.Fill([]uint32{ChunkBits + 7}, ChunkBits)
	if n != 1 {
		t.Fatalf("refill consumed %d, want 1", n)
	}
	set = 0
	for _, w := range c.Words {
		for ; w != 0; w &= w - 1 {
			set++
		}
	}
	if set != 1 {
		t.Fatalf("stale bits survived refill: %d set", set)
	}
}

func TestChunkBuilderFillTopOfRange(t *testing.T) {
	// base near 1<<32: the window end must not wrap to 0 and reject
	// everything (or worse, accept nothing and spin callers forever).
	var c ChunkBuilder
	base := uint32(1<<32 - ChunkBits)
	vals := []uint32{base, base + 1, 1<<32 - 1}
	if n := c.Fill(vals, base); n != 3 {
		t.Fatalf("Fill at top of range consumed %d, want 3", n)
	}
	off := uint32(1<<32-1) - base
	if c.Words[off>>6]&(1<<(off&63)) == 0 {
		t.Fatal("MaxUint32 bit not set")
	}
}

func TestChunkBuilderFillEmpty(t *testing.T) {
	var c ChunkBuilder
	c.Words[0] = ^uint64(0)
	if n := c.Fill(nil, 0); n != 0 {
		t.Fatalf("Fill(nil) = %d", n)
	}
	if c.Words[0] != 0 {
		t.Fatal("Fill(nil) did not clear the window")
	}
}

func TestSpanFillTestRefill(t *testing.T) {
	var s Span
	if !s.Empty() {
		t.Fatal("zero Span should be Empty")
	}
	list := []uint32{100, 163, 164, 1000, 5000}
	s.Fill(list)
	if s.Empty() {
		t.Fatal("filled Span reports Empty")
	}
	if s.Lo() != 64 { // 100 &^ 63
		t.Fatalf("Lo = %d, want 64", s.Lo())
	}
	if s.Hi() < 5000 {
		t.Fatalf("Hi = %d, want >= 5000", s.Hi())
	}
	in := map[uint32]bool{}
	for _, x := range list {
		in[x] = true
	}
	for x := s.Lo(); x <= 5000; x++ {
		if s.Test(x) != in[x] {
			t.Fatalf("Test(%d) = %v, want %v", x, s.Test(x), in[x])
		}
	}

	// Refill with a SHORTER window: the window must shrink (Test is only
	// defined inside [Lo, Hi]) and no stale bits may survive into a later,
	// longer refill.
	s.Fill([]uint32{100, 120})
	if s.Hi() != 127 {
		t.Fatalf("Hi after shorter refill = %d, want 127", s.Hi())
	}
	for x := s.Lo(); x <= s.Hi(); x++ {
		if s.Test(x) != (x == 100 || x == 120) {
			t.Fatalf("Test(%d) wrong after shorter refill", x)
		}
	}
	s.Fill([]uint32{64, 6000}) // longer again: extension must be clean
	for x := uint32(65); x < 6000; x++ {
		if s.Test(x) {
			t.Fatalf("stale bit at %d after extend refill", x)
		}
	}
	if !s.Test(64) || !s.Test(6000) {
		t.Fatal("filled values missing after extend refill")
	}

	s.Reset()
	if !s.Empty() {
		t.Fatal("Reset Span should be Empty")
	}
}

func TestSpanTopOfRange(t *testing.T) {
	var s Span
	list := []uint32{1<<32 - 100, 1<<32 - 64, 1<<32 - 1}
	s.Fill(list)
	if s.Hi() != 1<<32-1 {
		t.Fatalf("Hi = %d, want %d", s.Hi(), uint32(1<<32-1))
	}
	for _, x := range list {
		if !s.Test(x) {
			t.Fatalf("Test(%d) = false", x)
		}
	}
	if s.Test(1<<32-2) || s.Test(1<<32-65) {
		t.Fatal("unexpected bit set near top of range")
	}
}

func TestSpanSingleton(t *testing.T) {
	var s Span
	s.Fill([]uint32{0})
	if s.Lo() != 0 || s.Hi() != 63 {
		t.Fatalf("window = [%d,%d], want [0,63]", s.Lo(), s.Hi())
	}
	if !s.Test(0) || s.Test(1) || s.Test(63) {
		t.Fatal("singleton fill wrong")
	}
}
