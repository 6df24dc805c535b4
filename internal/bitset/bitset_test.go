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
		if len(b)*64 < n {
			t.Fatalf("New(%d) holds %d ids", n, len(b)*64)
		}
		if n > 0 {
			b.Set(uint32(n - 1)) // must not panic
		}
	}
}

func TestCount(t *testing.T) {
	b := New(300)
	ids := []uint32{0, 1, 63, 64, 65, 127, 128, 255, 299}
	for _, id := range ids {
		b.Set(id)
	}
	if got := b.Count(); got != len(ids) {
		t.Fatalf("Count = %d, want %d", got, len(ids))
	}
	for _, id := range ids {
		b.Clear(id)
	}
	if got := b.Count(); got != 0 {
		t.Fatalf("Count after clearing every id = %d", got)
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

func TestSpanFillTestRefill(t *testing.T) {
	var s Span
	if !s.Empty() {
		t.Fatal("zero Span should be Empty")
	}
	list := []uint32{100, 163, 164, 1000, 5000}
	fill(&s, list)
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
	fill(&s, []uint32{100, 120})
	if s.Hi() != 127 {
		t.Fatalf("Hi after shorter refill = %d, want 127", s.Hi())
	}
	for x := s.Lo(); x <= s.Hi(); x++ {
		if s.Test(x) != (x == 100 || x == 120) {
			t.Fatalf("Test(%d) wrong after shorter refill", x)
		}
	}
	fill(&s, []uint32{64, 6000}) // longer again: extension must be clean
	for x := uint32(65); x < 6000; x++ {
		if s.Test(x) {
			t.Fatalf("stale bit at %d after extend refill", x)
		}
	}
	if !s.Test(64) || !s.Test(6000) {
		t.Fatal("filled values missing after extend refill")
	}
}

func TestSpanTopOfRange(t *testing.T) {
	var s Span
	list := []uint32{1<<32 - 100, 1<<32 - 64, 1<<32 - 1}
	fill(&s, list)
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
	fill(&s, []uint32{0})
	if s.Lo() != 0 || s.Hi() != 63 {
		t.Fatalf("window = [%d,%d], want [0,63]", s.Lo(), s.Hi())
	}
	if !s.Test(0) || s.Test(1) || s.Test(63) {
		t.Fatal("singleton fill wrong")
	}
}

// fill covers s with the sorted, non-empty list and sets its values.
func fill(s *Span, list []uint32) {
	s.Cover(list[0], list[len(list)-1])
	for _, x := range list {
		s.Set(x)
	}
}
