package obs

import (
	"sync"
	"testing"
)

func flightRec(traceID string, totalUS int64) QueryRecord {
	return QueryRecord{
		TraceID:   traceID,
		QueryHash: "deadbeef01234567",
		Outcome:   200,
		TotalUS:   totalUS,
	}
}

func TestFlightRecorderRingEviction(t *testing.T) {
	fr := NewFlightRecorder(4, 2)
	for i := 0; i < 10; i++ {
		fr.Record(flightRec(string(rune('a'+i)), int64(i)))
	}
	if got := fr.Total(); got != 10 {
		t.Fatalf("Total = %d, want 10", got)
	}
	recent := fr.Recent()
	if len(recent) != 4 {
		t.Fatalf("ring retained %d records, want 4", len(recent))
	}
	// Newest first: the last four recorded, in reverse order.
	for i, want := range []string{"j", "i", "h", "g"} {
		if recent[i].TraceID != want {
			t.Fatalf("recent[%d].TraceID = %q, want %q (%+v)", i, recent[i].TraceID, want, recent)
		}
	}
	// Seq is a monotone global counter, unaffected by eviction.
	if recent[0].Seq != 10 || recent[3].Seq != 7 {
		t.Fatalf("bad Seq window: %d..%d", recent[3].Seq, recent[0].Seq)
	}
	// Evicted records are gone from the ring.
	if _, ok := fr.Find("a"); ok {
		t.Fatal("evicted record still findable")
	}
}

func TestFlightRecorderSlowestK(t *testing.T) {
	fr := NewFlightRecorder(2, 3)
	// Record in an order that forces insertion in the middle and at the
	// ends, with durations that outlive ring eviction.
	for _, r := range []struct {
		id string
		us int64
	}{{"a", 50}, {"b", 10}, {"c", 90}, {"d", 20}, {"e", 70}, {"f", 5}} {
		fr.Record(flightRec(r.id, r.us))
	}
	slow := fr.Slowest()
	if len(slow) != 3 {
		t.Fatalf("slowest index holds %d, want 3", len(slow))
	}
	for i, want := range []string{"c", "e", "a"} {
		if slow[i].TraceID != want {
			t.Fatalf("slowest[%d] = %q (%dus), want %q", i, slow[i].TraceID, slow[i].TotalUS, want)
		}
	}
	// "c" and "e" were evicted from the 2-deep ring but survive in the
	// slowest index, so Find still resolves them.
	if _, ok := fr.Find("c"); !ok {
		t.Fatal("slowest record lost after ring eviction")
	}
}

func TestFlightRecorderFindReturnsSpans(t *testing.T) {
	fr := NewFlightRecorder(8, 2)
	rec := flightRec("traced", 42)
	tr := NewTracer(TracerOptions{})
	tr.Start("service-query").End()
	rec.Trace = tr.Detach(tr.TraceID())
	fr.Record(rec)
	fr.Record(flightRec("untraced", 1))

	got, ok := fr.Find("traced")
	if spans := got.Trace.Nodes(); !ok || len(spans) != 1 || spans[0].Name != "service-query" {
		t.Fatalf("Find lost the span tree: %+v ok=%v", got, ok)
	}
	// Recent and Slowest strip the spans (they can be large); Find keeps them.
	for _, r := range append(fr.Recent(), fr.Slowest()...) {
		if r.Trace != nil {
			t.Fatalf("a listing leaked spans for %q", r.TraceID)
		}
	}
	if _, ok := fr.Find("nope"); ok {
		t.Fatal("Find invented a record")
	}
	if n := fr.Finds(); n != 2 {
		t.Fatalf("Finds = %d after two lookups", n)
	}
}

func TestFlightRecorderConcurrent(t *testing.T) {
	fr := NewFlightRecorder(32, 4)
	const writers = 8
	const perWriter = 200
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				fr.Record(flightRec("w", int64(w*perWriter+i)))
				// Interleave readers with writers so -race exercises
				// every accessor against concurrent mutation.
				if i%16 == 0 {
					fr.Recent()
					fr.Slowest()
					fr.Total()
					fr.Find("w")
				}
			}
		}(w)
	}
	wg.Wait()
	if got := fr.Total(); got != writers*perWriter {
		t.Fatalf("Total = %d, want %d", got, writers*perWriter)
	}
	if got := len(fr.Recent()); got != 32 {
		t.Fatalf("ring holds %d, want 32", got)
	}
	slow := fr.Slowest()
	if len(slow) != 4 {
		t.Fatalf("slowest holds %d, want 4", len(slow))
	}
	// The global slowest must be the true maximum across all writers.
	if want := int64(writers*perWriter - 1); slow[0].TotalUS != want {
		t.Fatalf("slowest[0] = %dus, want %dus", slow[0].TotalUS, want)
	}
	for i := 1; i < len(slow); i++ {
		if slow[i].TotalUS > slow[i-1].TotalUS {
			t.Fatalf("slowest not sorted: %+v", slow)
		}
	}
	// Seq values are unique even under contention.
	seen := map[uint64]bool{}
	for _, r := range fr.Recent() {
		if seen[r.Seq] {
			t.Fatalf("duplicate Seq %d", r.Seq)
		}
		seen[r.Seq] = true
	}
}

func TestFlightRecorderNilSafe(t *testing.T) {
	var fr *FlightRecorder
	fr.Record(flightRec("x", 1))
	if fr.Total() != 0 || fr.Recent() != nil || fr.Slowest() != nil {
		t.Fatal("nil recorder not inert")
	}
	if _, ok := fr.Find("x"); ok {
		t.Fatal("nil recorder found a record")
	}
}
