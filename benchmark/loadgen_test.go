package main

import (
	"bytes"
	"reflect"
	"sync/atomic"
	"testing"
	"time"
)

// stallOnce is a target that answers in 1 ms, except that one operation
// takes 200 ms.
func stallOnce(stallAt int64) opFunc {
	var n atomic.Int64
	return func(int) (time.Time, bool) {
		d := time.Millisecond
		if n.Add(1) == stallAt {
			d = 200 * time.Millisecond
		}
		time.Sleep(d)
		return time.Now(), true
	}
}

func over(ms []float64, limit float64) int {
	n := 0
	for _, v := range ms {
		if v > limit {
			n++
		}
	}
	return n
}

// latenciesMS are the phase's latencies as measured, not at reference
// speed: under the race detector the probe runs ten times slower and the
// stub's sleeps do not.
func (ph *phase) latenciesMS() []float64 {
	var out []float64
	for _, r := range ph.Rounds {
		for _, op := range r.ops {
			out = append(out, ms(op[1].Sub(op[0])))
		}
	}
	return out
}

// A stall must be charged to every open-loop request that was due while
// it lasted, and to exactly one closed-loop request: the closed-loop
// caller simply sends less while it waits (coordinated omission), which
// is why the two are reported as different metrics.
func TestOpenLoopChargesStallToDelayedRequests(t *testing.T) {
	closed := closedLoop("closed", newSpeedLog(), 600*time.Millisecond, 0, 50, stallOnce(20))
	if got := over(closed.latenciesMS(), 100); got != 1 {
		t.Errorf("closed loop: %d latencies over 100 ms, want exactly the stalled one", got)
	}
	if len(closed.Rounds) < 2 || closed.Sent != 50*len(closed.Rounds) {
		t.Errorf("closed loop sent %d operations in %d rounds of 50", closed.Sent, len(closed.Rounds))
	}

	// load is per second at reference speed; dividing by the host's speed
	// makes it 200 arrivals per wall second wherever the test runs.
	log := newSpeedLog()
	log.probe()
	open := openLoop("open", log, 1, 200/log.factor(), 600*time.Millisecond, 0, 60, 1, stallOnce(20))
	// At ~200/s about 40 requests fall due during a 200 ms stall; those due
	// in its first half wait more than 100 ms.
	if got := over(open.latenciesMS(), 100); got < 8 {
		t.Errorf("open loop: %d latencies over 100 ms, want the requests due during the stall (>= 8)", got)
	}
	if open.Sent != open.Succeeded || open.Sent != 60*len(open.Rounds) {
		t.Errorf("open loop sent %d, succeeded %d in %d rounds of 60; want every arrival answered", open.Sent, open.Succeeded, len(open.Rounds))
	}
	if open.ConnWaitP95 < 50 {
		t.Errorf("conn_wait_p95 = %.1f ms; the wait for the stalled connection should show there", open.ConnWaitP95)
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 199)
	for i := range xs {
		xs[i] = float64(i)
	}
	if _, ok := percentile(xs, 0.95); ok {
		t.Error("p95 of 199 samples accepted: only 9 lie beyond it")
	}
	xs = append(xs, 199)
	if v, ok := percentile(xs, 0.95); !ok || v != 189 {
		t.Errorf("p95 of 0..199 = %v, %v; want 189, true", v, ok)
	}
	if _, ok := percentile(xs, 0.99); ok {
		t.Error("p99 of 200 samples accepted")
	}
}

// A phase reports the median over its rounds of each round's percentile,
// so one disturbed round moves nothing; the support flags count all
// samples.
func TestSummarizeIsMedianOverRounds(t *testing.T) {
	mk := func(scale float64) *round {
		r := &round{}
		for i := 0; i < 100; i++ {
			r.latMS = append(r.latMS, scale*float64(i+1))
		}
		s := sortedCopy(r.latMS)
		r.P50, _ = percentile(s, 0.50)
		r.P95, _ = percentile(s, 0.95)
		return r
	}
	s := summarize([]*round{mk(1), mk(1), mk(10)})
	if s.P50 != 50 || s.P95 != 95 || s.Samples != 300 || s.Rounds != 3 {
		t.Errorf("summarize = %+v; want the undisturbed rounds' p50 50 and p95 95", s)
	}
	if !s.P95OK || s.P99 != nil {
		t.Errorf("300 samples support a p95 and no p99: %+v", s)
	}
	if summarize([]*round{mk(1)}).P95OK {
		t.Error("a phase of 100 samples claims a supported p95")
	}
}

// The reference clock advances, between two probes, at probeRefMS ÷ their
// mean: a stretch measured while the probe read twice the reference
// counts half.
func TestRefClock(t *testing.T) {
	l := newSpeedLog()
	msec := int64(time.Millisecond)
	l.at = []int64{0, 100 * msec, 200 * msec, 300 * msec}
	l.ms = []float64{probeRefMS, probeRefMS, 2 * probeRefMS, 2 * probeRefMS}
	c := l.clock()
	at := func(ms int64) time.Time { return l.epoch.Add(time.Duration(ms * msec)) }
	for _, tc := range []struct {
		from, to int64
		want     float64
	}{
		{0, 100, 100},         // reference speed
		{100, 200, 100 / 1.5}, // mean of the two probes
		{200, 300, 50},        // half speed
		{300, 400, 50},        // after the last probe: at its rate
		{50, 250, 50 + 100/1.5 + 25},
	} {
		if got := c.between(at(tc.from), at(tc.to)); got < tc.want-1e-6 || got > tc.want+1e-6 {
			t.Errorf("between(%d, %d) = %v ms, want %v", tc.from, tc.to, got, tc.want)
		}
	}
	if c.ref(150*msec) <= c.ref(100*msec) || c.ref(100*msec) != 100*msec {
		t.Error("the clock must be monotone and agree with wall time at reference speed")
	}
}

// The request stream is a pure function of (seed, index): the same seed
// gives byte-identical requests whichever client sends them, another seed
// gives other requests, and serve_hot and fleet_scatter share one stream.
func TestStreamDeterministic(t *testing.T) {
	pools, err := loadPools()
	if err != nil {
		t.Fatal(err)
	}
	stream := func(name string, seed int64) []byte {
		w, err := findWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		line := streamLines(&runConfig{workload: w, seed: seed}, pools)
		for i := 0; i < 500; i++ {
			buf.Write(line(i))
			buf.WriteByte('\n')
		}
		return buf.Bytes()
	}
	for _, w := range workloads {
		a, b, c := stream(w.name, 1), stream(w.name, 1), stream(w.name, 2)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: same seed, different request sequence", w.name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: seeds 1 and 2 give the same request sequence", w.name)
		}
	}
	if !bytes.Equal(stream("serve_hot", 3), stream("fleet_scatter", 3)) {
		t.Error("serve_hot and fleet_scatter must receive the identical request stream")
	}
}

// Every cycle of a stream holds the same classes the same number of
// times — in Zipf proportions for a serving workload, once each for a
// library one — whatever the seed; only the order differs.
func TestCyclesDoTheSameWork(t *testing.T) {
	hot, err := findWorkload("serve_hot")
	if err != nil {
		t.Fatal(err)
	}
	count := func(s *stream, cycle int) []int {
		hits := make([]int, 24)
		for i := 0; i < len(s.plan); i++ {
			hits[s.class(cycle*len(s.plan)+i)]++
		}
		return hits
	}
	a, b := newStream(hot, 24, 7), newStream(hot, 24, 8)
	if n := len(a.plan); n < hot.cycle*9/10 || n > hot.cycle*11/10 {
		t.Errorf("serve_hot cycle is %d operations, want about %d", n, hot.cycle)
	}
	first := count(a, 0)
	if first[0] < 4*first[5] || first[5] < first[23] || first[23] == 0 {
		t.Errorf("cycle not skewed as Zipf %.1f: %v", hot.zipf, first)
	}
	for cycle := 0; cycle < 3; cycle++ {
		for _, s := range []*stream{a, b} {
			if got := count(s, cycle); !reflect.DeepEqual(got, first) {
				t.Fatalf("cycle %d holds %v, cycle 0 held %v", cycle, got, first)
			}
		}
	}
	order := func(s *stream) (out []int) {
		for i := 0; i < len(s.plan); i++ {
			out = append(out, s.class(i))
		}
		return out
	}
	if reflect.DeepEqual(order(a), order(b)) {
		t.Error("seeds 7 and 8 visit the classes in the same order")
	}

	enum, err := findWorkload("lib_enum")
	if err != nil {
		t.Fatal(err)
	}
	lib := newStream(enum, 36, 7)
	seen := make(map[int]int)
	for i := 0; i < 3*36; i++ {
		seen[lib.class(i)]++
	}
	for k := 0; k < 36; k++ {
		if seen[k] != 3 {
			t.Fatalf("class %d visited %d times in 3 cycles", k, seen[k])
		}
	}
}
