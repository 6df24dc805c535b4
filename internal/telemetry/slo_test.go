package telemetry

import (
	"math"
	"testing"
	"time"
)

func testSLO(clk *fakeClock) *SLO {
	return NewSLO(SLOConfig{
		LatencyTarget:         100 * time.Millisecond,
		LatencyObjective:      0.9,
		AvailabilityObjective: 0.99,
	}, clk.Now)
}

func almost(got, want float64) bool { return math.Abs(got-want) < 1e-9 }

func TestSLOBurnRateMath(t *testing.T) {
	clk := newFakeClock()
	s := testSLO(clk)

	// 100 queries over the fast window: 80 fast, 15 slow, 5 failed.
	for i := 0; i < 100; i++ {
		switch {
		case i < 5:
			s.Observe(10*time.Millisecond, 500)
		case i < 20:
			s.Observe(300*time.Millisecond, 200) // slow but successful
		default:
			s.Observe(10*time.Millisecond, 200)
		}
		if i%20 == 19 {
			clk.Advance(10 * time.Second)
		}
	}

	st := s.State()
	// Availability: 5 bad of 100, objective 0.99 → burn = 0.05/0.01 = 5.
	if !almost(st.Availability.FastBurn, 5) || !almost(st.Availability.SlowBurn, 5) {
		t.Fatalf("availability burn = %+v, want 5", st.Availability)
	}
	// Latency: 15 slow of 95 successful, objective 0.9 → burn =
	// (15/95)/0.1 ≈ 1.5789.
	want := (15.0 / 95.0) / 0.1
	if !almost(st.Latency.FastBurn, want) || !almost(st.Latency.SlowBurn, want) {
		t.Fatalf("latency burn = %+v, want %g", st.Latency, want)
	}
	if !almost(st.Availability.BudgetRemaining, 0) {
		// SlowBurn 5 floors remaining at 0.
		t.Fatalf("availability budget = %g, want 0", st.Availability.BudgetRemaining)
	}
	if st.Latency.Breach || st.Availability.Breach {
		t.Fatalf("burns below thresholds must not breach: %+v", st)
	}
}

func TestSLOBreachAndRecovery(t *testing.T) {
	clk := newFakeClock()
	s := testSLO(clk)

	// Total outage: every query fails. Availability burn = 1/0.01 = 100,
	// far past both default thresholds.
	for i := 0; i < 60; i++ {
		s.Observe(time.Millisecond, 503)
		clk.Advance(time.Second)
	}
	st := s.State()
	if !almost(st.Availability.FastBurn, 100) {
		t.Fatalf("outage fast burn = %g, want 100", st.Availability.FastBurn)
	}
	if !st.Availability.Breach || !st.Breach() {
		t.Fatalf("outage must breach: %+v", st.Availability)
	}

	// Shed queries (429) also consume availability budget.
	clk.Advance(sloSlowWindow) // age the outage out of both windows
	s.Observe(time.Millisecond, 429)
	st = s.State()
	if !almost(st.Availability.FastBurn, 100) {
		t.Fatalf("shed burn = %g, want 100 (1 bad of 1)", st.Availability.FastBurn)
	}

	// Client errors (400) do not.
	clk.Advance(sloSlowWindow)
	s.Observe(time.Millisecond, 400)
	st = s.State()
	if st.Availability.FastBurn != 0 {
		t.Fatalf("client-error burn = %g, want 0", st.Availability.FastBurn)
	}
	if st.Availability.Breach {
		t.Fatalf("clean window must not breach")
	}
}

func TestSLOWindowsDiverge(t *testing.T) {
	clk := newFakeClock()
	s := testSLO(clk)

	// 55 minutes of clean traffic, then five minutes of failures: the
	// fast window (5m) sees only the failures, the slow window (1h)
	// dilutes them 1:12.
	for i := 0; i < 55*6; i++ {
		s.Observe(time.Millisecond, 200)
		clk.Advance(10 * time.Second)
	}
	for i := 0; i < 5*6; i++ {
		s.Observe(time.Millisecond, 500)
		clk.Advance(10 * time.Second)
	}
	// Step back inside the last bucket so State's advance doesn't age it.
	clk.t = clk.t.Add(-time.Second)

	st := s.State()
	if !almost(st.Availability.FastBurn, 100) {
		t.Fatalf("fast burn = %g, want 100 (window is all failures)", st.Availability.FastBurn)
	}
	if want := (30.0 / 360) / 0.01; !almost(st.Availability.SlowBurn, want) {
		t.Fatalf("slow burn = %g, want %g (30 bad of 360)", st.Availability.SlowBurn, want)
	}
}

func TestSLODefaults(t *testing.T) {
	cfg := SLOConfig{}.withDefaults()
	if cfg.LatencyTarget != 500*time.Millisecond || cfg.LatencyObjective != 0.99 || cfg.AvailabilityObjective != 0.999 {
		t.Fatalf("defaults = %+v", cfg)
	}
	if sloFastWindow != 5*time.Minute || sloSlowWindow != time.Hour || sloFastBurn != 14.4 ||
		sloSlowBurn != 6 || sloStep != 10*time.Second || len(NewSLO(cfg, nil).buckets) != 360 {
		t.Fatalf("windows %v/%v, burn thresholds %v/%v, step %v", sloFastWindow, sloSlowWindow, sloFastBurn, sloSlowBurn, sloStep)
	}
	if st := NewSLO(SLOConfig{}, nil).State(); st.FastWindowSeconds != 300 || st.SlowWindowSeconds != 3600 || st.LatencyTargetMS != 500 {
		t.Fatalf("state echoes %+v", st)
	}
	var nilSLO *SLO
	nilSLO.Observe(time.Second, 200) // must not panic
	if st := nilSLO.State(); st.Breach() {
		t.Fatalf("nil SLO state = %+v", st)
	}
}
