package telemetry

import (
	"sync"
	"time"
)

// SLOConfig sets the service-level objectives the hub tracks. The zero
// value is usable: every field defaults as documented.
type SLOConfig struct {
	// LatencyTarget is the per-query latency goal (default 500ms): a
	// query is "fast" when its total latency is at or under this.
	LatencyTarget time.Duration
	// LatencyObjective is the fraction of successful queries that must
	// be fast (default 0.99).
	LatencyObjective float64
	// AvailabilityObjective is the fraction of queries that must not
	// fail (default 0.999). Failures are server-attributable outcomes:
	// HTTP-style status >= 500, or 429 (shed by admission control).
	// Client errors (4xx other than 429) consume no budget.
	AvailabilityObjective float64
}

// The multiwindow burn-rate alerting every tracker does: the fast window
// catches sudden incidents, the slow window filters out blips, and each
// breaches at its own burn rate — the classic page-worthy thresholds for
// a 30-day budget. The ring's buckets are sloStep wide and span the slow
// window.
const (
	sloFastWindow = 5 * time.Minute
	sloSlowWindow = time.Hour
	sloFastBurn   = 14.4
	sloSlowBurn   = 6
	sloStep       = 10 * time.Second
)

func (c SLOConfig) withDefaults() SLOConfig {
	if c.LatencyTarget <= 0 {
		c.LatencyTarget = 500 * time.Millisecond
	}
	if c.LatencyObjective <= 0 || c.LatencyObjective >= 1 {
		c.LatencyObjective = 0.99
	}
	if c.AvailabilityObjective <= 0 || c.AvailabilityObjective >= 1 {
		c.AvailabilityObjective = 0.999
	}
	return c
}

// sloBucket is one sloStep's worth of observations.
type sloBucket struct {
	total     int64 // all queries
	availGood int64 // not a server failure (outcome < 500 and != 429)
	latGood   int64 // availGood and latency <= target
}

// SLO tracks error-budget burn against the configured objectives over a
// ring of sloStep-wide buckets spanning the slow window. Observe is a
// handful of integer updates under a mutex; State sums the ring.
type SLO struct {
	mu      sync.Mutex
	cfg     SLOConfig
	now     func() time.Time
	buckets []sloBucket
	last    int64 // absolute bucket index of the newest bucket; -1 empty
}

// NewSLO returns a tracker for cfg with an injected clock (time.Now when
// nil).
func NewSLO(cfg SLOConfig, now func() time.Time) *SLO {
	cfg = cfg.withDefaults()
	if now == nil {
		now = time.Now
	}
	return &SLO{cfg: cfg, now: now, buckets: make([]sloBucket, sloSlowWindow/sloStep), last: -1}
}

// Observe records one completed query. Nil-safe.
func (s *SLO) Observe(latency time.Duration, outcome int) {
	if s == nil {
		return
	}
	s.mu.Lock()
	b := s.advance(s.now().Unix())
	b.total++
	if outcome < 500 && outcome != 429 {
		b.availGood++
		if latency <= s.cfg.LatencyTarget {
			b.latGood++
		}
	}
	s.mu.Unlock()
}

// advance rotates the ring to the bucket containing unix-seconds t and
// returns it. Callers hold s.mu.
func (s *SLO) advance(t int64) *sloBucket {
	idx := t / int64(sloStep/time.Second)
	if s.last < 0 {
		s.last = idx
	} else if idx > s.last {
		gap := idx - s.last
		if gap > int64(len(s.buckets)) {
			gap = int64(len(s.buckets))
		}
		for i := int64(1); i <= gap; i++ {
			s.buckets[(s.last+i)%int64(len(s.buckets))] = sloBucket{}
		}
		s.last = idx
	} else if idx < s.last {
		idx = s.last // clock skew: charge the newest bucket
	}
	return &s.buckets[idx%int64(len(s.buckets))]
}

// SLIState is one SLI's burn-rate view.
type SLIState struct {
	// Objective is the configured good-fraction target.
	Objective float64 `json:"objective"`
	// FastBurn and SlowBurn are the error-budget burn rates over the two
	// windows: (bad fraction) / (1 - objective). 1.0 means the budget is
	// being consumed exactly at the sustainable rate; 0 means no errors.
	FastBurn float64 `json:"fast_burn"`
	SlowBurn float64 `json:"slow_burn"`
	// BudgetRemaining is the fraction of the slow window's error budget
	// left: 1 - SlowBurn (floored at 0).
	BudgetRemaining float64 `json:"budget_remaining"`
	// Breach reports a page-worthy state: the fast window burning past
	// its threshold, or the slow window past its own.
	Breach bool `json:"breach"`
}

// SLOState is the full objective state surfaced at /statz and in the
// Server-Timing response header.
type SLOState struct {
	// Time is when the state was computed.
	Time time.Time `json:"time"`
	// LatencyTargetMS echoes the configured latency goal.
	LatencyTargetMS int64 `json:"latency_target_ms"`
	// FastWindowSeconds and SlowWindowSeconds echo the windows.
	FastWindowSeconds int64 `json:"fast_window_seconds"`
	SlowWindowSeconds int64 `json:"slow_window_seconds"`
	// Latency and Availability are the two tracked SLIs.
	Latency      SLIState `json:"latency"`
	Availability SLIState `json:"availability"`
}

// Breach reports whether either SLI is breaching.
func (st SLOState) Breach() bool { return st.Latency.Breach || st.Availability.Breach }

// State computes the current burn-rate view. Nil-safe (returns zeros).
func (s *SLO) State() SLOState {
	if s == nil {
		return SLOState{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.now()
	s.advance(now.Unix()) // age out stale buckets before summing

	sum := func(window time.Duration) (total, availGood, latGood int64) {
		for i := 0; i < int(window/sloStep); i++ {
			b := s.buckets[(s.last-int64(i)+2*int64(len(s.buckets)))%int64(len(s.buckets))]
			total += b.total
			availGood += b.availGood
			latGood += b.latGood
		}
		return
	}
	burn := func(bad, total int64, objective float64) float64 {
		if total == 0 {
			return 0
		}
		return (float64(bad) / float64(total)) / (1 - objective)
	}

	fTot, fAvail, fLat := sum(sloFastWindow)
	sTot, sAvail, sLat := sum(sloSlowWindow)

	st := SLOState{
		Time:              now,
		LatencyTargetMS:   s.cfg.LatencyTarget.Milliseconds(),
		FastWindowSeconds: int64(sloFastWindow / time.Second),
		SlowWindowSeconds: int64(sloSlowWindow / time.Second),
	}

	// Latency SLI: fast fraction of available (non-failed) queries.
	st.Latency = SLIState{
		Objective: s.cfg.LatencyObjective,
		FastBurn:  burn(fAvail-fLat, fAvail, s.cfg.LatencyObjective),
		SlowBurn:  burn(sAvail-sLat, sAvail, s.cfg.LatencyObjective),
	}
	// Availability SLI: non-failed fraction of all queries.
	st.Availability = SLIState{
		Objective: s.cfg.AvailabilityObjective,
		FastBurn:  burn(fTot-fAvail, fTot, s.cfg.AvailabilityObjective),
		SlowBurn:  burn(sTot-sAvail, sTot, s.cfg.AvailabilityObjective),
	}
	for _, sli := range []*SLIState{&st.Latency, &st.Availability} {
		sli.BudgetRemaining = 1 - sli.SlowBurn
		if sli.BudgetRemaining < 0 {
			sli.BudgetRemaining = 0
		}
		sli.Breach = sli.FastBurn >= sloFastBurn || sli.SlowBurn >= sloSlowBurn
	}
	return st
}
