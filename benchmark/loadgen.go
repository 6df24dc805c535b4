package main

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// opFunc sends operation i of the request stream and checks its answer.
// end is when the full reply had been read — checking the answer happens
// after it and is not part of the operation's latency.
type opFunc func(i int) (end time.Time, ok bool)

// A round is the unit every statistic is taken over: a fixed number of
// consecutive operations of the stream (whole cycles, so every round of a
// workload does the same work). Each round yields its own throughput and
// percentiles, at reference speed; a phase reports the median over its
// rounds, so a round the host disturbed moves nothing.
type round struct {
	StartMS float64 `json:"start_ms"` // since the phase began, wall time
	WallMS  float64 `json:"wall_ms"`  // wall time of the round
	Speed   float64 `json:"speed"`    // reference time ÷ wall time over the round: 1 = reference speed
	Correct int     `json:"correct"`
	QPS     float64 `json:"qps"`    // closed loop: correct replies per second of the round, probes taken out
	P50     float64 `json:"p50_ms"` // at reference speed
	P95     float64 `json:"p95_ms"`

	// Open loop only.
	Backlog int `json:"backlog,omitempty"` // requests not yet answered when the last one fell due

	start, end time.Time
	probes     [][2]time.Time // when the caller was probing, not working
	ops        [][2]time.Time // send (or due) and reply time of each correct reply
	latMS      []float64      // of those, at reference speed; filled by finish
}

func (r *round) finish(c *refClock) {
	r.WallMS = ms(r.end.Sub(r.start))
	r.Speed = ratio(c.between(r.start, r.end), r.WallMS)
	r.Correct = len(r.ops)
	r.latMS = r.latMS[:0]
	for _, op := range r.ops {
		r.latMS = append(r.latMS, c.between(op[0], op[1]))
	}
	working := c.between(r.start, r.end)
	for _, p := range r.probes {
		working -= c.between(p[0], p[1])
	}
	r.QPS = ratio(float64(r.Correct), working/1000)
	sorted := sortedCopy(r.latMS)
	r.P50, _ = percentile(sorted, 0.50)
	r.P95, _ = percentile(sorted, 0.95)
}

// phase is the outcome of one closed- or open-loop phase.
type phase struct {
	Name      string  `json:"name"`
	Seconds   float64 `json:"seconds"` // wall time
	Sent      int     `json:"sent"`
	Succeeded int     `json:"succeeded"`
	Failed    int     `json:"failed"`
	// Throughput is correct replies per second at reference speed: the
	// median over the phase's rounds. Closed loop only.
	Throughput float64        `json:"throughput_qps"`
	Latency    latencySummary `json:"latency"`
	Speed      float64        `json:"speed"` // median over the rounds
	Rounds     []*round       `json:"rounds"`

	// Open loop only.
	Load        float64 `json:"load_qps,omitempty"`         // arrivals per second at reference speed
	LateP95MS   float64 `json:"late_p95_ms,omitempty"`      // dispatcher wake-up after the due time, wall time
	ConnWaitP95 float64 `json:"conn_wait_p95_ms,omitempty"` // due request waiting for a free connection, wall time
	BacklogEnd  int     `json:"backlog_end"`                // median over rounds of round.Backlog
	Saturated   bool    `json:"saturated"`

	ops int // stream operations this phase consumed
}

// closedLoop runs one caller that waits for each reply before sending the
// next operation, round after round of roundOps operations starting at
// stream index first, until another round would not fit in d. Latency is
// send → reply read. Between operations the caller keeps the speed log
// fresh.
func closedLoop(name string, log *speedLog, d time.Duration, first, roundOps int, do opFunc) *phase {
	ph := &phase{Name: name}
	start := time.Now()
	for i := first; ; {
		r := &round{start: time.Now()}
		r.StartMS = ms(r.start.Sub(start))
		for k := 0; k < roundOps; k, i = k+1, i+1 {
			if log.stale() {
				t0 := time.Now()
				log.probe()
				r.probes = append(r.probes, [2]time.Time{t0, time.Now()})
			}
			sent := time.Now()
			end, ok := do(i)
			ph.Sent++
			if ok {
				r.ops = append(r.ops, [2]time.Time{sent, end})
			}
		}
		r.end = time.Now() // the caller's own work on the last reply included, as on every other
		ph.Rounds = append(ph.Rounds, r)
		if time.Since(start)+r.end.Sub(r.start) > d {
			break
		}
	}
	log.probe()
	ph.finish(log.clock(), time.Since(start))
	return ph
}

// probeSlack is the idle time the open-loop dispatcher needs before the
// next arrival to fit a probe in.
const probeSlack = 2 * time.Millisecond

// openLoop sends rounds of roundOps operations at Poisson arrivals over
// `conns` connections until another round would not fit in d. load is the
// arrival rate at reference speed; each gap is stretched by the host's
// speed as last probed, so the offered share of capacity stays put when
// the host changes speed. The gaps of a round are the roundOps quantile
// midpoints of the exponential distribution in an order drawn from the
// seed: every round has the same gaps, hence the same duration, and a
// different burst pattern. A request due while every connection is busy
// waits in the generator and is timed from its due time, so a stall is
// charged to every request it delays (no coordinated omission). A round
// ends when its last reply is in, so rounds do not queue behind each
// other. The dispatcher probes the speed when nothing is in flight and
// the next arrival is probeSlack away.
func openLoop(name string, log *speedLog, conns int, load float64, d time.Duration, first, roundOps int, seed int64, do opFunc) *phase {
	type job struct {
		i   int
		due time.Time
		r   *round
	}
	// One round's arrivals fit, so the dispatcher never blocks on a slow system.
	queue := make(chan job, roundOps)
	ph := &phase{Name: name, Load: load}
	var mu sync.Mutex
	var connWait, late []float64
	var unanswered atomic.Int64
	var inRound sync.WaitGroup

	var workers sync.WaitGroup
	for c := 0; c < conns; c++ {
		workers.Add(1)
		go func() {
			defer workers.Done()
			for j := range queue {
				sent := time.Now()
				end, ok := do(j.i)
				mu.Lock()
				ph.Sent++
				connWait = append(connWait, ms(sent.Sub(j.due)))
				if ok {
					j.r.ops = append(j.r.ops, [2]time.Time{j.due, end})
				}
				if end.After(j.r.end) {
					j.r.end = end
				}
				mu.Unlock()
				unanswered.Add(-1)
				inRound.Done()
			}
		}()
	}

	start := time.Now()
	for i := first; ; i += roundOps {
		log.probe()
		r := &round{start: time.Now()}
		r.StartMS = ms(r.start.Sub(start))
		order := opRNG(seed, streamArrival, i/roundOps).Perm(roundOps)
		due := r.start
		inRound.Add(roundOps)
		for k := 0; k < roundOps; k++ {
			gap := -math.Log(1-(float64(order[k])+0.5)/float64(roundOps)) / (load * log.factor())
			due = due.Add(time.Duration(gap * float64(time.Second)))
			if unanswered.Load() == 0 && time.Until(due) > probeSlack {
				log.refresh()
			}
			time.Sleep(time.Until(due))
			late = append(late, ms(time.Since(due)))
			unanswered.Add(1)
			queue <- job{i + k, due, r}
		}
		r.Backlog = int(unanswered.Load())
		inRound.Wait()
		ph.Rounds = append(ph.Rounds, r)
		if time.Since(start)+r.end.Sub(r.start) > d {
			break
		}
	}
	close(queue)
	workers.Wait()
	log.probe()

	ph.LateP95MS, _ = percentile(sortedCopy(late), 0.95)
	ph.ConnWaitP95, _ = percentile(sortedCopy(connWait), 0.95)
	var backlogs []float64
	for _, r := range ph.Rounds {
		backlogs = append(backlogs, float64(r.Backlog))
	}
	ph.BacklogEnd = int(median(backlogs))
	// A quarter second of arrivals still unanswered when the last one falls
	// due means the queue was growing, not fluctuating (one slow miss parks
	// a dozen requests).
	ph.Saturated = ph.BacklogEnd > 2*conns+int(load*0.25)
	ph.finish(log.clock(), time.Since(start))
	return ph
}

// mergePhases folds the interleaved slices of one loop into one phase.
func mergePhases(name string, c *refClock, slices []*phase) *phase {
	out := &phase{Name: name}
	seconds := 0.0
	for _, s := range slices {
		out.Sent += s.Sent
		out.Rounds = append(out.Rounds, s.Rounds...)
		seconds += s.Seconds
	}
	out.finish(c, time.Duration(seconds*float64(time.Second)))
	return out
}

// slowRound is the share of the phase's fastest round's speed below which
// a round is set aside. Bringing a timing to reference speed assumes the
// operations slow down exactly as the probe does; they do to within a few
// percent while the host runs at 0.8–1 of reference speed, but at its
// slowest (0.6–0.7) index builds and serve_hot lose a further 10–15%. A
// phase that saw both keeps the rounds it can bring to reference speed
// best.
const slowRound = 0.8

// steady returns the rounds the phase's statistics are taken over.
func (ph *phase) steady() []*round {
	fastest := 0.0
	for _, r := range ph.Rounds {
		fastest = max(fastest, r.Speed)
	}
	var out []*round
	for _, r := range ph.Rounds {
		if r.Speed >= slowRound*fastest {
			out = append(out, r)
		}
	}
	return out
}

func (ph *phase) finish(c *refClock, wall time.Duration) {
	ph.ops = ph.Sent
	ph.Seconds = wall.Seconds()
	ph.Succeeded = 0
	for _, r := range ph.Rounds {
		r.finish(c)
		ph.Succeeded += r.Correct
	}
	ph.Failed = ph.Sent - ph.Succeeded
	var qps, speeds []float64
	for _, r := range ph.steady() {
		qps, speeds = append(qps, r.QPS), append(speeds, r.Speed)
	}
	ph.Throughput, ph.Speed = median(qps), median(speeds)
	ph.Latency = summarize(ph.steady())
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
