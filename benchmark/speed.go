package main

import (
	"sort"
	"sync"
	"time"
)

// The reference box is a 2-vCPU guest whose processors run at one of a few
// speeds up to a factor 1.5 apart, changing every few seconds with nothing
// in the guest to show for it (no steal time; the same on either vCPU,
// pinned or not, busy or just woken — presumably who else the host runs on
// the core). Identical code therefore reads 17 ms or 26 ms per operation
// depending on the second, and medians over a run, longer runs or fewer
// threads do not help. What does: a fixed piece of work timed every few
// tens of milliseconds, beside the operations. The probe below slows by
// about the same factor as the workloads do (library enumeration, index
// build, JSON and HTTP alike: the ratio of operation time to probe time
// moves by 0–7% between the fastest speed and 0.8 of it; see slowRound in
// loadgen.go for the slowest), so every timing is reported at reference
// speed — as the time between its two ends on a clock that advances by
// probeRefMS for every probe time measured.

// probeRefMS is the probe time that defines reference speed: what the
// reference box reads at its fastest. On another machine it is an
// arbitrary constant; timings stay comparable between runs on one box.
const probeRefMS = 0.7

// probeEvery is the least time between two probes: one probe costs about
// 0.7 ms, so the probes take under 3% of a run.
const probeEvery = 25 * time.Millisecond

var (
	probeTable [4096]uint64
	probeSink  uint64 // keeps the compiler from dropping the work
)

func init() {
	for i := range probeTable {
		probeTable[i] = uint64(i) * 2654435761
	}
}

// probeOnce times four independent integer chains with look-ups in a
// table that stays in the first-level cache: work that keeps several
// execution ports busy, which is what slows down with the host. (One
// dependent chain does not notice; a walk through memory notices other
// things too.)
func probeOnce() time.Duration {
	t0 := time.Now()
	a, b, c, d := uint64(1), uint64(2), uint64(3), uint64(4)
	for i := 0; i < 400_000; i++ {
		a = a*6364136223846793005 + 1442695040888963407
		b ^= b<<13 ^ probeTable[a>>52]
		c += c>>7 ^ probeTable[b&4095]
		d = d*3 + probeTable[c&4095]
	}
	probeSink += a + b + c + d
	return time.Since(t0)
}

// speedLog is the run's record of probes. The load generator probes when
// the log is stale and the processor is its own: between two operations
// of a closed loop, in the idle gaps of an open loop, around a set-up.
type speedLog struct {
	epoch time.Time
	mu    sync.Mutex
	at    []int64   // ns since epoch, ascending
	ms    []float64 // probe time
}

func newSpeedLog() *speedLog { return &speedLog{epoch: time.Now()} }

// now is the time since the log's epoch, the time base of the tracer too.
func (l *speedLog) now() int64 { return int64(time.Since(l.epoch)) }

// probe runs the probe and logs it.
func (l *speedLog) probe() {
	at := l.now()
	d := ms(probeOnce())
	l.mu.Lock()
	l.at, l.ms = append(l.at, at), append(l.ms, d)
	l.mu.Unlock()
}

// refresh probes if the last probe is older than probeEvery.
func (l *speedLog) refresh() {
	if l.stale() {
		l.probe()
	}
}

func (l *speedLog) stale() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.at) == 0 || l.now()-l.at[len(l.at)-1] >= int64(probeEvery)
}

// factor is probeRefMS ÷ the latest probe: what a duration measured now
// would be multiplied by.
func (l *speedLog) factor() float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.ms) == 0 {
		return 1
	}
	return probeRefMS / l.ms[len(l.ms)-1]
}

// refClock maps wall time to time at reference speed. Between two probes
// it advances at probeRefMS ÷ the mean of the two; before the first and
// after the last, at the rate of that probe alone. Timings taken as
// differences on it are comparable whatever the host was doing, and spans
// mapped through it keep their nesting.
type refClock struct {
	epoch  time.Time
	starts []int64   // wall ns since epoch, ascending
	rates  []float64 // reference ns per wall ns from each start on
	refs   []float64 // reference time at each start
}

// clock freezes the log into a reference clock. It needs one probe.
func (l *speedLog) clock() *refClock {
	l.mu.Lock()
	defer l.mu.Unlock()
	c := &refClock{epoch: l.epoch}
	for i, at := range l.at {
		mean := l.ms[i]
		if i+1 < len(l.ms) {
			mean = (l.ms[i] + l.ms[i+1]) / 2
		}
		ref := float64(at)
		if i > 0 {
			ref = c.refs[i-1] + float64(at-c.starts[i-1])*c.rates[i-1]
		}
		c.starts, c.rates, c.refs = append(c.starts, at), append(c.rates, probeRefMS/mean), append(c.refs, ref)
	}
	return c
}

// ref is the reference time (ns) of wall time t (ns since the epoch).
func (c *refClock) ref(t int64) int64 {
	i := max(sort.Search(len(c.starts), func(i int) bool { return c.starts[i] > t })-1, 0)
	return int64(c.refs[i] + float64(t-c.starts[i])*c.rates[i])
}

// rate is what a short duration measured around wall time t (ns since the
// epoch) is multiplied by to bring it to reference speed.
func (c *refClock) rate(t int64) float64 {
	return c.rates[max(sort.Search(len(c.starts), func(i int) bool { return c.starts[i] > t })-1, 0)]
}

// between is the time from a to b at reference speed, in ms.
func (c *refClock) between(a, b time.Time) float64 {
	return float64(c.ref(int64(b.Sub(c.epoch)))-c.ref(int64(a.Sub(c.epoch)))) / 1e6
}
