package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sync"
)

type kind int

const (
	kindLib   kind = iota // in-process ceci.Match + Count
	kindServe             // one ceciserve engine over HTTP
	kindFleet             // 3 shard engines behind the router, over HTTP
)

// workload is one named set of inputs. Names are final: later issues and
// reviews quote them.
type workload struct {
	name string
	why  string
	kind kind
	// pools name the class pools the stream draws from: every class of
	// every pool once per cycle (library), or the classes of the single
	// pool in Zipf proportions (serving).
	pools []string
	// The stream repeats in cycles: every cycle holds the same classes the
	// same number of times, in an order drawn from the seed. A library
	// cycle is every class once; a serving cycle is about `cycle`
	// requests. A round, the unit every timing is taken over, is `cycles`
	// whole cycles, so all rounds of a workload do the same work and
	// differ only in order and in the state of the host.
	cycle  int
	cycles int
	// Serving workloads.
	limit      int64   // "limit" of every request
	zipf       float64 // exponent of the class popularity distribution
	cacheBytes int64   // engine index-cache budget
	warmup     int     // warm-up requests; 0 = one per class
}

const (
	fleetShards = 3
	fleetRadius = 2
)

// openLoad sets the open-loop arrival rate: this share of the closed-loop
// throughput the same run has just measured, scaled by the host's speed
// as last probed (speed.go). The rate is not a frozen number of requests
// per second because the reference box runs at speeds up to a factor 1.5
// apart and changes between them every few seconds to minutes: at a
// frozen rate the offered load would swing between 0.4 and 0.6 of
// capacity and queueing would multiply the swing.
const openLoad = 0.4

// openConns is how many requests an open loop of a serving workload keeps
// in flight before arrivals wait in the generator. A library workload has
// one caller: concurrent library calls on one processor would only
// time-slice one another.
const openConns = 4

var workloads = []workload{
	{
		name: "lib_enum", kind: kindLib, pools: []string{"enum"}, cycles: 1,
		why: "Cold Match+Count of cyclic labeled queries on wg_s: enumeration and set intersection are over 80% of each query, index build about 15%.",
	},
	{
		name: "lib_build", kind: kindLib, pools: []string{"build_qg", "build_hu"}, cycles: 2,
		why: "Cold Match+Count where filtering and index build are over 70% of each query: few-result cliques on ok_s, first-1024 on dense hu_s.",
	},
	{
		name: "serve_hot", kind: kindServe, pools: []string{"hot"}, cycle: 120, cycles: 4,
		limit: 1000, zipf: 1.1, cacheBytes: 256 << 20,
		why: "ceciserve with every index cached: sub-millisecond hits, so decode, canonicalise, cache, remap, telemetry, JSON and HTTP are the latency.",
	},
	{
		name: "serve_churn", kind: kindServe, pools: []string{"churn"}, cycle: 180, cycles: 1,
		limit: 100, zipf: 0.9, cacheBytes: 5 << 20, warmup: 150,
		why: "ceciserve with a cache far smaller than the working set: an insert and an eviction for every miss; a miss is over 90% index build.",
	},
	{
		name: "fleet_scatter", kind: kindFleet, pools: []string{"hot"}, cycle: 120, cycles: 1,
		limit: 1000, zipf: 1.1, cacheBytes: 256 << 20,
		why: "The serve_hot request stream sent through the router to 3 shards: the difference is scatter, three legs, merge and span stitching.",
	},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// libWorkers is the parallelism of every library call: the run has one
// processor (run.go).
const libWorkers = 1

// opRNG is the random stream of index i under a seed: every draw an
// operation (or a cycle, or a round) needs comes from it, so operation i
// is a pure function of (seed, stream, i) whichever client sends it.
func opRNG(seed int64, stream uint64, i int) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed)<<8|stream, uint64(i)))
}

// Random streams of a seed; each is independent of the others.
const (
	streamPerm    uint64 = iota + 1 // vertex permutation of a request
	streamCycle                     // order of the classes within a cycle
	streamArrival                   // order of the arrival gaps within an open-loop round
)

// zipfWeights returns the popularity of n classes, class 0 the most
// popular, with weight 1/(rank+1)^s, summing to 1.
func zipfWeights(n int, s float64) []float64 {
	w := make([]float64, n)
	sum := 0.0
	for r := range w {
		w[r] = 1 / math.Pow(float64(r+1), s)
		sum += w[r]
	}
	for r := range w {
		w[r] /= sum
	}
	return w
}

// stream says which class operation i requests. The classes of one cycle
// are fixed (plan); the seed draws their order, cycle by cycle.
type stream struct {
	plan []int // class of each slot of a cycle
	seed int64

	mu    sync.Mutex
	cycle int   // the cycle order was last drawn for
	order []int // slot visited at each position of that cycle
}

// newStream plans the cycle of workload w over n classes: each class once
// (library), or max(1, round(w.cycle × Zipf weight)) times (serving).
func newStream(w *workload, n int, seed int64) *stream {
	s := &stream{seed: seed, cycle: -1}
	if w.kind == kindLib {
		for k := 0; k < n; k++ {
			s.plan = append(s.plan, k)
		}
		return s
	}
	for k, p := range zipfWeights(n, w.zipf) {
		for c := max(1, int(math.Round(float64(w.cycle)*p))); c > 0; c-- {
			s.plan = append(s.plan, k)
		}
	}
	return s
}

// class is the class of operation i (i >= 0).
func (s *stream) class(i int) int {
	c, at := i/len(s.plan), i%len(s.plan)
	s.mu.Lock()
	defer s.mu.Unlock()
	if c != s.cycle {
		s.cycle, s.order = c, opRNG(s.seed, streamCycle, c).Perm(len(s.plan))
	}
	return s.plan[s.order[at]]
}
