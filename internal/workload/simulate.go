package workload

import "time"

// ReplayUnit is one serially measured piece of work: what it cost and
// what it produced.
type ReplayUnit struct {
	Cost       time.Duration
	Embeddings int64
}

// Schedule describes what Replay plays measured unit costs through: who
// starts with which units, when and how fast each server runs, and what
// an idle server may do. Every scaling figure is one of these — the
// scheduling policies are its data, not separate loops:
//
//   - ST (§4.2): units dealt round-robin into Queues, Steal off — a
//     worker that drains its share stops.
//   - CGD / FGD (§4.2–4.3): one shared pool, which is Queues[0] holding
//     everything with Steal on and no StealLatency — the earliest-free
//     worker takes the next unit in pool order, i.e. list scheduling.
//   - §5's machines: Queues are the pivot partition, Start is each
//     machine's build + IO + distribution time, Speed its worker count,
//     and a steal from the machine with the most unexplored clusters
//     costs StealLatency (the MPI_Get).
type Schedule struct {
	// Queues[i] is server i's own units, in the order it runs them.
	Queues [][]ReplayUnit
	// Start[i] is server i's clock when it begins (nil = all zero).
	Start []time.Duration
	// Speed divides every unit's cost (0 = 1): a machine of W workers is
	// a server of speed W, since FGD makes its clusters divisible.
	Speed float64
	// Steal lets a server whose queue is empty take the head of the
	// longest other queue, paying StealLatency on its clock each time.
	Steal        bool
	StealLatency time.Duration
}

// ReplayResult is one server's share of a replayed schedule.
type ReplayResult struct {
	Busy       time.Duration // Σ cost/speed of the units it ran
	Stolen     int           // units it took from other queues
	Embeddings int64
}

// Replay plays the schedule: the server with the earliest clock (lowest
// index on ties) acts next — runs the head of its own queue, else
// steals, else retires. It is the only function that advances simulated
// worker or machine clocks. Queues are consumed through local views;
// the caller's slices are not modified.
func Replay(s Schedule) []ReplayResult {
	n := len(s.Queues)
	speed := s.Speed
	if speed <= 0 {
		speed = 1
	}
	queues := append([][]ReplayUnit(nil), s.Queues...)
	clock := make([]time.Duration, n)
	copy(clock, s.Start)
	res := make([]ReplayResult, n)
	done := make([]bool, n)
	for active := n; active > 0; {
		m := -1
		for i := 0; i < n; i++ {
			if !done[i] && (m < 0 || clock[i] < clock[m]) {
				m = i
			}
		}
		from := m
		if len(queues[m]) == 0 {
			// The victim is the queue with the most unexplored units.
			from = -1
			if s.Steal {
				best := 0
				for i := 0; i < n; i++ {
					if i != m && len(queues[i]) > best {
						from, best = i, len(queues[i])
					}
				}
			}
			if from < 0 {
				done[m] = true
				active--
				continue
			}
			res[m].Stolen++
			clock[m] += s.StealLatency
		}
		u := queues[from][0]
		queues[from] = queues[from][1:]
		d := time.Duration(float64(u.Cost) / speed)
		clock[m] += d
		res[m].Busy += d
		res[m].Embeddings += u.Embeddings
	}
	return res
}

// SimulateWorkerTimes returns each worker's busy time when k workers
// process units with the given costs under a distribution strategy.
// Costs are in pool order (for FGD, already sorted largest-first by
// Decompose). This mirrors how the real ForEach schedules work, but
// over measured per-unit durations, so speedup curves are
// host-core-count independent (the per-worker series is what Figure 12
// plots).
func SimulateWorkerTimes(costs []time.Duration, workers int, strategy Strategy) []time.Duration {
	if workers < 1 {
		workers = 1
	}
	s := Schedule{Queues: make([][]ReplayUnit, workers), Steal: strategy != ST}
	for i, c := range costs {
		q := 0
		if strategy == ST {
			q = i % workers
		}
		s.Queues[q] = append(s.Queues[q], ReplayUnit{Cost: c})
	}
	busy := make([]time.Duration, workers)
	for i, w := range Replay(s) {
		busy[i] = w.Busy
	}
	return busy
}

// SimulateMakespan returns the finishing time of the slowest worker — the
// quantity whose inverse scaling the paper's speedup figures plot.
func SimulateMakespan(costs []time.Duration, workers int, strategy Strategy) time.Duration {
	var max time.Duration
	for _, f := range SimulateWorkerTimes(costs, workers, strategy) {
		if f > max {
			max = f
		}
	}
	return max
}
