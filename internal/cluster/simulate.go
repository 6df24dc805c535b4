package cluster

import (
	"sort"
	"time"

	"ceci/internal/ceci"
	"ceci/internal/enum"
	"ceci/internal/graph"
	"ceci/internal/order"
	"ceci/internal/stats"
	"ceci/internal/workload"
)

// Simulation is the modeled-time version of a distributed run: the CECI
// build and each embedding cluster's enumeration are measured serially
// once (so host core count does not distort the numbers), after which
// any machine-count/mode configuration can be replayed through a
// discrete-event simulation of the distributed schedule — including
// pivot partitioning, work stealing, and IO/communication charges. This
// is what the Figure 16/17 speedup curves and the Figure 20 build-cost
// breakdown are generated from.
type Simulation struct {
	data *graph.Graph

	pivots   []graph.VertexID
	clusters map[graph.VertexID]workload.ReplayUnit // measured cost and embeddings per pivot

	buildCompute time.Duration // serial build of the full index
	remoteReads  int64         // adjacency fetches during that build
	total        int64         // total embeddings
}

// NewSimulation measures the workload once: one serial index build plus
// one serial enumeration per embedding cluster.
func NewSimulation(data, query *graph.Graph) (*Simulation, error) {
	tree, err := order.Preprocess(data, query, order.DefaultOptions())
	if err != nil {
		return nil, err
	}
	s := &Simulation{
		data:     data,
		clusters: make(map[graph.VertexID]workload.ReplayUnit),
	}
	st := &stats.Counters{}
	start := time.Now()
	ix := ceci.Build(data, tree, ceci.Options{Workers: 1, Stats: st})
	s.buildCompute = time.Since(start)
	s.remoteReads = st.RemoteReads.Load()
	s.pivots = append(s.pivots, ix.Pivots()...)

	// Per-cluster measured costs: one searcher reused across clusters.
	m := enum.NewMatcher(ix, enum.Options{Workers: 1, Strategy: workload.CGD})
	for _, c := range m.MeasureUnits() {
		s.clusters[c.Unit.Pivot(ix)] = workload.ReplayUnit{Cost: c.Duration, Embeddings: c.Embeddings}
		s.total += c.Embeddings
	}
	return s, nil
}

// Embeddings returns the measured total embedding count.
func (s *Simulation) Embeddings() int64 { return s.total }

// Run replays the distributed schedule for one configuration.
func (s *Simulation) Run(cfg Config) (*Result, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	parts := distributePivots(s.data, s.pivots, cfg)
	res := &Result{Machines: make([]Ledger, cfg.Machines)}

	sched := workload.Schedule{
		Queues: make([][]workload.ReplayUnit, cfg.Machines),
		Start:  make([]time.Duration, cfg.Machines),
		// A machine with W workers is a server of speed W (per-cluster FGD
		// decomposition makes clusters divisible in the real system, so the
		// fluid approximation is close).
		Speed:        float64(cfg.WorkersPerMachine),
		Steal:        true,
		StealLatency: messageLatency,
	}
	totalPivots := len(s.pivots)
	for i, part := range parts {
		led := &res.Machines[i]
		led.Pivots = len(part)
		led.Comm += messageLatency +
			time.Duration(float64(len(part)*4)/bytesPerSecond*float64(time.Second))
		led.MessagesSent++
		if len(part) > 0 {
			// Each machine builds a CECI restricted to its pivot share; the
			// frontier work — and hence compute and remote reads — scales
			// with that share (the paper's light-weight balancing targets
			// exactly this proportionality).
			share := float64(len(part)) / float64(totalPivots)
			led.BuildCompute = time.Duration(share * float64(s.buildCompute))
			led.RemoteReads = int64(share * float64(s.remoteReads))
			switch cfg.Mode {
			case SharedStorage:
				led.BuildIO = time.Duration(led.RemoteReads) * remoteReadLatency
			case Replicated:
				led.BuildIO = time.Duration(float64(s.data.BytesEstimate()) /
					bytesPerSecond * float64(time.Second))
			}
			q := make([]workload.ReplayUnit, len(part))
			for j, p := range part {
				q[j] = s.clusters[p]
			}
			// Big clusters first, as the real work pool orders them.
			sort.Slice(q, func(a, b int) bool { return q[a].Cost > q[b].Cost })
			sched.Queues[i] = q
		}
		sched.Start[i] = led.BuildCompute + led.BuildIO + led.Comm
	}

	for i, m := range workload.Replay(sched) {
		led := &res.Machines[i]
		led.Enumerate = m.Busy
		led.Embeddings = m.Embeddings
		led.Stolen = m.Stolen
		led.MessagesSent += int64(m.Stolen)
		led.Comm += time.Duration(m.Stolen) * messageLatency
		res.Steals += int64(m.Stolen)
		if t := led.Total(); t > res.Makespan {
			res.Makespan = t
		}
	}
	res.Embeddings = s.total
	return res, nil
}
