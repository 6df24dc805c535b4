// Package cluster models the paper's distributed CECI deployment
// (Section 5) on a single host, so the distributed experiments (Figures
// 16, 17, 20) can be reproduced without MPI or a lustre filesystem.
// Simulation measures a workload once and replays any machine
// count/mode through workload.Replay — that is what every figure is
// generated from; Run is the concurrent reference the tests hold it to
// (machines as goroutine ensembles, same partitioner, same ledgers).
// The deployment with real processes, sockets and partition files is
// internal/shard's fleet, not this package.
//
// What is faithful to the paper:
//
//   - two graph-placement modes: Replicated (every machine holds the data
//     graph; Figure 16) and SharedStorage (one CSR copy behind a
//     latency-charged accessor; Figure 17);
//   - pivot distribution by the light-weight workload estimate of §5
//     (degree + neighbor degrees when the graph is local, degree only
//     when it is not), scaled by (|V|-v)/|V| to account for the
//     automorphism-breaking order;
//   - Jaccard-similarity co-location of overlapping clusters (replicated
//     mode only, top-K largest clusters, J >= 0.5);
//   - per-machine CECI construction over the machine's pivot partition;
//   - work stealing from the machine with the most unexplored clusters,
//     modeled as a one-sided read of the victim's queue and index (the
//     MPI_Get of the paper);
//   - result accumulation to machine 0.
//
// What is modeled rather than physical: network latency/bandwidth and
// shared-storage read cost are charged to per-machine cost ledgers
// (Ledger) instead of being slept away, so experiments report both the
// measured compute time and the modeled IO/communication components —
// exactly the breakdown Figure 20 plots.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ceci/internal/ceci"
	"ceci/internal/enum"
	"ceci/internal/graph"
	"ceci/internal/order"
	"ceci/internal/stats"
	"ceci/internal/workload"
)

// Mode selects graph placement.
type Mode int

const (
	// Replicated loads the whole data graph into every machine's memory
	// (the Figure 16 configuration).
	Replicated Mode = iota
	// SharedStorage keeps one CSR on networked storage; every adjacency
	// fetch during CECI construction pays the remote-read cost (the
	// Figure 17 configuration).
	SharedStorage
)

func (m Mode) String() string {
	if m == SharedStorage {
		return "shared-storage"
	}
	return "replicated"
}

// Config describes the simulated deployment.
type Config struct {
	// Machines is the number of simulated machines (paper: 1–16).
	Machines int
	// WorkersPerMachine is the per-machine thread count (paper: 4).
	WorkersPerMachine int
	// Mode selects Replicated or SharedStorage placement.
	Mode Mode
	// RemoteReadLatency is charged per adjacency fetch in SharedStorage
	// mode (default 5µs, a contended networked read).
	RemoteReadLatency time.Duration
	// MessageLatency is charged per control message (default 50µs).
	MessageLatency time.Duration
	// BytesPerSecond models storage/network bandwidth for bulk transfers
	// (default 1 GiB/s).
	BytesPerSecond float64
	// Jaccard enables similarity-based co-location (replicated only).
	Jaccard bool
	// JaccardTopK bounds how many of the largest clusters are compared
	// (default 1000, as in the paper).
	JaccardTopK int
	// Beta is the FGD ExtremeCluster threshold within each machine.
	Beta float64
}

func (c *Config) defaults() error {
	if c.Machines <= 0 {
		return errors.New("cluster: Machines must be positive")
	}
	if c.WorkersPerMachine <= 0 {
		c.WorkersPerMachine = 4
	}
	if c.RemoteReadLatency <= 0 {
		c.RemoteReadLatency = 5 * time.Microsecond
	}
	if c.MessageLatency <= 0 {
		c.MessageLatency = 50 * time.Microsecond
	}
	if c.BytesPerSecond <= 0 {
		c.BytesPerSecond = 1 << 30
	}
	if c.JaccardTopK <= 0 {
		c.JaccardTopK = 1000
	}
	return nil
}

// Ledger is a per-machine cost account combining measured wall time with
// modeled IO and communication charges.
type Ledger struct {
	BuildCompute time.Duration // measured: CECI construction CPU
	BuildIO      time.Duration // modeled: remote reads (SharedStorage) or initial graph load (Replicated)
	Comm         time.Duration // modeled: pivot distribution, steals, result accumulation
	Enumerate    time.Duration // measured: embedding enumeration wall time
	Pivots       int           // clusters assigned initially
	Stolen       int           // clusters obtained by stealing
	Embeddings   int64
	RemoteReads  int64
	MessagesSent int64
}

// Total returns the machine's end-to-end modeled time.
func (l *Ledger) Total() time.Duration {
	return l.BuildCompute + l.BuildIO + l.Comm + l.Enumerate
}

// Result is the outcome of a simulated distributed run.
type Result struct {
	Embeddings int64
	Machines   []Ledger
	// Makespan is the slowest machine's total modeled time — the quantity
	// whose inverse scaling Figures 16/17 plot.
	Makespan time.Duration
	// Steals counts successful work-steal transfers.
	Steals int64
}

// Run executes the distributed subgraph listing concurrently: one
// goroutine ensemble per machine, real builds, real stealing.
func Run(data, query *graph.Graph, cfg Config) (*Result, error) {
	return RunCtx(context.Background(), data, query, cfg)
}

// RunCtx is Run under a context. Cancellation is honored at cluster
// granularity — each machine checks the context before building its CECI,
// before every locally-owned pivot, and before every steal — and inside
// per-cluster enumeration through the enumerator's own context plumbing.
// On cancellation the partial Result accumulated so far is returned
// together with the context's cause.
func RunCtx(ctx context.Context, data, query *graph.Graph, cfg Config) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	tree, err := order.Preprocess(data, query, order.DefaultOptions())
	if err != nil {
		return nil, err
	}

	// Coordinator: collect pivots and distribute them by the §5
	// light-weight workload estimate.
	pivots := tree.Filter(data).Candidates(tree.Root)
	parts := distributePivots(data, pivots, cfg)

	res := &Result{Machines: make([]Ledger, cfg.Machines)}
	machines := make([]*machine, cfg.Machines)
	for i := range machines {
		machines[i] = &machine{
			id:     i,
			ctx:    ctx,
			cfg:    &cfg,
			data:   data,
			tree:   tree,
			ledger: &res.Machines[i],
		}
	}
	// Shared steal registry: pending (machine, pivot-queue) state.
	reg := &stealRegistry{queues: make([]pivotQueue, cfg.Machines)}
	for i, p := range parts {
		reg.queues[i].pivots = p
		res.Machines[i].Pivots = len(p)
		// Pivot distribution: one message per machine plus payload bytes.
		res.Machines[i].Comm += cfg.MessageLatency +
			time.Duration(float64(len(p)*4)/cfg.BytesPerSecond*float64(time.Second))
		res.Machines[i].MessagesSent++
	}

	var total atomic.Int64
	var steals atomic.Int64
	var wg sync.WaitGroup
	for _, m := range machines {
		wg.Add(1)
		go func(m *machine) {
			defer wg.Done()
			m.run(reg, &total, &steals)
		}(m)
	}
	wg.Wait()

	// Result accumulation to machine 0: one message per other machine.
	for i := 1; i < cfg.Machines; i++ {
		res.Machines[i].Comm += cfg.MessageLatency
		res.Machines[i].MessagesSent++
	}

	res.Embeddings = total.Load()
	res.Steals = steals.Load()
	for i := range res.Machines {
		if t := res.Machines[i].Total(); t > res.Makespan {
			res.Makespan = t
		}
	}
	if err := ctx.Err(); err != nil {
		return res, context.Cause(ctx)
	}
	return res, nil
}

// distributePivots assigns pivots to machines via the shared §5
// workload-estimate partitioner (workload.DistributePivots). Neighbor
// degrees and Jaccard co-location require the whole graph locally, so
// both are gated on Replicated mode.
func distributePivots(data *graph.Graph, pivots []graph.VertexID, cfg Config) [][]graph.VertexID {
	return workload.DistributePivots(data, pivots, workload.DistributeOptions{
		Parts:           cfg.Machines,
		NeighborDegrees: cfg.Mode == Replicated,
		Jaccard:         cfg.Jaccard && cfg.Mode == Replicated,
		JaccardTopK:     cfg.JaccardTopK,
	})
}

// pivotQueue is one machine's pending clusters, stealable by others.
type pivotQueue struct {
	mu     sync.Mutex
	pivots []graph.VertexID
	index  *ceci.Index // published after the owner builds it
}

func (q *pivotQueue) pop() (graph.VertexID, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.pivots) == 0 {
		return 0, false
	}
	v := q.pivots[len(q.pivots)-1]
	q.pivots = q.pivots[:len(q.pivots)-1]
	return v, true
}

func (q *pivotQueue) size() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.pivots)
}

type stealRegistry struct {
	queues []pivotQueue
}

// victim returns the machine with the most unexplored clusters, excluding
// self; ok is false when everything is drained.
func (r *stealRegistry) victim(self int) (int, bool) {
	best, bestSize := -1, 0
	for i := range r.queues {
		if i == self {
			continue
		}
		if s := r.queues[i].size(); s > bestSize {
			best, bestSize = i, s
		}
	}
	return best, best >= 0
}

type machine struct {
	id     int
	ctx    context.Context
	cfg    *Config
	data   *graph.Graph
	tree   *order.QueryTree
	ledger *Ledger
}

func (m *machine) run(reg *stealRegistry, total *atomic.Int64, steals *atomic.Int64) {
	q := &reg.queues[m.id]

	// Phase 1: build the local CECI over this machine's pivot partition.
	st := &stats.Counters{}
	start := time.Now()
	q.mu.Lock()
	myPivots := append([]graph.VertexID(nil), q.pivots...)
	q.mu.Unlock()
	var ix *ceci.Index
	if len(myPivots) > 0 {
		var err error
		ix, err = ceci.BuildCtx(m.ctx, m.data, m.tree, ceci.Options{
			Workers: m.cfg.WorkersPerMachine,
			Pivots:  myPivots,
			Stats:   st,
		})
		if err != nil {
			// Cancelled mid-build: this machine contributes nothing; the
			// loops below observe the context and drain immediately.
			ix = nil
		}
	}
	m.ledger.BuildCompute = time.Since(start)
	m.ledger.RemoteReads = st.RemoteReads.Load()

	switch m.cfg.Mode {
	case SharedStorage:
		// Every adjacency fetch paid the remote-read cost.
		m.ledger.BuildIO = time.Duration(m.ledger.RemoteReads) * m.cfg.RemoteReadLatency
	case Replicated:
		// One bulk load of the CSR into local memory.
		bytes := float64(m.data.BytesEstimate())
		m.ledger.BuildIO = time.Duration(bytes / m.cfg.BytesPerSecond * float64(time.Second))
	}

	q.mu.Lock()
	q.index = ix
	q.mu.Unlock()

	// Phase 2: enumerate local clusters, then steal.
	enumStart := time.Now()
	var found int64
	runPivot := func(ix *ceci.Index, pivot graph.VertexID) {
		matcher := enum.NewMatcher(ix.Restrict([]graph.VertexID{pivot}), enum.Options{
			Workers:  m.cfg.WorkersPerMachine,
			Strategy: workload.FGD,
			Beta:     m.cfg.Beta,
		})
		n, _ := matcher.CountCtx(m.ctx)
		found += n
		total.Add(n)
	}
	for m.ctx.Err() == nil {
		pivot, ok := q.pop()
		if !ok {
			break
		}
		if ix != nil {
			runPivot(ix, pivot)
		}
	}
	// Work stealing: one-sided reads of the victim's queue and index.
	for m.ctx.Err() == nil {
		victim, ok := reg.victim(m.id)
		if !ok {
			break
		}
		vq := &reg.queues[victim]
		vq.mu.Lock()
		vix := vq.index
		vq.mu.Unlock()
		if vix == nil {
			// The victim is still building its CECI; its clusters are
			// not stealable yet.
			runtime.Gosched()
			continue
		}
		pivot, ok := vq.pop()
		if !ok {
			continue
		}
		m.ledger.Comm += m.cfg.MessageLatency // the MPI_Get
		m.ledger.MessagesSent++
		m.ledger.Stolen++
		steals.Add(1)
		runPivot(vix, pivot)
	}
	m.ledger.Enumerate = time.Since(enumStart)
	m.ledger.Embeddings = found
}

// String renders a result summary.
func (r *Result) String() string {
	return fmt.Sprintf("cluster{embeddings=%d machines=%d makespan=%v steals=%d}",
		r.Embeddings, len(r.Machines), r.Makespan, r.Steals)
}
