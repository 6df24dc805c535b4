// Package cluster models the paper's distributed CECI deployment
// (Section 5) on a single host, so the distributed experiments (Figures
// 16, 17, 20) can be reproduced without MPI or a lustre filesystem.
// Simulation measures a workload once and replays any machine
// count/mode through workload.Replay — that is what every figure is
// generated from. The deployment with real processes, sockets and
// partition files is internal/shard's fleet, not this package.
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
//     mode only, top-1000 largest clusters, J >= 0.5);
//   - per-machine CECI construction over the machine's pivot share;
//   - work stealing from the machine with the most unexplored clusters,
//     charged as one message (the MPI_Get of the paper);
//   - result accumulation to machine 0.
//
// What is modeled rather than physical: network latency/bandwidth and
// shared-storage read cost are charged to per-machine cost ledgers
// (Ledger) at fixed rates, so experiments report both the measured
// compute time and the modeled IO/communication components — exactly the
// breakdown Figure 20 plots.
package cluster

import (
	"errors"
	"time"

	"ceci/internal/graph"
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

// The modeled costs of the deployment.
const (
	// remoteReadLatency is charged per adjacency fetch in SharedStorage
	// mode: a contended networked read.
	remoteReadLatency = 5 * time.Microsecond
	// messageLatency is charged per control message.
	messageLatency = 50 * time.Microsecond
	// bytesPerSecond is the storage/network bandwidth of bulk transfers.
	bytesPerSecond = 1 << 30
)

// Config describes the simulated deployment.
type Config struct {
	// Machines is the number of simulated machines (paper: 1–16).
	Machines int
	// WorkersPerMachine is the per-machine thread count (paper: 4).
	WorkersPerMachine int
	// Mode selects Replicated or SharedStorage placement.
	Mode Mode
	// Jaccard enables similarity-based co-location (replicated only).
	Jaccard bool
}

func (c *Config) defaults() error {
	if c.Machines <= 0 {
		return errors.New("cluster: Machines must be positive")
	}
	if c.WorkersPerMachine <= 0 {
		c.WorkersPerMachine = 4
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

// distributePivots assigns pivots to machines via the shared §5
// workload-estimate partitioner (workload.DistributePivots), whose
// Jaccard comparison takes the 1000 heaviest pivots by default. Neighbor
// degrees and Jaccard co-location require the whole graph locally, so
// both are gated on Replicated mode.
func distributePivots(data *graph.Graph, pivots []graph.VertexID, cfg Config) [][]graph.VertexID {
	return workload.DistributePivots(data, pivots, workload.DistributeOptions{
		Parts:           cfg.Machines,
		NeighborDegrees: cfg.Mode == Replicated,
		Jaccard:         cfg.Jaccard && cfg.Mode == Replicated,
	})
}
