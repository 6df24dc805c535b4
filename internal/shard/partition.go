// Package shard implements the sharded serving fleet: a partitioner
// that cuts the data graph into pivot-owned shards (the paper's §5
// workload estimate + Jaccard co-location, via internal/workload), and
// a stateless scatter-gather router that fronts N shard-mode ceciserve
// processes.
//
// The correctness contract that makes sharded counts exactly equal
// single-node counts, even with symmetry breaking on:
//
//  1. Every data vertex is owned by exactly one shard; each shard's
//     resident subgraph is the induced subgraph over its owned
//     vertices plus a halo of every vertex within distance Radius.
//  2. Shards force each query's index root to the query's canonical
//     anchor (minimum-eccentricity vertex of the canonical form) and
//     enumerate only clusters pivoted on owned vertices. An embedding
//     mapping the anchor to v lies entirely within distance
//     ecc(anchor) <= Radius of v, so the owner of v sees the whole
//     embedding; queries with ecc > Radius are rejected up front.
//  3. Shard-local vertex ids ascend in global-id order, so the
//     automorphism-breaking "M(class[i-1]) < M(class[i])" comparisons
//     agree with global ids — every shard picks the same orbit
//     representative as a single node would, and each representative
//     is emitted by exactly one shard: the owner of its anchor image.
package shard

import (
	"fmt"

	"ceci/internal/graph"
	"ceci/internal/workload"
)

// Partition is one shard's slice of the data graph.
type Partition struct {
	// ID is this shard's index in [0, Shards).
	ID int
	// Shards is the fleet size this partition was cut for.
	Shards int
	// Radius is the halo depth the subgraph was grown to.
	Radius int
	// Graph is the induced subgraph over owned + halo vertices, with
	// local ids ascending in global-id order.
	Graph *graph.Graph
	// Globals maps local id -> global id (strictly ascending).
	Globals []graph.VertexID
	// OwnedLocals lists the local ids of owned vertices (sorted).
	OwnedLocals []graph.VertexID
}

// Owned returns how many vertices this shard owns.
func (p *Partition) Owned() int { return len(p.OwnedLocals) }

// PartitionOptions configures Split.
type PartitionOptions struct {
	// Shards is the number of partitions (>= 1, <= |V|).
	Shards int
	// Radius is the halo depth (default 2). It bounds the anchor
	// eccentricity of servable queries: a path query on 2k+1 vertices
	// needs Radius >= k.
	Radius int
	// Jaccard enables similarity co-location of overlapping clusters
	// among the 1000 heaviest pivots (workload.DistributePivots' default).
	Jaccard bool
}

// Split cuts data into pivot-owned shards: ownership comes from the §5
// workload estimate (greedy largest-first bin packing with optional
// Jaccard co-location), halos from a BFS of depth Radius out of each
// owned set. Every vertex is owned by exactly one shard; shards
// overlap only in halo.
func Split(data *graph.Graph, opt PartitionOptions) ([]*Partition, error) {
	n := data.NumVertices()
	if opt.Shards < 1 {
		return nil, fmt.Errorf("shard: need at least 1 shard, got %d", opt.Shards)
	}
	if opt.Shards > n {
		return nil, fmt.Errorf("shard: %d shards for %d vertices; every shard must own at least one vertex", opt.Shards, n)
	}
	if opt.Radius <= 0 {
		opt.Radius = 2
	}

	all := make([]graph.VertexID, n)
	for i := range all {
		all[i] = graph.VertexID(i)
	}
	parts := workload.DistributePivots(data, all, workload.DistributeOptions{
		Parts:           opt.Shards,
		NeighborDegrees: true, // the partitioner reads the whole graph
		Jaccard:         opt.Jaccard,
	})
	repairEmpty(parts)

	out := make([]*Partition, opt.Shards)
	for i, owned := range parts {
		p, err := induce(data, i, opt, owned)
		if err != nil {
			return nil, err
		}
		out[i] = p
	}
	return out, nil
}

// repairEmpty moves single vertices from the largest part into empty
// ones. Zero-weight vertices (isolated, or id-scaled to nothing) can
// leave greedy bins empty, and an empty shard cannot even build a
// graph; ownership stays a partition either way.
func repairEmpty(parts [][]graph.VertexID) {
	for i := range parts {
		if len(parts[i]) > 0 {
			continue
		}
		donor := -1
		for j := range parts {
			if donor < 0 || len(parts[j]) > len(parts[donor]) {
				donor = j
			}
		}
		if len(parts[donor]) < 2 {
			continue // caller guaranteed shards <= vertices, so this cannot happen
		}
		last := len(parts[donor]) - 1
		parts[i] = append(parts[i], parts[donor][last])
		parts[donor] = parts[donor][:last]
	}
}

// induce builds one shard: BFS to Radius out of the owned set marks the
// halo, then the induced subgraph is assembled with local ids assigned
// in ascending global order (the symmetry-breaking invariant).
func induce(data *graph.Graph, id int, opt PartitionOptions, owned []graph.VertexID) (*Partition, error) {
	n := data.NumVertices()
	// dist < 0: excluded; 0: owned; 1..Radius: halo ring.
	dist := make([]int, n)
	for i := range dist {
		dist[i] = -1
	}
	queue := make([]graph.VertexID, 0, len(owned))
	for _, v := range owned {
		dist[v] = 0
		queue = append(queue, v)
	}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		if dist[v] == opt.Radius {
			continue
		}
		for _, w := range data.Neighbors(v) {
			if dist[w] < 0 {
				dist[w] = dist[v] + 1
				queue = append(queue, w)
			}
		}
	}

	// Local ids ascend in global order: walk globals 0..n-1 once.
	local := make([]graph.VertexID, n) // global -> local (valid where dist >= 0)
	var globals []graph.VertexID
	for v := 0; v < n; v++ {
		if dist[v] >= 0 {
			local[v] = graph.VertexID(len(globals))
			globals = append(globals, graph.VertexID(v))
		}
	}

	b := graph.NewBuilder(len(globals))
	ownedLocals := make([]graph.VertexID, 0, len(owned))
	for lv, gv := range globals {
		labels := data.Labels(gv)
		b.SetLabel(graph.VertexID(lv), labels[0])
		for _, l := range labels[1:] {
			b.AddExtraLabel(graph.VertexID(lv), l)
		}
		if dist[gv] == 0 {
			ownedLocals = append(ownedLocals, graph.VertexID(lv))
		}
		for _, w := range data.Neighbors(gv) {
			if w > gv && dist[w] >= 0 {
				b.AddEdge(graph.VertexID(lv), local[w])
			}
		}
	}
	g, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("shard %d: %w", id, err)
	}
	return &Partition{
		ID:          id,
		Shards:      opt.Shards,
		Radius:      opt.Radius,
		Graph:       g,
		Globals:     globals,
		OwnedLocals: ownedLocals,
	}, nil
}
