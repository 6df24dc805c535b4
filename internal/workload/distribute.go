package workload

import (
	"sort"

	"ceci/internal/graph"
	"ceci/internal/setops"
)

// DistributeOptions configures pivot-to-partition assignment (§5's
// lightweight workload estimate plus optional Jaccard co-location).
// Shared by the simulated cluster runtime (internal/cluster) and the
// serving-fleet partitioner (internal/shard).
type DistributeOptions struct {
	// Parts is the number of partitions (machines or shards).
	Parts int
	// NeighborDegrees includes Σ deg(neighbors) in each pivot's weight.
	// Valid only when the whole graph is locally readable (the paper's
	// replicated mode); degree-only otherwise.
	NeighborDegrees bool
	// Jaccard enables similarity-based co-location of overlapping
	// clusters: among the jaccardTopK heaviest pivots, neighbors with
	// J ≥ 0.5 land on the same partition (capacity-capped).
	Jaccard bool
}

// jaccardTopK bounds how many of the heaviest pivots are compared
// pairwise for co-location, as in the paper.
const jaccardTopK = 1000

// PivotWeight is the §5 lightweight workload estimate for one pivot:
// deg(v) (+ Σ deg(neighbors) when the graph is local), scaled by
// (|V|-v)/|V| to account for the asymmetry inflicted by
// automorphism-breaking matching orders.
func PivotWeight(data *graph.Graph, v graph.VertexID, neighborDegrees bool) float64 {
	w := float64(data.Degree(v))
	if neighborDegrees {
		for _, u := range data.Neighbors(v) {
			w += float64(data.Degree(u))
		}
	}
	n := float64(data.NumVertices())
	return w * (n - float64(v)) / n
}

// DistributePivots assigns pivots to opt.Parts partitions by greedy
// largest-first bin packing on PivotWeight, optionally co-locating
// Jaccard-similar clusters first. Every pivot lands in exactly one
// partition; each partition's pivot list is sorted ascending. The
// assignment is deterministic for a fixed (data, pivots, opt).
func DistributePivots(data *graph.Graph, pivots []graph.VertexID, opt DistributeOptions) [][]graph.VertexID {
	if opt.Parts < 1 {
		opt.Parts = 1
	}
	type wp struct {
		v graph.VertexID
		w float64
	}
	weighted := make([]wp, len(pivots))
	for i, v := range pivots {
		weighted[i] = wp{v, PivotWeight(data, v, opt.NeighborDegrees)}
	}
	// Stable + secondary key keeps the order deterministic under ties.
	sort.Slice(weighted, func(i, j int) bool {
		if weighted[i].w != weighted[j].w {
			return weighted[i].w > weighted[j].w
		}
		return weighted[i].v < weighted[j].v
	})

	loads := make([]float64, opt.Parts)
	owner := make(map[graph.VertexID]int, len(pivots))
	assign := func(v graph.VertexID, w float64, part int) {
		owner[v] = part
		loads[part] += w
	}
	argminLoad := func() int {
		best := 0
		for i := 1; i < opt.Parts; i++ {
			if loads[i] < loads[best] {
				best = i
			}
		}
		return best
	}

	var maxLoad float64
	for _, p := range weighted {
		maxLoad += p.w
	}
	maxLoad = maxLoad / float64(opt.Parts) * 1.25 // co-location capacity cap

	if opt.Jaccard {
		// Pass 1: largest clusters pull their similar peers along.
		topK := min(jaccardTopK, len(weighted))
		for i := 0; i < topK; i++ {
			v := weighted[i].v
			if _, done := owner[v]; done {
				continue
			}
			m := argminLoad()
			assign(v, weighted[i].w, m)
			for j := i + 1; j < topK; j++ {
				u := weighted[j].v
				if _, done := owner[u]; done {
					continue
				}
				if loads[m]+weighted[j].w > maxLoad {
					break
				}
				if Jaccard(data, v, u) >= 0.5 {
					assign(u, weighted[j].w, m)
				}
			}
		}
	}
	for _, p := range weighted {
		if _, done := owner[p.v]; !done {
			assign(p.v, p.w, argminLoad())
		}
	}

	parts := make([][]graph.VertexID, opt.Parts)
	for _, p := range weighted {
		m := owner[p.v]
		parts[m] = append(parts[m], p.v)
	}
	for _, p := range parts {
		sort.Slice(p, func(i, j int) bool { return p[i] < p[j] })
	}
	return parts
}

// Jaccard returns |N(a) ∩ N(b)| / |N(a) ∪ N(b)|, the cluster-overlap
// proxy the paper's co-location pass thresholds at 0.5.
func Jaccard(data *graph.Graph, a, b graph.VertexID) float64 {
	na, nb := data.Neighbors(a), data.Neighbors(b)
	if len(na) == 0 && len(nb) == 0 {
		return 0
	}
	inter := setops.IntersectionSize(na, nb)
	union := len(na) + len(nb) - inter
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}
