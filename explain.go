package ceci

import (
	"fmt"
	"strings"
)

// Explain renders a human-readable description of the prepared query
// plan: the chosen root, matching order, tree/non-tree edge split, the
// per-vertex candidate structures with their sizes, and the embedding-
// cluster statistics that drive workload balancing — of the complete
// index, which a limited matcher builds first if it has not yet (should
// that build fail, the description is of the first cluster's index and
// its last line says why). Useful when tuning order heuristics or
// diagnosing why a pattern is slow.
func (m *Matcher) Explain() string {
	var b strings.Builder
	ix, err := m.index()
	tree := ix.Tree
	q := tree.Query

	fmt.Fprintf(&b, "query: %d vertices, %d edges (%d tree + %d non-tree)\n",
		q.NumVertices(), q.NumEdges(), tree.TreeEdgeCount(), tree.NTECount())
	fmt.Fprintf(&b, "root: u%d (cost-based argmin |cand|/deg)\n", tree.Root)

	fmt.Fprintf(&b, "order source: %s heuristic\n", m.opts.Order)
	fmt.Fprintf(&b, "matching order:")
	for _, u := range tree.Order {
		fmt.Fprintf(&b, " u%d", u)
	}
	fmt.Fprintln(&b)

	fmt.Fprintf(&b, "%-6s %-8s %-10s %-12s %-12s %s\n",
		"vertex", "label", "filtered", "TE-entries", "NTE-edges", "parent")
	for _, u := range tree.Order {
		node := &ix.Nodes[u]
		parent := "-"
		if p := tree.Parent[u]; p >= 0 {
			parent = fmt.Sprintf("u%d", p)
		}
		labels := make([]string, 0, 2)
		for _, l := range q.Labels(u) {
			labels = append(labels, fmt.Sprintf("%d", l))
		}
		fmt.Fprintf(&b, "u%-5d %-8s %-10d %-12d %-12d %s\n",
			u, strings.Join(labels, ","), len(node.Cands), node.TE.Len(), len(node.NTE), parent)
	}

	info := indexInfo(ix)
	fmt.Fprintf(&b, "index: %d candidate edges (%d unique), %s, %.1f%% below the 8·|Eq|·|Eg| bound\n",
		info.CandidateEdges, info.SizeBytes/8, formatBytes(info.SizeBytes), info.SpaceSavedPercent())
	fmt.Fprintf(&b, "clusters: %d pivots, cardinality bound %d",
		info.Pivots, info.TotalCardinality)
	if info.Pivots > 0 {
		var max int64
		for i := range ix.Pivots() {
			if c := ix.ClusterCardinality(i); c > max {
				max = c
			}
		}
		fmt.Fprintf(&b, " (largest cluster %d", max)
		if info.TotalCardinality > 0 {
			fmt.Fprintf(&b, ", %.1f%% of total", 100*float64(max)/float64(info.TotalCardinality))
		}
		fmt.Fprint(&b, ")")
	}
	fmt.Fprintln(&b)
	fmt.Fprintf(&b, "plan: %v distribution, beta=%.2g, %d workers, %s verification\n",
		m.opts.Strategy, m.opts.Beta, m.opts.Workers,
		map[bool]string{true: "adjacency-probe", false: "set-intersection"}[m.opts.EdgeVerification])
	if err != nil {
		fmt.Fprintf(&b, "incomplete: the first cluster's index only; completing it failed: %v\n", err)
	}
	return b.String()
}

func formatBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.2f GiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.2f MiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.2f KiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%d B", n)
	}
}
