package prof

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Text renders the profile as the EXPLAIN ANALYZE report: the
// per-vertex filter funnel, TE/NTE index shape, enumeration-time
// intersection stats, cluster-cardinality distribution, per-worker
// utilization, and phase durations.
func (p Profile) Text() string {
	var b strings.Builder

	if p.Order != "" {
		fmt.Fprintf(&b, "matching order (%s): %s\n\n", p.Order, orderString(p.MatchingOrder))
	}

	b.WriteString("== filter funnel (per query vertex) ==\n")
	fmt.Fprintf(&b, "%4s %4s %6s  %10s %9s %9s %9s %9s %9s %10s\n",
		"pos", "u", "parent", "scanned", "-label", "-degree", "-nlc", "-refine", "-cascade", "final")
	order := make([]int, len(p.Vertices))
	for i := range p.Vertices {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool {
		return p.Vertices[order[i]].OrderPos < p.Vertices[order[j]].OrderPos
	})
	for _, u := range order {
		v := p.Vertices[u]
		parent := "-"
		if v.Parent >= 0 {
			parent = fmt.Sprintf("u%d", v.Parent)
		}
		fmt.Fprintf(&b, "%4d %4s %6s  %10d %9d %9d %9d %9d %9d %10d\n",
			v.OrderPos, fmt.Sprintf("u%d", v.Vertex), parent,
			v.NeighborsScanned, v.DroppedLabel, v.DroppedDegree, v.DroppedNLC,
			v.DroppedRefine, v.DroppedCascade, v.FinalCands)
	}

	b.WriteString("\n== index shape (TE / NTE) ==\n")
	fmt.Fprintf(&b, "%4s  %10s %12s %10s  %s\n", "u", "te_entries", "te_cands", "te_bytes", "nte (parent: entries/cands/bytes, build cmp->out)")
	for _, u := range order {
		v := p.Vertices[u]
		var ntes []string
		for _, n := range v.NTE {
			ntes = append(ntes, fmt.Sprintf("u%d: %d/%d/%s, %d->%d",
				n.Parent, n.Entries, n.Candidates, formatByteCount(n.Bytes),
				n.BuildComparisons, n.BuildOutput))
		}
		nteCol := "-"
		if len(ntes) > 0 {
			nteCol = strings.Join(ntes, "; ")
		}
		fmt.Fprintf(&b, "%4s  %10d %12d %10s  %s\n",
			fmt.Sprintf("u%d", v.Vertex), v.TEEntries, v.TECandidates,
			formatByteCount(v.TEBytes), nteCol)
	}

	b.WriteString("\n== enumeration intersections (per query vertex) ==\n")
	fmt.Fprintf(&b, "%4s  %10s %12s %13s %12s %11s\n",
		"u", "lookups", "intersects", "comparisons", "output", "selectivity")
	for _, u := range order {
		v := p.Vertices[u]
		e := v.Enum
		if e.Lookups == 0 && e.Comparisons == 0 {
			continue
		}
		sel := "-"
		if e.Comparisons > 0 {
			sel = fmt.Sprintf("%.4f", float64(e.Output)/float64(e.Comparisons))
		}
		fmt.Fprintf(&b, "%4s  %10d %12d %13d %12d %11s\n",
			fmt.Sprintf("u%d", v.Vertex), e.Lookups, e.Intersections, e.Comparisons, e.Output, sel)
	}

	hasKernels := false
	for _, v := range p.Vertices {
		if len(v.Enum.Kernels) > 0 {
			hasKernels = true
			break
		}
	}
	if hasKernels {
		b.WriteString("\n== intersection kernels (per query vertex) ==\n")
		fmt.Fprintf(&b, "%4s  %-28s %12s\n", "u", "kernel: calls/scanned/emitted", "scanned")
		for _, u := range order {
			v := p.Vertices[u]
			e := v.Enum
			if len(e.Kernels) == 0 {
				continue
			}
			var ks []string
			for _, k := range e.Kernels {
				ks = append(ks, fmt.Sprintf("%s: %d/%d/%d", k.Kernel, k.Calls, k.Scanned, k.Emitted))
			}
			fmt.Fprintf(&b, "%4s  %-28s %12d\n",
				fmt.Sprintf("u%d", v.Vertex), strings.Join(ks, "; "), e.Scanned)
		}
	}

	b.WriteString("\n== cluster cardinality distribution ==\n")
	if p.Strategy != "" {
		fmt.Fprintf(&b, "strategy: %s\n", p.Strategy)
	}
	fmt.Fprintf(&b, "%-8s %8s %8s %8s %8s %8s %10s %8s\n",
		"", "count", "min", "p50", "p95", "max", "total", "skew")
	writeDist(&b, "pivots", p.Clusters.Pivots)
	writeDist(&b, "units", p.Clusters.Units)
	if p.Clusters.ExtremeSplits > 0 {
		fmt.Fprintf(&b, "extreme-cluster splits: %d additional units\n", p.Clusters.ExtremeSplits)
	}

	if len(p.Workers) > 0 {
		b.WriteString("\n== workers ==\n")
		fmt.Fprintf(&b, "%6s %12s %12s %8s %8s\n",
			"worker", "busy", "idle", "util", "units")
		for _, w := range p.Workers {
			util := "-"
			if total := w.Busy + w.Idle; total > 0 {
				util = fmt.Sprintf("%.0f%%", 100*float64(w.Busy)/float64(total))
			}
			fmt.Fprintf(&b, "%6d %12v %12v %8s %8d\n",
				w.Worker, w.Busy.Round(time.Microsecond), w.Idle.Round(time.Microsecond),
				util, w.Units)
		}
	}

	if len(p.Phases) > 0 {
		b.WriteString("\n== phases ==\n")
		for _, ph := range p.Phases {
			fmt.Fprintf(&b, "%-24s %12v\n", ph.Name, ph.Duration.Round(time.Microsecond))
		}
	}

	if p.Resources != nil {
		b.WriteString("\n== resources ==\n")
		b.WriteString(p.Resources.Text())
	}

	return b.String()
}

func orderString(ord []int) string {
	parts := make([]string, len(ord))
	for i, u := range ord {
		parts[i] = fmt.Sprintf("u%d", u)
	}
	return strings.Join(parts, " ")
}

func writeDist(b *strings.Builder, name string, d Dist) {
	fmt.Fprintf(b, "%-8s %8d %8d %8d %8d %8d %10d %8.2f\n",
		name, d.Count, d.Min, d.P50, d.P95, d.Max, d.Total, d.Skew)
}

func formatByteCount(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.2fGiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.2fMiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.2fKiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}
