package main

import (
	"fmt"

	"ceci/internal/ceci"
	"ceci/internal/datasets"
	"ceci/internal/gen"
	"ceci/internal/graph"
	"ceci/internal/order"
)

// runTable1 prints the dataset inventory: each substitute's actual size
// next to the paper's original (Table 1).
func runTable1(cfg benchConfig) error {
	fmt.Printf("%-6s %-4s %-12s %10s %10s   %-10s %-10s  %s\n",
		"name", "abbr", "paper", "|V|", "|E|", "paper |V|", "paper |E|", "shape")
	for _, spec := range datasets.Catalog() {
		if !cfg.large && (spec.Name == "fs_s" || spec.Name == "yh_s") && cfg.quick {
			continue
		}
		g, err := datasets.Load(spec.Name)
		if err != nil {
			return err
		}
		fmt.Printf("%-6s %-4s %-12s %10d %10d   %-10s %-10s  %s\n",
			spec.Name, spec.Abbr, spec.PaperName, g.NumVertices(), g.NumEdges(),
			spec.PaperV, spec.PaperE, spec.Shape)
	}
	return nil
}

// table2Datasets matches the paper's Table 2 column set (FS, LJ, OK, WT,
// YH, YT) via the substitutes.
func table2Datasets(cfg benchConfig) []string {
	if cfg.quick {
		return []string{"lj_s", "wt_s", "yt_s"}
	}
	out := []string{"lj_s", "ok_s", "wt_s", "yt_s"}
	if cfg.large {
		out = append([]string{"fs_s"}, append(out, "yh_s")...)
	}
	return out
}

// runTable2 reproduces Table 2: CECI size (8 bytes per candidate edge)
// against the theoretical 8·|Eq|·|Eg| bound, and the % saved.
func runTable2(cfg benchConfig) error {
	names := table2Datasets(cfg)
	queries := gen.QueryGraphs()
	fmt.Printf("%-5s", "query")
	for _, d := range names {
		fmt.Printf(" | %-26s", d)
	}
	fmt.Println()
	for _, qname := range []string{"QG1", "QG2", "QG3", "QG4", "QG5"} {
		fmt.Printf("%-5s", qname)
		for _, dname := range names {
			g, err := datasets.Load(dname)
			if err != nil {
				return err
			}
			ix, _, err := buildIndex(g, queries[qname])
			if err != nil {
				return err
			}
			actual := ix.SizeBytes()
			theo := ix.TheoreticalBytes()
			saved := 100 * (1 - float64(actual)/float64(theo))
			fmt.Printf(" | %7s (%7s) [%5.1f%%]", mb(actual), mb(theo), saved)
		}
		fmt.Println()
	}
	fmt.Println("\nformat per cell: actual (theoretical) [% saved], sizes in MB")
	return nil
}

func mb(b int64) string {
	return fmt.Sprintf("%.2f", float64(b)/(1<<20))
}

func buildIndex(data, query *graph.Graph) (*ceci.Index, *order.QueryTree, error) {
	tree, err := order.Preprocess(data, query, order.DefaultOptions())
	if err != nil {
		return nil, nil, err
	}
	return ceci.Build(data, tree, ceci.Options{}), tree, nil
}
