// Command gengraph emits synthetic graphs in the repository's two text
// formats: the Table 1 dataset substitutes by name, or parametric
// Kronecker / Chung-Lu / Erdős–Rényi graphs.
//
// Usage:
//
//	gengraph -dataset lj_s -o lj.lg
//	gengraph -kind kronecker -scale 14 -edgefactor 8 -seed 7 -o g.edges
//	gengraph -kind chunglu -n 50000 -avgdeg 12 -gamma 2.3 -labels 100 -o g.lg
//	gengraph -list
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"ceci/internal/buildinfo"
	"ceci/internal/datasets"
	"ceci/internal/gen"
	"ceci/internal/graph"
)

func main() {
	var (
		dataset    = flag.String("dataset", "", "emit a Table 1 substitute by name (see -list)")
		list       = flag.Bool("list", false, "list available dataset substitutes")
		kind       = flag.String("kind", "", "generator: kronecker | chunglu | er")
		scale      = flag.Int("scale", 14, "kronecker: log2 of vertex count")
		edgeFactor = flag.Int("edgefactor", 8, "kronecker: edges per vertex")
		n          = flag.Int("n", 10000, "chunglu/er: vertex count")
		m          = flag.Int("m", 40000, "er: edge count")
		avgDeg     = flag.Float64("avgdeg", 8, "chunglu: average degree")
		gamma      = flag.Float64("gamma", 2.3, "chunglu: power-law exponent")
		labels     = flag.Int("labels", 0, "inject this many random labels (0 = unlabeled)")
		seed       = flag.Int64("seed", 1, "generator seed")
		out        = flag.String("o", "", "output path (.lg labeled, else edge list; default stdout edge list)")
		version    = flag.Bool("version", false, "print build identity (module version, VCS revision, go version) and exit")
	)
	flag.Parse()

	if *version {
		fmt.Println(buildinfo.Get())
		return
	}

	if *list {
		for _, s := range datasets.Catalog() {
			fmt.Printf("%-6s %-3s %-12s paper: %s vertices, %s edges — %s\n",
				s.Name, s.Abbr, s.PaperName, s.PaperV, s.PaperE, s.Shape)
		}
		return
	}

	g, err := makeGraph(*dataset, *kind, *scale, *edgeFactor, *n, *m, *avgDeg, *gamma, *labels, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gengraph:", err)
		os.Exit(1)
	}
	if err := write(g, *out); err != nil {
		fmt.Fprintln(os.Stderr, "gengraph:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "generated %v\n", g)
}

func makeGraph(dataset, kind string, scale, edgeFactor, n, m int, avgDeg, gamma float64, labels int, seed int64) (*graph.Graph, error) {
	if dataset != "" {
		return datasets.Load(dataset)
	}
	var g *graph.Graph
	switch kind {
	case "kronecker":
		g = gen.Kronecker(scale, edgeFactor, seed)
	case "chunglu":
		g = gen.ChungLu(n, avgDeg, gamma, seed)
	case "er":
		g = gen.ErdosRenyi(n, m, seed)
	case "":
		return nil, fmt.Errorf("need -dataset or -kind (see -list)")
	default:
		return nil, fmt.Errorf("unknown -kind %q", kind)
	}
	if labels > 0 {
		g = gen.WithRandomLabels(g, labels, seed+1000)
	}
	return g, nil
}

// write writes g to path by the rule graph.LoadFile reads by: ".lg" is
// labeled, anything else an edge list. A write that fails leaves no file
// behind.
func write(g *graph.Graph, path string) (err error) {
	if path == "" {
		return writeEdgeList(os.Stdout, g)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			os.Remove(path)
		}
	}()
	if strings.HasSuffix(path, ".lg") {
		return graph.WriteLabeled(f, g)
	}
	return writeEdgeList(f, g)
}

func writeEdgeList(f *os.File, g *graph.Graph) error {
	var err error
	g.Edges(func(u, v graph.VertexID) bool {
		_, err = fmt.Fprintf(f, "%d %d\n", u, v)
		return err == nil
	})
	return err
}
