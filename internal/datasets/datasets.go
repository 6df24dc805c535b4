// Package datasets catalogs the synthetic stand-ins for the paper's
// Table 1 datasets. The SNAP/Yahoo graphs are not available offline, so
// each entry generates a graph whose *shape* matches what drives CECI's
// behaviour — degree skew, density, label selectivity — at a scale a
// single machine handles in seconds (DESIGN.md §4 records the
// substitution rationale).
//
// Abbreviations follow the paper (CP, FS, HU, LJ, OK, WG, WT, YH, YT,
// RD); the "_s" suffix marks the scaled substitutes.
package datasets

import (
	"fmt"
	"sync"

	"ceci/internal/gen"
	"ceci/internal/graph"
)

// Spec describes one dataset substitute.
type Spec struct {
	// Name is the substitute's identifier (e.g. "lj_s").
	Name string
	// Abbr is the paper's abbreviation (e.g. "LJ").
	Abbr string
	// PaperName and PaperV/PaperE document the original (V/E as printed
	// in Table 1).
	PaperName string
	PaperV    string
	PaperE    string
	// Shape explains which generator approximates it and why.
	Shape string
	// Labels is the label alphabet injected for labeled experiments
	// (0 = unlabeled).
	Labels int
	// MultiLabel marks datasets whose vertices carry several labels
	// (the paper's HU).
	MultiLabel bool
	// Make generates the graph (deterministic).
	Make func() *graph.Graph
}

// Catalog returns the Table 1 substitutes in the paper's row order.
func Catalog() []Spec {
	return []Spec{
		{
			Name: "cp_s", Abbr: "CP", PaperName: "citPatent", PaperV: "3.77M", PaperE: "16.5M",
			Shape: "citation network: moderate skew; Chung-Lu γ=2.3, avg deg 8",
			Make:  func() *graph.Graph { return gen.ChungLu(24000, 8, 2.3, 101) },
		},
		{
			Name: "fs_s", Abbr: "FS", PaperName: "Friendster", PaperV: "65.6M", PaperE: "1.8B",
			Shape: "huge social graph: Kronecker scale 16, edge factor 10 (the largest substitute)",
			Make:  func() *graph.Graph { return gen.Kronecker(16, 10, 102) },
		},
		{
			Name: "hu_s", Abbr: "HU", PaperName: "Human", PaperV: "4.6K", PaperE: "0.7M",
			Shape:  "small dense biological network, 90 Zipf-distributed multi-labels: ER n=4600, m=0.7M (full paper density)",
			Labels: 90, MultiLabel: true,
			Make: func() *graph.Graph {
				return gen.WithZipfMultiLabels(gen.ErdosRenyi(4600, 700000, 103), 90, 3, 1.4, 203)
			},
		},
		{
			Name: "lj_s", Abbr: "LJ", PaperName: "live-journal", PaperV: "3.99M", PaperE: "34.68M",
			Shape: "social network: Chung-Lu γ=2.3, avg deg 12",
			Make:  func() *graph.Graph { return gen.ChungLu(40000, 12, 2.3, 104) },
		},
		{
			Name: "ok_s", Abbr: "OK", PaperName: "Orkut", PaperV: "3.0M", PaperE: "117.2M",
			Shape: "dense social network: Chung-Lu γ=2.4, avg deg 28",
			Make:  func() *graph.Graph { return gen.ChungLu(20000, 28, 2.4, 105) },
		},
		{
			Name: "wg_s", Abbr: "WG", PaperName: "Webgoogle", PaperV: "0.9M", PaperE: "8.6M",
			Shape: "web graph: Kronecker scale 14, edge factor 6",
			Make:  func() *graph.Graph { return gen.Kronecker(14, 6, 106) },
		},
		{
			Name: "wt_s", Abbr: "WT", PaperName: "wiki-talk", PaperV: "2.3M", PaperE: "5.0M",
			Shape: "extreme-skew communication graph: Chung-Lu γ=2.0, avg deg 4",
			Make:  func() *graph.Graph { return gen.ChungLu(40000, 4, 2.0, 107) },
		},
		{
			Name: "yh_s", Abbr: "YH", PaperName: "Yahoo", PaperV: "1.4B", PaperE: "12.9B",
			Shape: "largest graph in the study: Kronecker scale 17, edge factor 12",
			Make:  func() *graph.Graph { return gen.Kronecker(17, 12, 108) },
		},
		{
			Name: "yt_s", Abbr: "YT", PaperName: "Youtube", PaperV: "1.1M", PaperE: "3.0M",
			Shape: "sparse social network: Chung-Lu γ=2.2, avg deg 5",
			Make:  func() *graph.Graph { return gen.ChungLu(30000, 5, 2.2, 109) },
		},
		{
			Name: "rd_s", Abbr: "RD", PaperName: "rand_500k", PaperV: "0.5M", PaperE: "2.0M",
			Shape:  "the paper's own synthetic: Graph500 Kronecker scale 14, edge factor 4, 100 labels",
			Labels: 100,
			Make: func() *graph.Graph {
				return gen.WithRandomLabels(gen.Kronecker(14, 4, 110), 100, 210)
			},
		},
	}
}

// Get returns the spec named name (case-sensitive; accepts the paper
// abbreviation too).
func Get(name string) (Spec, error) {
	for _, s := range Catalog() {
		if s.Name == name || s.Abbr == name {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("datasets: unknown dataset %q", name)
}

// Names lists the substitute names in catalog order.
func Names() []string {
	specs := Catalog()
	out := make([]string, len(specs))
	for i, s := range specs {
		out[i] = s.Name
	}
	return out
}

var (
	cacheMu sync.Mutex
	cache   = map[string]*graph.Graph{}
)

// Load generates (or returns the cached) graph for name. Generation is
// deterministic, so caching is safe across experiments.
func Load(name string) (*graph.Graph, error) {
	spec, err := Get(name)
	if err != nil {
		return nil, err
	}
	cacheMu.Lock()
	defer cacheMu.Unlock()
	if g, ok := cache[spec.Name]; ok {
		return g, nil
	}
	g := spec.Make()
	cache[spec.Name] = g
	return g, nil
}

// LoadData resolves the data graph the CLIs' -data and -dataset flags
// name: a graph file (.lg labeled, else edge list) or a substitute, and
// exactly one of the two.
func LoadData(path, name string) (*graph.Graph, error) {
	switch {
	case path != "" && name != "":
		return nil, fmt.Errorf("-data and -dataset are mutually exclusive")
	case path != "":
		return graph.LoadFile(path)
	case name != "":
		return Load(name)
	default:
		return nil, fmt.Errorf("need -data or -dataset")
	}
}
