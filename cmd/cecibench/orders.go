package main

import (
	"fmt"
	"hash/fnv"
	"sync/atomic"
	"time"

	"ceci"
	"ceci/internal/datasets"
	"ceci/internal/gen"
	"ceci/internal/graph"
	"ceci/internal/order"
	"ceci/internal/plan"
)

// runOrders runs the matching-order matrix on the Figure 7/8 suite:
// every static heuristic plus the cost-based planner ("auto") on each
// (dataset, query) pair, reporting the planner's estimate next to the
// measured comparison count and enumeration time. Two properties are
// enforced, not just printed:
//
//   - every order enumerates the identical embedding multiset (checked
//     by an order-independent hash, so parallel enumeration is fine);
//   - the planner's total comparison count across the suite is no worse
//     than the best single static heuristic's total — the planner may
//     lose a case to the oracle-best static order, but switching
//     per-case must beat committing to any one heuristic overall.
//
// Comparison counts are deterministic (independent of worker
// scheduling), so this gate is stable across machines; enumeration
// times are reported for local reading only.
func runOrders(cfg benchConfig) error {
	cases, err := orderCases(cfg)
	if err != nil {
		return err
	}

	staticNames := make([]string, 0, len(order.Heuristics()))
	for _, h := range order.Heuristics() {
		staticNames = append(staticNames, h.String())
	}

	totalCmp := map[string]int64{}
	totalTime := map[string]time.Duration{}
	autoWins, autoTies := 0, 0

	fmt.Printf("%-6s %-5s %-18s %12s %14s %12s %12s\n",
		"data", "query", "order", "estimate", "comparisons", "build", "enum")
	for _, c := range cases {
		dname, qname := c.dname, c.qname
		data, query := c.data, c.query

		// One planner pass prices every order up front; the "auto" row
		// then executes the winner.
		pl, err := plan.New(data, query, plan.DefaultOptions())
		if err != nil {
			return err
		}
		dec, err := pl.Decide()
		if err != nil {
			return err
		}
		est := map[string]float64{"auto": dec.Estimate}
		for _, h := range order.Heuristics() {
			ord, err := pl.Base().DeriveOrder(h)
			if err != nil {
				return err
			}
			est[h.String()] = pl.EstimateOrder(h.String(), ord, nil).Cost
		}

		var refHash uint64
		var refCount int64
		var defaultCmp int64
		rows := append(append([]string{}, staticNames...), "auto")
		for i, name := range rows {
			st := &ceci.Stats{}
			opts := &ceci.Options{Stats: st}
			if name == "auto" {
				opts.Planner = true
			} else {
				h, err := heuristicByName(name)
				if err != nil {
					return err
				}
				opts.Order = h
			}
			buildStart := time.Now()
			m, err := ceci.Match(data, query, opts)
			if err != nil {
				return fmt.Errorf("%s/%s %s: %w", dname, qname, name, err)
			}
			build := time.Since(buildStart)

			// Order-independent multiset hash: per-embedding FNV summed
			// with atomics, safe under the concurrent callback.
			var hsum, count atomic.Uint64
			enumStart := time.Now()
			m.ForEach(func(emb []ceci.VertexID) bool {
				h := fnv.New64a()
				var buf [4]byte
				for _, v := range emb {
					buf[0], buf[1], buf[2], buf[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
					h.Write(buf[:])
				}
				hsum.Add(h.Sum64())
				count.Add(1)
				return true
			})
			enum := time.Since(enumStart)

			cmp := st.Snapshot()["intersection_ops"]
			totalCmp[name] += cmp
			totalTime[name] += build + enum

			if i == 0 {
				refHash, refCount = hsum.Load(), int64(count.Load())
			} else if hsum.Load() != refHash || int64(count.Load()) != refCount {
				return fmt.Errorf("%s/%s: order %s enumerated a different embedding set (%d vs %d)",
					dname, qname, name, count.Load(), refCount)
			}
			if name == order.BFSOrder.String() {
				defaultCmp = cmp
			}

			label := name
			if name == "auto" {
				label = "auto(=" + dec.Chosen + ")"
				if cmp < defaultCmp {
					autoWins++
				} else if cmp == defaultCmp {
					autoTies++
				}
			}
			fmt.Printf("%-6s %-5s %-18s %12.4g %14d %12v %12v\n",
				dname, qname, label, est[name], cmp,
				build.Round(time.Microsecond), enum.Round(time.Microsecond))
		}
	}

	fmt.Printf("\n%-18s %14s %12s\n", "order (totals)", "comparisons", "time")
	bestStatic, bestStaticTotal := "", int64(-1)
	for _, name := range staticNames {
		fmt.Printf("%-18s %14d %12v\n", name, totalCmp[name], totalTime[name].Round(time.Millisecond))
		if bestStaticTotal < 0 || totalCmp[name] < bestStaticTotal {
			bestStatic, bestStaticTotal = name, totalCmp[name]
		}
	}
	fmt.Printf("%-18s %14d %12v\n", "auto", totalCmp["auto"], totalTime["auto"].Round(time.Millisecond))
	fmt.Printf("\nplanner vs default (bfs): better on %d case(s), tied on %d\n", autoWins, autoTies)

	if totalCmp["auto"] > bestStaticTotal {
		return fmt.Errorf("planner total comparisons %d exceed best static heuristic %s (%d)",
			totalCmp["auto"], bestStatic, bestStaticTotal)
	}
	fmt.Printf("planner total comparisons %d <= best static (%s, %d)\n",
		totalCmp["auto"], bestStatic, bestStaticTotal)
	return nil
}

// orderCase is one (dataset, query) cell of the matrix.
type orderCase struct {
	dname, qname string
	data, query  *ceci.Graph
}

// orderCases builds the matrix's case list. Two families:
//
//   - Unlabeled QG cases, limited to pairs a single order fully
//     enumerates in ~seconds — the matrix runs every case 5-6 times
//     (QG2 explodes to tens of millions of embeddings and QG4 to far
//     more; the time-budgeted fig7/fig8 runs cover those). On the
//     unlabeled substitutes every heuristic collapses to the same
//     order (uniform candidate counts), so these cases exercise the
//     identical-embeddings property, not order separation.
//   - Labeled cases: the QG topologies with explicit label patterns
//     over a Zipf-labeled copy of the substitutes (a few very common
//     labels, a selective tail). Skewed per-vertex candidate counts
//     are what make the heuristics genuinely disagree — this is where
//     order choice matters and the planner must earn its keep.
//     (DFS-grown QuerySet queries are no use here: on these sparse
//     substitutes they come out as trees, which enumerate with zero
//     intersections, so every order ties; and the rd_s/hu_s label
//     regimes are covered by fig9/fig10 in first-1024 mode.)
func orderCases(cfg benchConfig) ([]orderCase, error) {
	var cases []orderCase
	qgs := gen.QueryGraphs()
	unlabeled := [][2]string{
		{"wt_s", "QG1"}, {"wt_s", "QG3"},
		{"yt_s", "QG1"}, {"yt_s", "QG3"},
	}
	if !cfg.quick {
		unlabeled = append(unlabeled,
			[2]string{"lj_s", "QG1"}, [2]string{"lj_s", "QG3"}, [2]string{"lj_s", "QG5"},
			[2]string{"wg_s", "QG1"}, [2]string{"wg_s", "QG3"}, [2]string{"wg_s", "QG5"},
		)
	}
	for _, c := range unlabeled {
		data, err := datasets.Load(c[0])
		if err != nil {
			return nil, err
		}
		cases = append(cases, orderCase{c[0], c[1], data, qgs[c[1]]})
	}

	// Label patterns reuse the QG topologies: label k of the Zipf
	// alphabet covers ~(1+k)^-1.4 of the vertices, so pattern [0 1 2 3]
	// mixes one huge candidate set with progressively selective ones.
	patterns := []struct {
		qname  string
		labels []graph.Label
	}{
		{"QG1", []graph.Label{0, 1, 2}},
		{"QG2", []graph.Label{0, 1, 0, 2}},
		{"QG2", []graph.Label{0, 1, 2, 3}},
		{"QG3", []graph.Label{0, 1, 2, 3}},
		{"QG4", []graph.Label{0, 1, 2, 1, 0}},
		{"QG4", []graph.Label{0, 0, 1, 2, 3}},
		{"QG5", []graph.Label{0, 1, 2, 3, 4}},
	}
	labeled := []struct {
		dname  string
		labels int
	}{{"yt_s", 12}}
	if !cfg.quick {
		labeled = append(labeled, struct {
			dname  string
			labels int
		}{"lj_s", 16})
	}
	for _, lc := range labeled {
		base, err := datasets.Load(lc.dname)
		if err != nil {
			return nil, err
		}
		data := gen.WithZipfMultiLabels(base, lc.labels, 1, 1.4, 7*int64(lc.labels))
		dname := fmt.Sprintf("%s/z%d", lc.dname, lc.labels)
		for _, p := range patterns {
			q := relabelQuery(qgs[p.qname], p.labels)
			qname := fmt.Sprintf("%s%v", p.qname, p.labels)
			cases = append(cases, orderCase{dname, qname, data, q})
		}
	}
	return cases, nil
}

// relabelQuery copies a query topology with explicit vertex labels.
func relabelQuery(topo *ceci.Graph, labels []graph.Label) *ceci.Graph {
	b := graph.NewBuilder(topo.NumVertices())
	for v := 0; v < topo.NumVertices(); v++ {
		b.SetLabel(graph.VertexID(v), labels[v])
	}
	topo.Edges(func(u, v graph.VertexID) bool {
		b.AddEdge(u, v)
		return true
	})
	return b.MustBuild()
}

func heuristicByName(name string) (ceci.OrderHeuristic, error) {
	for _, h := range order.Heuristics() {
		if h.String() == name {
			return h, nil
		}
	}
	return 0, fmt.Errorf("unknown heuristic %q", name)
}
