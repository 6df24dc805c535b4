// Workload-balancing laboratory: explores the paper's Section 4.2-4.3
// design space interactively — static vs coarse-grained vs fine-grained
// distribution, and the effect of the ExtremeCluster threshold β on unit
// counts and per-worker balance.
//
// Run with:
//
//	go run ./examples/workloadlab
package main

import (
	"fmt"
	"log"
	"time"

	"ceci/internal/auto"
	icec "ceci/internal/ceci"
	"ceci/internal/datasets"
	"ceci/internal/enum"
	"ceci/internal/gen"
	"ceci/internal/order"
	"ceci/internal/workload"
)

func main() {
	data, err := datasets.Load("wt_s")
	if err != nil {
		log.Fatal(err)
	}
	query := gen.QG3() // 4-clique: workload imbalance at depth 4
	tree, err := order.Preprocess(data, query, order.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	ix := icec.Build(data, tree, icec.Options{})
	cons := auto.Compute(query)

	fmt.Printf("data: %v, query: 4-clique, %d embedding clusters, total cardinality bound %d\n\n",
		data, len(ix.Pivots()), ix.TotalCardinality())

	// How does β change the unit decomposition?
	const workers = 16
	fmt.Println("ExtremeCluster decomposition (Algorithm 3):")
	for _, beta := range []float64{1.0, 0.5, 0.2, 0.1, 0.05} {
		units := workload.Decompose(ix, cons, beta, workers, ix.Tree.NumVertices(), nil)
		maxCard := int64(0)
		for _, u := range units {
			if u.Card > maxCard {
				maxCard = u.Card
			}
		}
		fmt.Printf("  beta=%-5v units=%-7d largest-unit-cardinality=%d\n", beta, len(units), maxCard)
	}

	// Measure real per-unit costs once, then compare the strategies'
	// simulated makespans for 16 workers.
	fmt.Printf("\nstrategy comparison at %d workers (measured unit costs, simulated schedule):\n", workers)
	mCGD := enum.NewMatcher(ix, enum.Options{Strategy: workload.CGD, Workers: workers})
	clusterCosts := durations(mCGD.MeasureUnits())
	mFGD := enum.NewMatcher(ix, enum.Options{Strategy: workload.FGD, Workers: workers, Beta: 0.2})
	fgdCosts := durations(mFGD.MeasureUnits())

	st := workload.SimulateMakespan(clusterCosts, workers, workload.ST)
	cgd := workload.SimulateMakespan(clusterCosts, workers, workload.CGD)
	fgd := workload.SimulateMakespan(fgdCosts, workers, workload.FGD)
	fmt.Printf("  ST  makespan: %v\n", st)
	fmt.Printf("  CGD makespan: %v  (%.2fx over ST)\n", cgd, float64(st)/float64(cgd))
	fmt.Printf("  FGD makespan: %v  (%.2fx over ST)\n", fgd, float64(st)/float64(fgd))

	fmt.Println("\nper-worker busy times under FGD:")
	for w, t := range workload.SimulateWorkerTimes(fgdCosts, workers, workload.FGD) {
		fmt.Printf("  worker %2d: %v\n", w, t.Round(time.Microsecond))
	}
}

func durations(costs []enum.UnitCost) []time.Duration {
	out := make([]time.Duration, len(costs))
	for i, c := range costs {
		out[i] = c.Duration
	}
	return out
}
