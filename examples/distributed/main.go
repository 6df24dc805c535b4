// Distributed deployment walkthrough (Section 5 of the paper): measures
// one query's build and per-cluster enumeration costs serially, then
// replays them through the distributed schedule (cluster.Simulation) in
// both placement modes — printing the speedup over one machine and, at 8
// machines, every machine's cost ledger (pivots assigned, work stolen,
// build compute vs IO vs communication). This is what Figures 16, 17 and
// 20 are generated from.
//
// For real processes talking over real sockets on real partition files,
// the deployment is the sharded fleet (internal/shard, cmd/ceciroute,
// cmd/ceciserve): `bash scripts/shard_smoke.sh` partitions a graph into
// three shards, boots them behind the router and sends a traced query.
//
// Run with:
//
//	go run ./examples/distributed
package main

import (
	"fmt"
	"log"

	"ceci/internal/cluster"
	"ceci/internal/datasets"
	"ceci/internal/gen"
)

func main() {
	data, err := datasets.Load("wt_s")
	if err != nil {
		log.Fatal(err)
	}
	query := gen.QG1() // triangle
	fmt.Printf("data graph: %v, query: triangle\n\n", data)

	sim, err := cluster.NewSimulation(data, query)
	if err != nil {
		log.Fatal(err)
	}
	for _, mode := range []cluster.Mode{cluster.Replicated, cluster.SharedStorage} {
		fmt.Printf("== mode: %v ==\n", mode)
		var base *cluster.Result
		for _, machines := range []int{1, 4, 8} {
			res, err := sim.Run(cluster.Config{
				Machines:          machines,
				WorkersPerMachine: 4,
				Mode:              mode,
				Jaccard:           mode == cluster.Replicated,
			})
			if err != nil {
				log.Fatal(err)
			}
			if machines == 1 {
				base = res
			}
			fmt.Printf("%d machine(s): %d embeddings, makespan %v (%.2fx), %d steals\n",
				machines, res.Embeddings, res.Makespan.Round(1000),
				float64(base.Makespan)/float64(res.Makespan), res.Steals)
			if machines == 8 {
				fmt.Println("  per-machine ledgers:")
				for i, l := range res.Machines {
					fmt.Printf("   m%d: pivots=%-5d stolen=%-3d buildCPU=%-10v buildIO=%-10v comm=%-10v enum=%-10v embeddings=%d\n",
						i, l.Pivots, l.Stolen,
						l.BuildCompute.Round(1000), l.BuildIO.Round(1000),
						l.Comm.Round(1000), l.Enumerate.Round(1000), l.Embeddings)
				}
			}
		}
		fmt.Println()
	}
	fmt.Println("real processes, sockets and partition files: bash scripts/shard_smoke.sh (the sharded fleet)")
}
