// Command cecibench regenerates every table and figure of the paper's
// evaluation (Section 6) on the synthetic dataset substitutes, printing
// the same rows/series the paper reports. Absolute numbers differ from
// the paper (different hardware, scaled datasets); the shapes — who wins,
// by roughly what factor, where curves flatten — are the reproduction
// target, recorded side by side with the paper's values in EXPERIMENTS.md.
//
// Usage:
//
//	cecibench -exp table2          # one experiment
//	cecibench -exp all             # everything (minutes)
//	cecibench -exp fig7 -quick     # reduced datasets/sizes
//	cecibench -list
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"ceci/internal/buildinfo"
)

type benchConfig struct {
	quick   bool
	large   bool // include the two largest substitutes (fs_s, yh_s)
	workers int  // simulated worker count ceiling
}

type experiment struct {
	name string
	desc string
	run  func(cfg benchConfig) error
}

var experiments = []experiment{
	{"table1", "dataset inventory: substitutes vs the paper's Table 1", runTable1},
	{"table2", "CECI size vs theoretical bound, % saved (Table 2)", runTable2},
	{"fig7", "all-embeddings runtime: CECI vs DualSim vs PsgL, QG1 & QG4 (Figure 7)", runFig7},
	{"fig8", "all-embeddings runtime: QG2, QG3, QG5 on WG/WT/LJ substitutes (Figure 8)", runFig8},
	{"fig9", "first-1024, labeled queries 3-50: CECI vs CFLMatch on RD & HU (Figure 9)", runFig9},
	{"fig10", "first-1024 on HU: CECI vs TurboIso vs Boosted-TurboIso (Figure 10)", runFig10},
	{"fig11", "CGD and FGD speedup over ST, QG1/QG3/QG5 (Figure 11)", runFig11},
	{"fig12", "per-worker finish times for beta = 1 / 0.2 / 0.1 (Figure 12)", runFig12},
	{"fig13", "thread scalability vs PsgL, QG1 (Figure 13)", runFig13},
	{"fig14", "thread scalability vs PsgL, QG4 (Figure 14)", runFig14},
	{"fig15", "phase breakdown / CPU utilization story (Figure 15)", runFig15},
	{"fig16", "distributed speedup, replicated graph, 1-16 machines (Figure 16)", runFig16},
	{"fig17", "distributed speedup, shared storage (Figure 17)", runFig17},
	{"fig18", "recursive-call reduction vs PsgL (Figure 18)", runFig18},
	{"fig19", "speedup breakdown over bare-graph baseline (Figure 19)", runFig19},
	{"fig20", "CECI construction cost breakdown: IO/comm/compute (Figure 20)", runFig20},
}

func main() {
	var (
		exp     = flag.String("exp", "", "experiment to run (see -list), or 'all'")
		list    = flag.Bool("list", false, "list experiments")
		quick   = flag.Bool("quick", false, "reduced datasets and query counts")
		large   = flag.Bool("large", false, "include the largest substitutes (fs_s, yh_s) where skipped by default")
		workers = flag.Int("workers", 32, "simulated worker-count ceiling for scalability figures")
		version = flag.Bool("version", false, "print build identity (module version, VCS revision, go version) and exit")
	)
	flag.Parse()

	if *version {
		fmt.Println(buildinfo.Get())
		return
	}

	if *list || *exp == "" {
		fmt.Println("experiments:")
		for _, e := range experiments {
			fmt.Printf("  %-8s %s\n", e.name, e.desc)
		}
		return
	}
	cfg := benchConfig{quick: *quick, large: *large, workers: *workers}

	names := strings.Split(*exp, ",")
	if *exp == "all" {
		names = nil
		for _, e := range experiments {
			names = append(names, e.name)
		}
	}
	for _, name := range names {
		e, ok := find(strings.TrimSpace(name))
		if !ok {
			fmt.Fprintf(os.Stderr, "cecibench: unknown experiment %q (try -list)\n", name)
			os.Exit(1)
		}
		fmt.Printf("=== %s: %s ===\n", e.name, e.desc)
		start := time.Now()
		if err := e.run(cfg); err != nil {
			fmt.Fprintf(os.Stderr, "cecibench: %s: %v\n", e.name, err)
			os.Exit(1)
		}
		fmt.Printf("--- %s done in %v ---\n\n", e.name, time.Since(start).Round(time.Millisecond))
	}
}

func find(name string) (experiment, bool) {
	for _, e := range experiments {
		if e.name == name {
			return e, true
		}
	}
	return experiment{}, false
}

// speedup formats a ratio; "-" when either side is missing (DNF rows).
func speedup(base, other time.Duration) string {
	if base <= 0 || other <= 0 {
		return "-"
	}
	return fmt.Sprintf("%.2fx", float64(base)/float64(other))
}
