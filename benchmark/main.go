// Command benchmark is the repository's benchmark: five workloads —
// two against the library, two against ceciserve, one against a 3-shard
// fleet — each measured end to end (untraced) and layer by layer (traced,
// with spans recorded by this program around the calls into each layer).
//
// One workload, one mode (what BENCHMARK.json's command runs):
//
//	benchmark --workload serve_hot --seed 1 --seconds 22 --trace 0
//
// Every workload, untraced then traced, one child process each:
//
//	benchmark -seed 1 -out run.json
//
// Compare two such files under BENCHMARK.json's bounds:
//
//	benchmark -compare old.json new.json
//
// See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strconv"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 22

// options are the command line.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	out      string
	traceOut string
	workDir  string
	dump     string
	compare  bool
	genPools string
	cpuProf  string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "all", "workload to run, or all")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the traffic: Zipf draws, vertex permutations, round orders, arrival gaps")
	flag.Float64Var(&o.seconds, "seconds", defaultSeconds, "measured seconds of one run")
	flag.IntVar(&o.trace, "trace", 0, "0 = end-to-end metrics, untraced; 1 = per-layer metrics, traced")
	flag.StringVar(&o.out, "out", "", "write the run record(s) as JSON to this file")
	flag.StringVar(&o.traceOut, "trace-out", "", "traced run: write the spans as JSONL to this file")
	flag.StringVar(&o.workDir, "workdir", filepath.Join(".bench_build", "work"), "scratch directory for generated data files")
	flag.StringVar(&o.dump, "dump-workload", "", "write the workload's inputs (data .lg files, request JSONL) to this directory and exit")
	flag.BoolVar(&o.compare, "compare", false, "compare two -out files (old new) under BENCHMARK.json's bounds and exit")
	flag.StringVar(&o.genPools, "gen-pools", "", "regenerate the class pools into this file and exit")
	flag.StringVar(&o.cpuProf, "cpuprofile", "", "write a CPU profile of the whole run (load generator and servers share the process) to this file")
	flag.Parse()
	if err := run(&o); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(o *options) error {
	if o.cpuProf != "" {
		f, err := os.Create(o.cpuProf)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	switch {
	case o.genPools != "":
		return genPools(o.genPools)
	case o.compare:
		if flag.NArg() != 2 {
			return fmt.Errorf("-compare needs two files: old.json new.json")
		}
		return compareFiles(flag.Arg(0), flag.Arg(1), os.Stdout)
	case o.workload == "all" && o.dump == "":
		return runAll(o)
	}
	w, err := findWorkload(o.workload)
	if err != nil {
		return err
	}
	cfg := &runConfig{workload: w, seed: o.seed, seconds: o.seconds, traced: o.trace == 1, workDir: o.workDir}
	if o.dump != "" {
		return dumpWorkload(cfg, o.dump)
	}
	res, err := runWorkload(cfg)
	if err != nil {
		return err
	}
	if o.traceOut != "" && cfg.traced {
		if err := writeSpansJSONL(o.traceOut, res.spans); err != nil {
			return err
		}
	}
	rec := &res.record
	if o.out != "" {
		if err := writeJSON(o.out, []runRecord{*rec}); err != nil {
			return err
		}
	}
	printSummary(os.Stderr, rec)
	// The driver's contract: the last line of stdout is this object.
	last, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{rec.Failed == 0, rec.Attempted, rec.Failed, rec.Metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(last))
	if rec.Failed > 0 {
		return fmt.Errorf("%d of %d operations failed: %s", rec.Failed, rec.Attempted, rec.FirstError)
	}
	return nil
}

// runAll re-executes this binary once per workload and mode, so memory
// peaks and tracing cost of one run never leak into another.
func runAll(o *options) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(o.workDir, 0o755); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(o.workDir, "all-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	var all []runRecord
	failed := false
	for _, w := range workloads {
		for _, mode := range []int{0, 1} {
			part := filepath.Join(tmp, fmt.Sprintf("%s-%d.json", w.name, mode))
			cmd := exec.Command(self, "-workload", w.name, "-seed", strconv.FormatInt(o.seed, 10),
				"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-trace", strconv.Itoa(mode),
				"-workdir", o.workDir, "-out", part)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				failed = true
				fmt.Fprintf(os.Stderr, "benchmark: %s (trace %d): %v\n", w.name, mode, err)
			}
			var recs []runRecord
			if raw, err := os.ReadFile(part); err == nil && json.Unmarshal(raw, &recs) == nil {
				all = append(all, recs...)
			}
		}
	}
	if o.out != "" {
		if err := writeJSON(o.out, all); err != nil {
			return err
		}
	}
	if failed {
		return fmt.Errorf("at least one run failed or gave an incorrect answer")
	}
	return nil
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// printSummary prints every metric by name with its unit, and the
// validity of the run, for a person reading the terminal.
func printSummary(f *os.File, rec *runRecord) {
	mode := "untraced"
	if rec.Traced {
		mode = "traced"
	}
	fmt.Fprintf(f, "== %s (%s) seed %d, %gs, nproc %d, %s, %s; times at reference speed\n", rec.Workload, mode, rec.Seed, rec.Seconds, rec.NProc, rec.GoVersion, rec.GitSHA)
	for _, ph := range rec.Phases {
		l := ph.Latency
		fmt.Fprintf(f, "   %-16s %6d sent %6d ok %3d failed  %9.1f/s  p50 %.3f ms  p95 %.3f ms (n=%d in %d of %d rounds; speed %.2f",
			ph.Name, ph.Sent, ph.Succeeded, ph.Failed, ph.Throughput, l.P50, l.P95, l.Samples, l.Rounds, len(ph.Rounds), ph.Speed)
		if !l.P95OK {
			fmt.Fprint(f, ", too few samples for p95")
		}
		fmt.Fprint(f, ")")
		if l.P99 != nil {
			fmt.Fprintf(f, "  p99 %.3f ms", *l.P99)
		}
		if l.P999 != nil {
			fmt.Fprintf(f, "  p999 %.3f ms", *l.P999)
		}
		if ph.Load > 0 {
			fmt.Fprintf(f, "  load %g/s late_p95 %.3f ms backlog_end %d saturated %v", ph.Load, ph.LateP95MS, ph.BacklogEnd, ph.Saturated)
		}
		fmt.Fprintln(f)
	}
	names := make([]string, 0, len(rec.Metrics))
	for n := range rec.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(f, "   %-30s %14.4f %s\n", n, rec.Metrics[n].Value, rec.Metrics[n].Unit)
	}
	fmt.Fprintf(f, "   error_frac %g (%d of %d)\n", rec.ErrorFrac, rec.Failed, rec.Attempted)
}

// dumpWorkload writes what the program under test would receive: the
// data graph files and the first requests of the stream.
func dumpWorkload(cfg *runConfig, dir string) error {
	pools, err := loadPools()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if _, err := dataFiles(cfg.workload, pools, dir); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "requests.jsonl"))
	if err != nil {
		return err
	}
	defer f.Close()
	const n = 10000
	line := streamLines(cfg, pools)
	for i := 0; i < n; i++ {
		if _, err := f.Write(append(line(i), '\n')); err != nil {
			return err
		}
	}
	fmt.Fprintf(os.Stderr, "benchmark: wrote %d operations of %s (seed %d) to %s\n", n, cfg.workload.name, cfg.seed, dir)
	return f.Close()
}

// streamLines returns the renderer of the workload's stream: operation i
// as the POST body for a serving workload, as the query with its data
// graph and pinned count for a library one.
func streamLines(cfg *runConfig, pools map[string]*pool) func(i int) []byte {
	w := cfg.workload
	if w.kind != kindLib {
		p := pools[w.pools[0]]
		d := &httpDriver{pool: p, stream: newStream(w, len(p.Classes), cfg.seed), limit: w.limit, seed: cfg.seed}
		return func(i int) []byte {
			_, _, body := d.request(i)
			return body
		}
	}
	type libOp struct {
		Graph   string `json:"graph"`
		Relabel int    `json:"relabel"`
		Limit   int64  `json:"limit"`
		class
	}
	var ops []libOp
	for _, name := range w.pools {
		p := pools[name]
		for _, c := range p.Classes {
			ops = append(ops, libOp{p.Graph, p.Relabel, p.Cap, c})
		}
	}
	st := newStream(w, len(ops), cfg.seed)
	return func(i int) []byte {
		b, _ := json.Marshal(ops[st.class(i)]) // cannot fail: plain data
		return b
	}
}
