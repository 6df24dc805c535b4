// Command cecirun runs one subgraph-matching query against a data graph
// and reports the embedding count, timings, and index statistics.
//
// Usage:
//
//	cecirun -data graph.lg -query query.lg
//	cecirun -data graph.edges -qg QG3 -workers 8 -strategy fgd
//	cecirun -dataset lj_s -qg QG1 -limit 1024 -print
//	cecirun -dataset yt_s -qg QG4 -progress 2s -listen :9090 -stats
//
// With -verify it instead runs the differential-correctness harness:
// seeded random graph/query pairs are checked across all eight engines
// (reference oracle, CECI unlimited and limited, and the five baselines),
// and a failing seed is shrunk to a minimal counterexample written out as
// .lg files.
//
//	cecirun -verify -seed 1 -pairs 500
//	cecirun -verify -seed 1337            # replay one failing seed
//	cecirun -verify -seed 1337 -verify-out /tmp/crash
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"ceci"
	"ceci/internal/buildinfo"
	"ceci/internal/datasets"
	"ceci/internal/gen"
	"ceci/internal/obs"
	"ceci/internal/order"
	"ceci/internal/verify"
)

// runConfig carries every cecirun option; flags map onto it 1:1.
type runConfig struct {
	dataPath  string
	dataset   string
	queryPath string
	qg        string
	workers   int
	limit     int64
	timeout   time.Duration // -timeout: overall deadline; partial counts + non-zero exit when hit
	strategy  string
	beta      float64
	orderName string
	edgeVerif bool
	printEmbs bool
	verbose   bool
	explain   bool

	// Profiling.
	explainAnalyze bool   // -explain-analyze: run with deep instrumentation, print the profile
	profileJSON    string // -profile-json: write the ExplainAnalyze report as JSON here
	ledger         bool   // -ledger: print the run's resource ledger (CPU, units, scratch, kernels)

	// Observability.
	statsJSON     bool          // -stats: dump counters + span tree as JSON to stderr
	listen        string        // -listen: serve /metrics, /metrics.json, /trace, /debug/pprof
	progressEvery time.Duration // -progress: print live progress lines to stderr
	tracePath     string        // -trace: write the JSONL span event log here
	traceExport   string        // -trace-export: write the span tree as Chrome trace_event JSON ("-" = stdout)
	traceSample   float64       // -trace-sample: head-based sampling rate for this run's trace
	version       bool          // -version: print build identity and exit

	// Differential verification.
	verify    bool   // -verify: run the cross-matcher harness instead of a query
	seed      int64  // -seed: first seed to check
	pairs     int    // -pairs: number of consecutive seeds
	verifyOut string // -verify-out: where minimized counterexamples land

	errw io.Writer // defaults to os.Stderr; tests capture it
	outw io.Writer // defaults to os.Stdout; tests capture it
}

func main() {
	cfg := runConfig{}
	flag.StringVar(&cfg.dataPath, "data", "", "data graph file (.lg labeled, else edge list)")
	flag.StringVar(&cfg.dataset, "dataset", "", "built-in dataset substitute (alternative to -data)")
	flag.StringVar(&cfg.queryPath, "query", "", "query graph file")
	flag.StringVar(&cfg.qg, "qg", "", "built-in query graph: QG1..QG5 (alternative to -query)")
	flag.IntVar(&cfg.workers, "workers", 0, "worker count (0 = all cores)")
	flag.Int64Var(&cfg.limit, "limit", 0, "stop after this many embeddings (0 = all)")
	flag.DurationVar(&cfg.timeout, "timeout", 0, "abort after this long, reporting partial counts and exiting non-zero (0 = no deadline)")
	flag.StringVar(&cfg.strategy, "strategy", "fgd", "workload strategy: st | cgd | fgd")
	flag.Float64Var(&cfg.beta, "beta", 0.2, "extreme-cluster threshold factor")
	var orders []string
	for _, h := range order.Heuristics() {
		orders = append(orders, h.String())
	}
	flag.StringVar(&cfg.orderName, "order", "bfs", "matching order: "+strings.Join(orders, " | "))
	flag.BoolVar(&cfg.edgeVerif, "edge-verification", false, "ablation: verify non-tree edges by adjacency probes")
	flag.BoolVar(&cfg.printEmbs, "print", false, "print each embedding")
	flag.BoolVar(&cfg.verbose, "v", false, "print index statistics and counters")
	flag.BoolVar(&cfg.explain, "explain", false, "print the query plan before running")
	flag.BoolVar(&cfg.explainAnalyze, "explain-analyze", false, "execute with deep instrumentation and print the per-vertex profile")
	flag.StringVar(&cfg.profileJSON, "profile-json", "", "write the EXPLAIN ANALYZE report as JSON to this file (implies instrumentation)")
	flag.BoolVar(&cfg.ledger, "ledger", false, "print the run's resource ledger (CPU time, work units, peak scratch, kernel mix)")
	flag.BoolVar(&cfg.statsJSON, "stats", false, "print the final counter snapshot and span tree as JSON to stderr")
	flag.StringVar(&cfg.listen, "listen", "", "serve telemetry (/metrics, /metrics.json, /trace, /debug/pprof) on this address")
	flag.DurationVar(&cfg.progressEvery, "progress", 0, "print live progress to stderr at this interval (0 = off)")
	flag.StringVar(&cfg.tracePath, "trace", "", "write the JSONL span event log to this file")
	flag.StringVar(&cfg.traceExport, "trace-export", "", "write the run's span tree as Chrome trace_event JSON to this file (\"-\" = stdout; load in chrome://tracing)")
	flag.Float64Var(&cfg.traceSample, "trace-sample", 1, "head-based trace sampling rate in [0,1]; an unsampled run records no spans")
	flag.BoolVar(&cfg.version, "version", false, "print build identity (module version, VCS revision, go version) and exit")
	flag.BoolVar(&cfg.verify, "verify", false, "run the differential-correctness harness on seeded random pairs")
	flag.Int64Var(&cfg.seed, "seed", 1, "first seed for -verify")
	flag.IntVar(&cfg.pairs, "pairs", 1, "number of consecutive seeds for -verify")
	flag.StringVar(&cfg.verifyOut, "verify-out", ".", "directory for minimized counterexample .lg files")
	flag.Parse()

	// SIGINT/SIGTERM cancel the run's context: the build aborts at its
	// next expansion step, enumeration at its next depth step, and the
	// telemetry endpoint drains — same path as -timeout expiry.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, cfg); err != nil {
		fmt.Fprintln(os.Stderr, "cecirun:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, cfg runConfig) error {
	if cfg.errw == nil {
		cfg.errw = os.Stderr
	}
	if cfg.outw == nil {
		cfg.outw = os.Stdout
	}
	if cfg.version {
		fmt.Fprintln(cfg.outw, buildinfo.Get())
		return nil
	}
	if cfg.verify {
		return runVerify(cfg)
	}
	if cfg.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.timeout)
		defer cancel()
	}

	data, err := loadData(cfg.dataPath, cfg.dataset)
	if err != nil {
		return err
	}
	query, err := loadQuery(cfg.queryPath, cfg.qg)
	if err != nil {
		return err
	}

	opts := &ceci.Options{
		Workers:          cfg.workers,
		Limit:            cfg.limit,
		Beta:             cfg.beta,
		EdgeVerification: cfg.edgeVerif,
		Stats:            &ceci.Stats{},
	}
	if cfg.ledger {
		opts.Ledger = ceci.NewLedger()
	}
	switch strings.ToLower(cfg.strategy) {
	case "st":
		opts.Strategy = ceci.StrategyStatic
	case "cgd":
		opts.Strategy = ceci.StrategyCoarse
	case "fgd", "":
		opts.Strategy = ceci.StrategyFine
	default:
		return fmt.Errorf("unknown strategy %q", cfg.strategy)
	}
	if cfg.orderName != "" {
		known := false
		for _, h := range order.Heuristics() {
			if h.String() == strings.ToLower(cfg.orderName) {
				opts.Order, known = h, true
			}
		}
		if !known {
			return fmt.Errorf("unknown order %q", cfg.orderName)
		}
	}

	// Observability wiring: tracer (with optional JSONL log), head-based
	// sampling, live progress printing, and the telemetry endpoint. A zero
	// sampling rate means "everything" (the config zero value must not
	// silently disable tracing); pass a negative rate to sample nothing.
	rate := cfg.traceSample
	if rate == 0 {
		rate = 1
	}
	sampled := obs.NewTraceContext().SampleHead(rate)
	tropts := ceci.TracerOptions{}
	var traceFile *os.File
	var traceBuf *bufio.Writer
	if cfg.tracePath != "" && sampled {
		traceFile, err = os.Create(cfg.tracePath)
		if err != nil {
			return fmt.Errorf("-trace: %w", err)
		}
		traceBuf = bufio.NewWriter(traceFile)
		tropts.JSONL = traceBuf
	}
	if sampled {
		opts.Tracer = ceci.NewTracer(tropts)
	} else if cfg.tracePath != "" || cfg.traceExport != "" {
		fmt.Fprintf(cfg.errw, "trace: run not sampled (-trace-sample %v); no spans recorded\n", cfg.traceSample)
	}
	// One deferred closure owns trace teardown so the order holds on
	// every exit path — including SIGINT/SIGTERM and -timeout expiry:
	// force-close any still-open spans (emitting their JSONL end events),
	// render the Chrome export, then flush the event log. Without the
	// EndOpen an interrupted run would drop the tail of the span log.
	defer func() {
		opts.Tracer.EndOpen()
		if cfg.traceExport != "" && opts.Tracer != nil {
			if xerr := exportChrome(cfg.traceExport, opts.Tracer, cfg.outw, cfg.errw); xerr != nil {
				fmt.Fprintln(cfg.errw, "-trace-export:", xerr)
			}
		}
		if traceBuf != nil {
			traceBuf.Flush()
			traceFile.Close()
		}
	}()
	// The run's root span: the preprocess/build/enumerate spans opened by
	// the layers below nest under it through the context.
	root := opts.Tracer.Start("run")
	ctx = obs.ContextWithSpan(ctx, root)

	reg := obs.NewRegistry()
	reg.SetCounters(opts.Stats)
	reg.SetTracer(opts.Tracer)
	var progressPrint ceci.ProgressFunc
	if cfg.progressEvery > 0 {
		opts.ProgressInterval = cfg.progressEvery
		errw := cfg.errw
		progressPrint = func(p ceci.Progress) {
			fmt.Fprintf(errw, "progress: clusters %d/%d  embeddings %d (%.0f/s)  eta %v\n",
				p.ClustersDone, p.ClustersTotal, p.Embeddings, p.EmbeddingsPerSec, p.ETA.Round(time.Millisecond))
		}
	}
	if cfg.progressEvery > 0 || cfg.listen != "" {
		opts.Progress = reg.ProgressFunc(progressPrint)
	}
	if cfg.listen != "" {
		srv, err := obs.Serve(cfg.listen, reg)
		if err != nil {
			return err
		}
		// Graceful drain on exit (including SIGINT/SIGTERM): in-flight
		// scrapes finish, bounded by a short window.
		defer func() {
			drainCtx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
			defer cancel()
			srv.Shutdown(drainCtx)
		}()
		fmt.Fprintf(cfg.errw, "telemetry: http://%s/\n", srv.Addr())
	}

	fmt.Fprintf(cfg.outw, "data:  %v\n", data)
	fmt.Fprintf(cfg.outw, "query: %v\n", query)

	if cfg.explainAnalyze || cfg.profileJSON != "" {
		rep, err := ceci.ExplainAnalyze(data, query, opts)
		if err != nil {
			return err
		}
		// The profiler's funnel digest rides the root span as attributes,
		// so a -trace-export timeline carries the same filtering story as
		// the EXPLAIN ANALYZE text.
		for k, v := range rep.Profile.FunnelTotals() {
			root.Annotate(obs.Int("funnel_"+k, v))
		}
		if cfg.explainAnalyze {
			fmt.Fprintln(cfg.outw)
			fmt.Fprint(cfg.outw, rep.Text())
		} else {
			fmt.Fprintf(cfg.outw, "embeddings: %d\n", rep.Embeddings)
			fmt.Fprintf(cfg.outw, "build:      %v\n", rep.BuildTime)
			fmt.Fprintf(cfg.outw, "enumerate:  %v\n", rep.EnumTime)
		}
		if cfg.profileJSON != "" {
			b, err := rep.JSON()
			if err != nil {
				return err
			}
			if err := os.WriteFile(cfg.profileJSON, append(b, '\n'), 0o644); err != nil {
				return fmt.Errorf("-profile-json: %w", err)
			}
			fmt.Fprintf(cfg.errw, "profile written to %s\n", cfg.profileJSON)
		}
		if cfg.statsJSON {
			return writeStatsJSON(cfg.errw, opts)
		}
		return nil
	}

	buildStart := time.Now()
	m, err := ceci.MatchCtx(ctx, data, query, opts)
	if err != nil {
		if isDeadline(err) {
			return fmt.Errorf("timed out after %v during index build (no partial counts: the index was incomplete)", cfg.timeout)
		}
		return err
	}
	buildTime := time.Since(buildStart)

	if cfg.explain {
		fmt.Println()
		fmt.Print(m.Explain())
		fmt.Println()
	}

	enumStart := time.Now()
	var count int64
	var enumErr error
	if cfg.printEmbs {
		var mu sync.Mutex
		enumErr = m.ForEachCtx(ctx, func(emb []ceci.VertexID) bool {
			mu.Lock()
			fmt.Println(emb)
			count++
			mu.Unlock()
			return true
		})
	} else {
		count, enumErr = m.CountCtx(ctx)
	}
	enumTime := time.Since(enumStart)

	// The ledger covers whatever ran, complete or interrupted — partial
	// charges are still real work done.
	printLedger := func() {
		if opts.Ledger != nil {
			fmt.Fprint(cfg.outw, opts.Ledger.Snapshot().Text())
		}
	}
	if enumErr != nil {
		// The run was cut short (deadline or signal). Partial counts are
		// still meaningful — every reported embedding was verified — so
		// print them before exiting non-zero.
		fmt.Printf("embeddings: %d (partial)\n", count)
		fmt.Printf("build:      %v\n", buildTime)
		fmt.Printf("enumerate:  %v (interrupted)\n", enumTime)
		printLedger()
		if cfg.statsJSON {
			if err := writeStatsJSON(cfg.errw, opts); err != nil {
				return err
			}
		}
		if isDeadline(enumErr) {
			return fmt.Errorf("timed out after %v with %d embeddings found", cfg.timeout, count)
		}
		return fmt.Errorf("interrupted with %d embeddings found: %w", count, enumErr)
	}

	fmt.Printf("embeddings: %d\n", count)
	fmt.Printf("build:      %v\n", buildTime)
	fmt.Printf("enumerate:  %v\n", enumTime)
	printLedger()
	if cfg.verbose {
		info := m.IndexInfo()
		fmt.Printf("index: pivots=%d candidate-edges=%d size=%dB theoretical=%dB saved=%.1f%%\n",
			info.Pivots, info.CandidateEdges, info.SizeBytes,
			info.TheoreticalBytes, info.SpaceSavedPercent())
		fmt.Printf("cardinality bound: %d\n", info.TotalCardinality)
		for k, v := range opts.Stats.Snapshot() {
			if v != 0 {
				fmt.Printf("  %-20s %d\n", k, v)
			}
		}
	}
	if cfg.statsJSON {
		if err := writeStatsJSON(cfg.errw, opts); err != nil {
			return err
		}
	}
	return nil
}

// isDeadline reports whether err is a context deadline expiry.
func isDeadline(err error) bool { return errors.Is(err, context.DeadlineExceeded) }

// exportChrome renders the tracer's full span forest — stitched by
// trace-context identity — as Chrome trace_event JSON, to a file or
// ("-") stdout.
func exportChrome(path string, tr *ceci.Tracer, outw, errw io.Writer) error {
	doc, err := obs.ChromeTrace(obs.Stitch(tr.Tree()))
	if err != nil {
		return err
	}
	doc = append(doc, '\n')
	if path == "-" {
		_, err = outw.Write(doc)
		return err
	}
	if err := os.WriteFile(path, doc, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(errw, "trace exported to %s (load in chrome://tracing or Perfetto)\n", path)
	return nil
}

// writeStatsJSON dumps the final counter snapshot and span tree as one
// JSON document, machine-readable from stderr.
func writeStatsJSON(w io.Writer, opts *ceci.Options) error {
	doc := map[string]any{
		"counters": opts.Stats.Snapshot(),
		"trace":    opts.Tracer.Tree(),
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// runVerify sweeps seeds [seed, seed+pairs) through the differential
// harness. The first disagreement is minimized and written to
// verify-out/ceci-verify-<seed>-{data,query}.lg; the exit status is
// non-zero so CI and scripts notice.
func runVerify(cfg runConfig) error {
	if cfg.pairs < 1 {
		cfg.pairs = 1
	}
	opts := verify.Options{Workers: cfg.workers, MaxEmbeddings: 1 << 20}
	checked, skipped := 0, 0
	for seed := cfg.seed; seed < cfg.seed+int64(cfg.pairs); seed++ {
		rep := verify.CheckSeed(seed, opts)
		if rep.Skipped {
			skipped++
			continue
		}
		checked++
		if rep.OK() {
			if cfg.verbose {
				fmt.Fprintf(cfg.outw, "%s\n", rep)
			}
			continue
		}
		fmt.Fprintf(cfg.errw, "DISAGREEMENT\n%s\n", rep)
		fmt.Fprintf(cfg.errw, "minimizing counterexample...\n")
		md, mq, mrep := verify.MinimizeFailure(rep.Data, rep.Query, opts)
		dataPath := filepath.Join(cfg.verifyOut, fmt.Sprintf("ceci-verify-%d-data.lg", seed))
		queryPath := filepath.Join(cfg.verifyOut, fmt.Sprintf("ceci-verify-%d-query.lg", seed))
		if err := writeGraphFile(dataPath, md); err != nil {
			return err
		}
		if err := writeGraphFile(queryPath, mq); err != nil {
			return err
		}
		fmt.Fprintf(cfg.errw, "minimized to data %v, query %v\n%s\n", md, mq, mrep)
		fmt.Fprintf(cfg.errw, "wrote %s and %s\n", dataPath, queryPath)
		fmt.Fprintf(cfg.errw, "replay: cecirun -data %s -query %s -print\n", dataPath, queryPath)
		return fmt.Errorf("verify: seed %d disagrees across engines", seed)
	}
	fmt.Fprintf(cfg.outw, "verify: %d pair(s) checked across %d engines, all agree (%d skipped as too large)\n",
		checked, len(verify.Engines()), skipped)
	return nil
}

func writeGraphFile(path string, g *ceci.Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := ceci.WriteLabeledGraph(f, g); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func loadData(path, dataset string) (*ceci.Graph, error) {
	switch {
	case path != "" && dataset != "":
		return nil, fmt.Errorf("-data and -dataset are mutually exclusive")
	case path != "":
		return ceci.LoadGraphFile(path)
	case dataset != "":
		return datasets.Load(dataset)
	default:
		return nil, fmt.Errorf("need -data or -dataset")
	}
}

func loadQuery(path, qg string) (*ceci.Graph, error) {
	switch {
	case path != "" && qg != "":
		return nil, fmt.Errorf("-query and -qg are mutually exclusive")
	case path != "":
		return ceci.LoadGraphFile(path)
	case qg != "":
		q, ok := gen.QueryGraphs()[strings.ToUpper(qg)]
		if !ok {
			return nil, fmt.Errorf("unknown query graph %q (QG1..QG5)", qg)
		}
		return q, nil
	default:
		return nil, fmt.Errorf("need -query or -qg")
	}
}
