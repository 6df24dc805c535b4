// Command ceciserve runs the long-running query service: the data graph
// is loaded once and held resident, per-query CECI indexes are cached by
// canonical query hash, and match requests arrive over an HTTP JSON API
// with admission control and per-request deadlines.
//
// Usage:
//
//	ceciserve -data graph.lg -listen :8080
//	ceciserve -dataset yt_s -listen 127.0.0.1:8080 -cache-mb 512 -concurrency 8
//
// Endpoints: POST /query, GET /healthz, GET /cachez, GET /queryz (flight
// recorder), GET /tracez/{traceID} (per-query Chrome trace export),
// GET /trace (live span forest), GET /statz (telemetry hub: ledgers,
// rollups, SLO burn), plus the metric routes (/metrics, /metrics.json,
// /debug/pprof/).
//
// SIGINT/SIGTERM triggers a graceful shutdown: the listener stops
// accepting, in-flight queries drain (bounded by -drain), then the
// process exits 0.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"

	"ceci/internal/buildinfo"
	"ceci/internal/datasets"
	"ceci/internal/graph"
	"ceci/internal/obs"
	"ceci/internal/order"
	"ceci/internal/service"
	"ceci/internal/shard"
	"ceci/internal/stats"
	"ceci/internal/telemetry"
)

type serveConfig struct {
	dataPath    string
	dataset     string
	shardDir    string // -shard-manifest: partition directory (shard mode)
	shardID     int    // -shard-id: which partition to serve (-1 = single-node)
	listen      string
	concurrency int
	queueDepth  int
	cacheMB     int
	workers     int
	timeout     time.Duration
	maxTimeout  time.Duration
	maxLimit    int64
	drain       time.Duration

	// Observability.
	traceSample float64 // -trace-sample: head-based sampling rate for query traces
	auditPath   string  // -audit: write one JSON line per completed query here
	version     bool    // -version: print build identity and exit

	// Telemetry hub (/statz): resource ledgers, time-series
	// rollups, SLO burn rates.
	telemetry       bool          // -telemetry: enable the hub (on by default)
	telemetrySample time.Duration // -telemetry-sample: gauge sampling interval
	sloLatency      time.Duration // -slo-latency: latency SLO target
	sloObjective    float64       // -slo-objective: fraction of queries under target
	sloAvailability float64       // -slo-availability: fraction of queries not failing

	errw io.Writer // defaults to os.Stderr; tests capture it
	outw io.Writer // defaults to os.Stdout; tests capture it

	// listening, when non-nil, receives the bound address as soon as the
	// socket accepts connections — before the data graph loads, while the
	// readiness gate still answers 503 (tests of the gate use it).
	listening func(addr string)

	// ready, when non-nil, receives the bound address once the engine is
	// serving queries (tests use it to find the ephemeral port).
	ready func(addr string)
}

func main() {
	cfg := serveConfig{}
	flag.StringVar(&cfg.dataPath, "data", "", "data graph file (.lg labeled, else edge list)")
	flag.StringVar(&cfg.dataset, "dataset", "", "built-in dataset substitute (alternative to -data)")
	flag.StringVar(&cfg.shardDir, "shard-manifest", "", "shard mode: partition directory written by ceciroute -partition (use with -shard-id)")
	flag.IntVar(&cfg.shardID, "shard-id", -1, "shard mode: which partition of -shard-manifest to serve")
	flag.StringVar(&cfg.listen, "listen", ":8080", "address to serve the query API on")
	flag.IntVar(&cfg.concurrency, "concurrency", 0, "max queries executing at once (0 = all cores)")
	flag.IntVar(&cfg.queueDepth, "queue", 64, "max queries waiting for a slot before load-shedding")
	flag.IntVar(&cfg.cacheMB, "cache-mb", 256, "index cache budget in MiB")
	flag.IntVar(&cfg.workers, "workers", 1, "enumeration workers per query")
	flag.DurationVar(&cfg.timeout, "timeout", 30*time.Second, "default per-query deadline")
	flag.DurationVar(&cfg.maxTimeout, "max-timeout", 5*time.Minute, "upper clamp on request-supplied deadlines")
	flag.Int64Var(&cfg.maxLimit, "max-limit", 10000, "max embeddings returned per request")
	flag.DurationVar(&cfg.drain, "drain", 10*time.Second, "graceful-shutdown drain window")
	flag.Float64Var(&cfg.traceSample, "trace-sample", 1, "head-based trace sampling rate in [0,1]; unsampled queries record no spans (negative = none)")
	flag.StringVar(&cfg.auditPath, "audit", "", "append one JSON line per completed query (the flight-recorder record) to this file")
	flag.BoolVar(&cfg.version, "version", false, "print build identity (module version, VCS revision, go version) and exit")
	flag.BoolVar(&cfg.telemetry, "telemetry", true, "enable the telemetry hub: per-query resource ledgers, /statz")
	flag.DurationVar(&cfg.telemetrySample, "telemetry-sample", 10*time.Second, "telemetry gauge sampling interval")
	flag.DurationVar(&cfg.sloLatency, "slo-latency", 500*time.Millisecond, "latency SLO target per query")
	flag.Float64Var(&cfg.sloObjective, "slo-objective", 0.99, "latency SLO objective (fraction of queries under target)")
	flag.Float64Var(&cfg.sloAvailability, "slo-availability", 0.999, "availability SLO objective (fraction of queries not failing)")
	flag.Parse()
	if cfg.shardID >= 0 && cfg.shardDir == "" {
		fmt.Fprintln(os.Stderr, "ceciserve: -shard-id requires -shard-manifest")
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, cfg); err != nil {
		fmt.Fprintln(os.Stderr, "ceciserve:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, cfg serveConfig) error {
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
	// Listen before loading the graph: the gate handler answers
	// liveness (200) but not readiness (/healthz?ready=1 -> 503) while
	// the data loads, so routers and smoke tests never race startup.
	ln, err := net.Listen("tcp", cfg.listen)
	if err != nil {
		return fmt.Errorf("listen %s: %w", cfg.listen, err)
	}
	var handler atomic.Pointer[http.Handler]
	gate := gateHandler()
	handler.Store(&gate)
	srv := service.Serve(ln, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		(*handler.Load()).ServeHTTP(w, r)
	}))
	fmt.Fprintf(cfg.errw, "ceciserve: listening on http://%s/ (loading data)\n", ln.Addr())
	if cfg.listening != nil {
		cfg.listening(ln.Addr().String())
	}

	data, shardCfg, err := loadResident(cfg)
	if err != nil {
		srv.Close()
		return err
	}
	if shardCfg != nil {
		fmt.Fprintf(cfg.errw, "ceciserve: shard %d/%d resident: %v (%d owned, halo radius %d)\n",
			shardCfg.ID, shardCfg.Shards, data, len(shardCfg.OwnedLocals), shardCfg.Radius)
	} else {
		fmt.Fprintf(cfg.errw, "ceciserve: data graph %v resident\n", data)
	}

	// The optional per-query audit log is a buffered file, flushed on
	// every shutdown path (including SIGINT/SIGTERM) by the deferred
	// closure below.
	var audit io.Writer
	if cfg.auditPath != "" {
		auditFile, err := os.OpenFile(cfg.auditPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			srv.Close()
			return fmt.Errorf("-audit: %w", err)
		}
		auditBuf := bufio.NewWriter(auditFile)
		audit = auditBuf
		defer func() {
			auditBuf.Flush()
			auditFile.Close()
		}()
	}

	// Telemetry hub: per-query resource ledgers, time-series rollups, and
	// SLO burn state behind /statz. The background sampler
	// stops with the process.
	var hub *telemetry.Hub
	if cfg.telemetry {
		hub = telemetry.NewHub(telemetry.Options{
			SampleInterval: cfg.telemetrySample,
			SLO: telemetry.SLOConfig{
				LatencyTarget:         cfg.sloLatency,
				LatencyObjective:      cfg.sloObjective,
				AvailabilityObjective: cfg.sloAvailability,
			},
		})
		hub.Start()
		defer hub.Stop()
	}

	reg := obs.NewRegistry()
	eng := service.New(data, service.Options{
		MaxConcurrent:  cfg.concurrency,
		QueueDepth:     cfg.queueDepth,
		DefaultTimeout: cfg.timeout,
		MaxTimeout:     cfg.maxTimeout,
		MaxLimit:       cfg.maxLimit,
		CacheBytes:     int64(cfg.cacheMB) << 20,
		Workers:        cfg.workers,
		Order:          order.BFSOrder,
		Registry:       reg,
		Tracer:         obs.NewTracer(obs.TracerOptions{}),
		TraceSample:    cfg.traceSample,
		Audit:          audit,
		Stats:          &stats.Counters{},
		Telemetry:      hub,
		Shard:          shardCfg,
	})

	// Swap the gate out: from here /healthz?ready=1 answers 200 and
	// queries are served.
	engh := http.Handler(eng.Handler())
	handler.Store(&engh)
	fmt.Fprintf(cfg.errw, "ceciserve: serving on http://%s/\n", ln.Addr())
	if cfg.ready != nil {
		cfg.ready(ln.Addr().String())
	}

	return srv.Wait(ctx, cfg.drain, cfg.errw, "ceciserve")
}

// gateHandler serves the pre-ready phase: the process is live (plain
// /healthz answers 200 "starting") but not ready (?ready=1 answers 503,
// as does every other route) until the resident graph is loaded and the
// engine handler is swapped in.
func gateHandler() http.Handler {
	starting := service.HealthResponse{Status: "starting", Build: buildinfo.Get()}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		status := http.StatusOK
		if r.URL.Query().Get("ready") == "1" {
			status = http.StatusServiceUnavailable
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		json.NewEncoder(w).Encode(starting)
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "starting: data graph loading", http.StatusServiceUnavailable)
	})
	return mux
}

// loadResident resolves what this process serves: a whole data graph
// (single-node, shardDir empty) or one partition of a shard manifest
// (shard mode). The -shard-id/-shard-manifest pairing is validated at
// flag-parse time in main.
func loadResident(cfg serveConfig) (*graph.Graph, *service.ShardConfig, error) {
	if cfg.shardDir == "" {
		data, err := datasets.LoadData(cfg.dataPath, cfg.dataset)
		return data, nil, err
	}
	if cfg.dataPath != "" || cfg.dataset != "" {
		return nil, nil, fmt.Errorf("-shard-manifest is mutually exclusive with -data/-dataset")
	}
	if cfg.shardID < 0 {
		return nil, nil, fmt.Errorf("-shard-manifest requires -shard-id")
	}
	part, err := shard.LoadPart(cfg.shardDir, cfg.shardID)
	if err != nil {
		return nil, nil, err
	}
	return part.Graph, &service.ShardConfig{
		ID:          part.ID,
		Shards:      part.Shards,
		Radius:      part.Radius,
		Globals:     part.Globals,
		OwnedLocals: part.OwnedLocals,
	}, nil
}
