// Command ceciroute is the shard fleet's control plane: it cuts a data
// graph into pivot-owned partitions (-partition) and runs the stateless
// scatter-gather router in front of shard-mode ceciserve processes.
//
// Partition a graph:
//
//	ceciroute -partition -data graph.lg -shards 3 -radius 2 -out shards/
//
// Serve each partition (one ceciserve per shard):
//
//	ceciserve -shard-manifest shards/ -shard-id 0 -listen :8081
//	ceciserve -shard-manifest shards/ -shard-id 1 -listen :8082
//	ceciserve -shard-manifest shards/ -shard-id 2 -listen :8083
//
// Route queries across the fleet:
//
//	ceciroute -manifest shards/ \
//	    -shard http://127.0.0.1:8081 -shard http://127.0.0.1:8082 \
//	    -shard http://127.0.0.1:8083 -listen :8080
//
// Each -shard flag lists one shard's replicas (comma-separated base
// URLs), in shard-id order. POST /query scatter-gathers across every
// shard and merges counts/embeddings; GET /shardz shows per-replica
// health; GET /tracez/{traceID} exports a span tree stitched across the
// router and the shards.
//
// SIGINT/SIGTERM triggers a graceful shutdown: the listener stops
// accepting, in-flight scatters drain (bounded by -drain), then the
// process exits 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"ceci/internal/buildinfo"
	"ceci/internal/datasets"
	"ceci/internal/obs"
	"ceci/internal/service"
	"ceci/internal/shard"
	"ceci/internal/telemetry"
)

type routeConfig struct {
	// Partition mode.
	partition bool
	dataPath  string
	dataset   string
	shards    int
	radius    int
	jaccard   bool
	outDir    string

	// Route mode.
	manifestDir string
	replicas    [][]string // one entry per -shard flag, in shard-id order
	listen      string
	healthInt   time.Duration
	healthTO    time.Duration
	healthFails int
	timeout     time.Duration
	maxTimeout  time.Duration
	margin      time.Duration
	maxLimit    int64
	drain       time.Duration
	traceSample float64
	telemetry   bool
	version     bool

	errw io.Writer // defaults to os.Stderr; tests capture it
	outw io.Writer // defaults to os.Stdout; tests capture it

	// ready, when non-nil, receives the bound address once the router
	// accepts connections (tests use it to find the ephemeral port).
	ready func(addr string)
}

func main() {
	cfg := routeConfig{}
	flag.BoolVar(&cfg.partition, "partition", false, "partition mode: cut -data/-dataset into -shards parts under -out, then exit")
	flag.StringVar(&cfg.dataPath, "data", "", "partition mode: data graph file (.lg labeled, else edge list)")
	flag.StringVar(&cfg.dataset, "dataset", "", "partition mode: built-in dataset substitute (alternative to -data)")
	flag.IntVar(&cfg.shards, "shards", 2, "partition mode: number of shards to cut")
	flag.IntVar(&cfg.radius, "radius", 2, "partition mode: halo radius (max query anchor eccentricity the fleet can answer)")
	flag.BoolVar(&cfg.jaccard, "jaccard", false, "partition mode: co-locate pivots with Jaccard neighborhood similarity >= 0.5")
	flag.StringVar(&cfg.outDir, "out", "", "partition mode: directory for manifest.json and shard files")
	flag.StringVar(&cfg.manifestDir, "manifest", "", "route mode: partition directory written by -partition")
	flag.Func("shard", "route mode: one shard's replica base URLs, comma-separated; repeat in shard-id order", func(v string) error {
		var urls []string
		for _, u := range strings.Split(v, ",") {
			u = strings.TrimSpace(strings.TrimSuffix(u, "/"))
			if u == "" {
				continue
			}
			urls = append(urls, u)
		}
		if len(urls) == 0 {
			return errors.New("empty replica list")
		}
		cfg.replicas = append(cfg.replicas, urls)
		return nil
	})
	flag.StringVar(&cfg.listen, "listen", ":8080", "route mode: address to serve the router API on")
	flag.DurationVar(&cfg.healthInt, "health-interval", time.Second, "replica health-check period")
	flag.DurationVar(&cfg.healthTO, "health-timeout", 2*time.Second, "per-probe timeout")
	flag.IntVar(&cfg.healthFails, "health-fails", 2, "consecutive probe failures before a replica is excluded")
	flag.DurationVar(&cfg.timeout, "timeout", 30*time.Second, "default per-query deadline")
	flag.DurationVar(&cfg.maxTimeout, "max-timeout", 5*time.Minute, "upper clamp on request-supplied deadlines")
	flag.DurationVar(&cfg.margin, "margin", 50*time.Millisecond, "deadline slice held back from shards for merging")
	flag.Int64Var(&cfg.maxLimit, "max-limit", 10000, "max merged embeddings returned per request")
	flag.DurationVar(&cfg.drain, "drain", 10*time.Second, "graceful-shutdown drain window")
	flag.Float64Var(&cfg.traceSample, "trace-sample", 1, "head-based trace sampling rate in [0,1] (negative = none)")
	flag.BoolVar(&cfg.telemetry, "telemetry", true, "enable the telemetry hub: /statz")
	flag.BoolVar(&cfg.version, "version", false, "print build identity (module version, VCS revision, go version) and exit")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, cfg); err != nil {
		fmt.Fprintln(os.Stderr, "ceciroute:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, cfg routeConfig) error {
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
	if cfg.partition {
		return runPartition(cfg)
	}
	return runRouter(ctx, cfg)
}

// runPartition cuts the data graph and writes the shard manifest.
func runPartition(cfg routeConfig) error {
	if cfg.outDir == "" {
		return errors.New("-partition requires -out")
	}
	data, err := datasets.LoadData(cfg.dataPath, cfg.dataset)
	if err != nil {
		return err
	}
	parts, err := shard.Split(data, shard.PartitionOptions{
		Shards:  cfg.shards,
		Radius:  cfg.radius,
		Jaccard: cfg.jaccard,
	})
	if err != nil {
		return err
	}
	m, err := shard.Save(cfg.outDir, data, parts, cfg.jaccard)
	if err != nil {
		return err
	}
	fmt.Fprintf(cfg.outw, "ceciroute: partitioned %v into %d shards (radius %d) under %s\n",
		data, m.Shards, m.Radius, cfg.outDir)
	for i, p := range m.Parts {
		fmt.Fprintf(cfg.outw, "  shard %d: %d vertices (%d owned), %d edges -> %s\n",
			i, p.Vertices, p.Owned, p.Edges, p.Graph)
	}
	return nil
}

// runRouter serves the scatter-gather router until the context ends.
func runRouter(ctx context.Context, cfg routeConfig) error {
	if cfg.manifestDir == "" {
		return errors.New("route mode requires -manifest (or use -partition)")
	}
	m, err := shard.LoadManifest(cfg.manifestDir)
	if err != nil {
		return err
	}
	if len(cfg.replicas) == 0 {
		return fmt.Errorf("route mode requires %d -shard flags (one per manifest part, in shard-id order)", m.Shards)
	}
	if len(cfg.replicas) != m.Shards {
		return fmt.Errorf("manifest declares %d shards but %d -shard flags given", m.Shards, len(cfg.replicas))
	}
	var hub *telemetry.Hub
	if cfg.telemetry {
		hub = telemetry.NewHub(telemetry.Options{})
		hub.Start()
		defer hub.Stop()
	}
	rt, err := shard.NewRouter(shard.RouterOptions{
		Shards:         cfg.replicas,
		Radius:         m.Radius,
		HealthInterval: cfg.healthInt,
		HealthTimeout:  cfg.healthTO,
		HealthFails:    cfg.healthFails,
		DefaultTimeout: cfg.timeout,
		MaxTimeout:     cfg.maxTimeout,
		DeadlineMargin: cfg.margin,
		MaxLimit:       cfg.maxLimit,
		Tracer:         obs.NewTracer(obs.TracerOptions{}),
		TraceSample:    cfg.traceSample,
		Registry:       obs.NewRegistry(),
		Telemetry:      hub,
	})
	if err != nil {
		return err
	}
	rt.Start()
	defer rt.Stop()

	ln, err := net.Listen("tcp", cfg.listen)
	if err != nil {
		return fmt.Errorf("listen %s: %w", cfg.listen, err)
	}
	srv := service.Serve(ln, rt.Handler())
	fmt.Fprintf(cfg.errw, "ceciroute: routing %d shards (radius %d) on http://%s/\n",
		m.Shards, m.Radius, ln.Addr())
	if cfg.ready != nil {
		cfg.ready(ln.Addr().String())
	}

	return srv.Wait(ctx, cfg.drain, cfg.errw, "ceciroute")
}
