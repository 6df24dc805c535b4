package main

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"ceci"
)

// runConfig is one invocation: one workload, one seed, one mode.
type runConfig struct {
	workload *workload
	seed     int64
	seconds  float64
	traced   bool
	workDir  string // scratch directory for the data .lg files
	// inject sleeps inside one of the benchmark's own wrappers; only the
	// sensitivity test sets it.
	inject map[string]time.Duration
}

// rampShare is the share of -seconds spent in an unrecorded closed loop
// before anything is measured: the heap, the connections and the
// scheduler settle in the first second under load, and a phase that
// starts cold reads ~15% slower than the same phase a few seconds later.
// An untraced run spends the rest in one closed loop.
const rampShare = 0.1

// A traced run compares three closed loops with one another — untraced,
// traced, and (serving) against servers built without observability — so
// it runs them as alternating single rounds, at least minABRounds of each
// and on until abShare of -seconds is spent; then an open loop, traced,
// for tracedOpenShare.
const (
	minABRounds     = 3
	abShare         = 0.6
	tracedOpenShare = 0.3
)

// Set-up runs at least minSetupReps times, and on while it has taken
// less than setupBudget in all, up to maxSetupReps: a 40 ms set-up needs
// more repetitions than a 500 ms one for a steady median. The median is
// reported, the last set-up is used.
const (
	minSetupReps = 3
	maxSetupReps = 9
	setupBudget  = time.Second
)

// rig is a workload made ready to receive operations.
type rig struct {
	do       opFunc
	roundOps int                                // operations of one round: whole cycles of the stream
	conns    int                                // requests an open loop keeps in flight
	warmup   func(*speedLog) (sent, failed int) // runs the warm-up phase
	warmOps  int                                // stream operations the warm-up consumed
	stop     func()
	lib      *libDriver
	http     *httpDriver
	handle   *sutHandle
	loadMS   float64 // ceci.LoadGraphFile time of this set-up, as measured
	// setupSpeed brings this set-up's own timings to reference speed.
	setupSpeed float64
}

// dataFiles writes each pool's data graph once as a .lg file — the
// benchmark's input, made before anything is timed.
func dataFiles(w *workload, pools map[string]*pool, dir string) (map[string]string, error) {
	paths := make(map[string]string)
	for _, name := range w.pools {
		p := pools[name]
		if p == nil {
			return nil, fmt.Errorf("pools.json has no pool %q", name)
		}
		path := filepath.Join(dir, fmt.Sprintf("%s_l%d.lg", p.Graph, p.Relabel))
		if _, err := os.Stat(path); err != nil { // two pools may share a graph
			g, err := makeDataset(p.Graph, p.Relabel)
			if err != nil {
				return nil, err
			}
			f, err := os.Create(path)
			if err != nil {
				return nil, err
			}
			if err := ceci.WriteLabeledGraph(f, g); err != nil {
				f.Close()
				return nil, err
			}
			if err := f.Close(); err != nil {
				return nil, err
			}
		}
		paths[name] = path
	}
	return paths, nil
}

// setup loads the data file(s) and builds the workload's target. bare
// builds the servers with observability off (obs.overhead_frac only).
func setup(cfg *runConfig, pools map[string]*pool, paths map[string]string, ts *traceState, bare bool) (*rig, error) {
	w := cfg.workload
	r := &rig{stop: func() {}}
	graphs := make(map[string]*ceci.Graph) // by path: two pools may share a file
	for _, name := range w.pools {
		if graphs[paths[name]] != nil {
			continue
		}
		t0 := time.Now()
		g, err := ceci.LoadGraphFile(paths[name])
		if err != nil {
			return nil, err
		}
		r.loadMS += msSince(t0)
		graphs[paths[name]] = g
	}

	if w.kind == kindLib {
		d := &libDriver{ts: ts}
		for _, name := range w.pools {
			p := pools[name]
			for k := range p.Classes {
				q, err := p.Classes[k].graph(nil)
				if err != nil {
					return nil, err
				}
				d.cases = append(d.cases, libCase{data: graphs[paths[name]], query: q, limit: p.Cap, want: p.Classes[k].Count})
			}
		}
		d.stream = newStream(w, len(d.cases), cfg.seed)
		r.lib, r.do, r.conns = d, d.run, 1
		r.roundOps = w.cycles * len(d.stream.plan)
		r.warmOps = len(d.cases)
		r.warmup = func(log *speedLog) (int, int) { return warm(log, r.do, r.warmOps) }
		return r, nil
	}

	p := pools[w.pools[0]]
	data := graphs[paths[w.pools[0]]]
	var err error
	if w.kind == kindServe {
		var wrap func(http.Handler) http.Handler
		if ts.wraps() && !bare {
			wrap = ts.middleware("service.http", "loadgen.request", 0)
		}
		r.handle, err = startEngine(data, w.cacheBytes, bare, wrap)
	} else {
		var wrapRoute func(http.Handler) http.Handler
		var wrapLeg func(int, http.Handler) http.Handler
		if ts.wraps() && !bare {
			wrapRoute = ts.middleware("shard.route", "loadgen.request", 0)
			wrapLeg = func(shard int, h http.Handler) http.Handler {
				return ts.middleware("shard.leg", "shard.route", shard)(h)
			}
		}
		r.handle, err = startFleet(data, fleetShards, fleetRadius, w.cacheBytes, bare, wrapRoute, wrapLeg)
	}
	if err != nil {
		return nil, err
	}
	r.conns = openConns
	d := &httpDriver{
		url: r.handle.url, client: newHTTPClient(r.conns), data: data, pool: p,
		stream: newStream(w, len(p.Classes), cfg.seed), limit: w.limit, seed: cfg.seed,
		fleet: w.kind == kindFleet, ts: ts,
	}
	r.http, r.do = d, d.run
	r.roundOps = w.cycles * len(d.stream.plan)
	r.stop = func() {
		d.client.CloseIdleConnections()
		r.handle.stop()
	}
	if w.warmup > 0 {
		r.warmOps = w.warmup
		r.warmup = func(log *speedLog) (int, int) { return warm(log, r.do, w.warmup) }
	} else {
		// One request per class fills the cache; these are not stream
		// operations (the stream draws classes by popularity).
		r.warmup = func(log *speedLog) (int, int) { return warm(log, d.runClass, len(p.Classes)) }
	}
	return r, nil
}

// warm runs operations [0, n), keeping the speed log fresh.
func warm(log *speedLog, do opFunc, n int) (sent, failed int) {
	for i := 0; i < n; i++ {
		log.refresh()
		if _, ok := do(i); !ok {
			failed++
		}
	}
	return n, failed
}

// result is everything one run measured.
type result struct {
	record runRecord
	spans  []span
}

// runRecord is the run's own account of itself, written with -out. Every
// time in it is at reference speed (speed.go) unless it says otherwise.
type runRecord struct {
	Workload   string    `json:"workload"`
	Traced     bool      `json:"traced"`
	Seed       int64     `json:"seed"`
	Seconds    float64   `json:"seconds"`
	NProc      int       `json:"nproc"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	GoVersion  string    `json:"go_version"`
	GitSHA     string    `json:"git_sha"`
	Workers    int       `json:"lib_workers"`
	Callers    int       `json:"closed_callers"`
	OpenConns  int       `json:"open_conns"`
	RoundOps   int       `json:"round_ops"`
	OpenLoad   float64   `json:"open_load_qps"` // arrivals per second at reference speed
	SetupS     []float64 `json:"setup_reps_s"`
	WarmupS    float64   `json:"warmup_s"`
	Phases     []*phase  `json:"phases"`
	Attempted  int       `json:"attempted"`
	Failed     int       `json:"failed"`
	ErrorFrac  float64   `json:"error_frac"`
	Saturated  bool      `json:"saturated"`
	FirstError string    `json:"first_error,omitempty"`
	// Metrics repeats the driver's last-line metrics with their units.
	Metrics map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// atReference times fn with a probe before and after it and returns its
// duration at reference speed, and the ratio of that to its wall time.
func atReference(log *speedLog, fn func() error) (seconds, speed float64, err error) {
	log.probe()
	t0 := time.Now()
	err = fn()
	t1 := time.Now()
	log.probe()
	seconds = log.clock().between(t0, t1) / 1000
	return seconds, ratio(seconds, t1.Sub(t0).Seconds()), err
}

// runWorkload is the whole of one invocation.
func runWorkload(cfg *runConfig) (*result, error) {
	// One processor: everything the run executes — the caller, the servers,
	// the router's three legs — takes turns on it, so a timing is the
	// processor time the operation costs and the speed probe runs on the
	// processor it vouches for. The reference box has two, and which of a
	// process's threads share one of them at a given moment is the
	// kernel's business, not the program's.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))

	pools, err := loadPools()
	if err != nil {
		return nil, err
	}
	w := cfg.workload
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.workDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	paths, err := dataFiles(w, pools, dir)
	if err != nil {
		return nil, err
	}

	log := newSpeedLog()
	ts := &traceState{inject: cfg.inject}
	if cfg.traced {
		ts.tr = newTracer(log.epoch)
	}

	rec := runRecord{
		Workload: w.name, Traced: cfg.traced, Seed: cfg.seed, Seconds: cfg.seconds,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		GitSHA: gitSHA(), Workers: libWorkers, Callers: 1,
	}

	// Set-up, several times; the last one stays up.
	var r *rig
	for spent := time.Duration(0); len(rec.SetupS) < minSetupReps ||
		(spent < setupBudget && len(rec.SetupS) < maxSetupReps); {
		if r != nil {
			r.stop()
		}
		t0 := time.Now()
		s, speed, err := atReference(log, func() (err error) {
			r, err = setup(cfg, pools, paths, ts, false)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		r.setupSpeed = speed
		spent += time.Since(t0)
		rec.SetupS = append(rec.SetupS, s)
	}
	defer func() { r.stop() }()
	rec.OpenConns, rec.RoundOps = r.conns, r.roundOps

	// Warm-up. In a traced library run it is also the one pass over every
	// class whose counters are reported: counts from exactly one pass
	// repeat exactly, counts from a timed phase do not.
	var pass *libCounts
	var passSpans []span
	if r.lib != nil && cfg.traced {
		pass = newLibCounts()
		r.lib.counts = pass
		ts.on.Store(true)
	}
	rec.WarmupS, _, _ = atReference(log, func() error {
		rec.Attempted, rec.Failed = r.warmup(log)
		return nil
	})
	ts.on.Store(false)
	if r.lib != nil {
		r.lib.counts = nil
	}
	if cfg.traced {
		passSpans = ts.tr.take(log.clock())
	}

	dur := func(share float64) time.Duration {
		return time.Duration(share * cfg.seconds * float64(time.Second))
	}
	// Phases start on a round boundary of the stream, so that every round
	// is whole cycles.
	nextRound := func(i int) int { return (i + r.roundOps - 1) / r.roundOps * r.roundOps }
	next := nextRound(r.warmOps)
	ramp := func(r *rig, first int) int {
		ph := closedLoop("ramp", log, dur(rampShare), first, r.roundOps, r.do)
		rec.Attempted += ph.Sent
		rec.Failed += ph.Failed
		return first + ph.ops
	}

	res := &result{}
	m := make(map[string]float64)
	next = ramp(r, next)
	if !cfg.traced {
		cl := closedLoop("closed", log, dur(1-rampShare), next, r.roundOps, r.do)
		rec.Phases = append(rec.Phases, cl)
		m["setup_s"] = median(rec.SetupS) + rec.WarmupS
		m["throughput_qps"] = cl.Throughput
		m["closed_p50_ms"] = cl.Latency.P50
		m["closed_p95_ms"] = cl.Latency.P95
		m["peak_rss_mb"] = peakRSSMB()
	} else {
		// The bare side: the same workload against servers built with
		// observability off, set up, warmed and ramped like the first (a
		// library workload has no servers to strip).
		var br *rig
		bnext := 0
		if w.kind != kindLib {
			if br, err = setup(cfg, pools, paths, ts, true); err != nil {
				return nil, fmt.Errorf("bare set-up: %w", err)
			}
			defer br.stop()
			sent, failed := br.warmup(log)
			rec.Attempted += sent
			rec.Failed += failed
			bnext = ramp(br, nextRound(br.warmOps))
		}
		oneRound := func(r *rig, first *int, traced bool) *phase {
			ts.on.Store(traced)
			ph := closedLoop("", log, 0, *first, r.roundOps, r.do)
			ts.on.Store(false)
			*first += ph.ops
			return ph
		}
		before := scrape(r.handle)
		var segU, segT, segB []*phase
		for t0 := time.Now(); len(segU) < minABRounds || time.Since(t0) < dur(abShare); {
			segU = append(segU, oneRound(r, &next, false))
			segT = append(segT, oneRound(r, &next, true))
			if br != nil {
				segB = append(segB, oneRound(br, &bnext, false))
			}
		}
		clock := log.clock()
		untraced, cl := mergePhases("closed_untraced", clock, segU), mergePhases("closed_traced", clock, segT)
		rec.Phases = append(rec.Phases, untraced, cl)
		rec.OpenLoad = openLoad * cl.Throughput
		ts.on.Store(true)
		op := openLoop("open_traced", log, r.conns, rec.OpenLoad, dur(tracedOpenShare), next, r.roundOps, cfg.seed, r.do)
		ts.on.Store(false)
		rec.Phases = append(rec.Phases, op)
		after := scrape(r.handle)
		clock = log.clock()
		res.spans = ts.tr.take(clock)
		var bare *phase
		if br != nil {
			bare = mergePhases("closed_bare", clock, segB)
			rec.Phases = append(rec.Phases, bare)
		}
		layerMetrics(m, &layerInputs{
			w: w, rig: r, log: log, clock: clock, spans: res.spans, pass: pass, passSpans: passSpans,
			before: before, after: after, untraced: untraced, closed: cl, open: op, bare: bare,
		})
	}

	for _, ph := range rec.Phases {
		rec.Attempted += ph.Sent
		rec.Failed += ph.Failed
		rec.Saturated = rec.Saturated || ph.Saturated
	}
	rec.ErrorFrac = ratio(float64(rec.Failed), float64(rec.Attempted))
	if r.http != nil && r.http.firstErr != nil {
		rec.FirstError = r.http.firstErr.Error()
	} else if rec.Failed > 0 {
		rec.FirstError = "a library count differs from its pinned value"
	}
	specs := endToEnd
	if cfg.traced {
		specs = perLayer
	}
	rec.Metrics = make(map[string]metricValue, len(specs))
	for _, s := range specs {
		rec.Metrics[s.Name] = metricValue{Value: m[s.Name], Unit: s.Unit}
	}
	res.record = rec
	return res, nil
}

// peakRSSMB is getrusage's max resident set of this process, which runs
// exactly one workload.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
