package main

import (
	"encoding/json"
	"io"
	"net/http"
	"runtime/debug"
	"time"
)

// metricSpec is one line of BENCHMARK.json's end_to_end or per_layer
// list; spec_test.go checks the file against these tables.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a caller of the library, of ceciserve or of
// the fleet sees. An operation is one cold Match+Count (library) or one
// POST /query (serving); every workload reports every metric, from one
// closed loop of one caller, and every time is at reference speed
// (speed.go). Open-loop latencies are per-layer metrics (loadgen.open_*):
// at the 5-20 ms an operation of four of the five workloads takes, a run
// holds a few hundred arrivals, and over ten seeds their percentiles
// spread 0.06-0.24 of the median whatever the host does — queueing
// multiplies the luck of the arrival order — where these spread 0.01-0.03.
// The bounds are nevertheless the contract's maximum: a whole run at the
// host's slowest speed reads lib_build 15% slow even at reference speed
// (loadgen.go, slowRound).
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},           // median of 3–9 × [load data file(s) + build engine/fleet] + the warm-up phase
	{"throughput_qps", "1/s", "higher", 0.25}, // correct answers per second of the caller's time: median over the rounds
	{"closed_p50_ms", "ms", "lower", 0.25},    // send → full reply read: median over the rounds of each round's median
	{"closed_p95_ms", "ms", "lower", 0.25},    // median over the rounds of each round's 95th percentile
	{"peak_rss_mb", "MB", "lower", 0.25},      // getrusage max RSS of the run's process
}

// perLayer are measured in the traced run, from outside the program:
// spans around the calls into each layer, the public Stats and Ledger
// counters, the servers' own /metrics.json, and what replies report.
// A metric of a layer the workload does not use is 0.
var perLayer = []metricSpec{
	{Name: "graph.load_ms", Unit: "ms", Better: "lower"},
	{Name: "order.preprocess_ms", Unit: "ms", Better: "lower"},
	{Name: "ceci.build_ms", Unit: "ms", Better: "lower"},
	{Name: "ceci.build_share", Unit: "ratio", Better: "lower"},
	{Name: "ceci.filtered", Unit: "count", Better: "higher"},
	{Name: "ceci.candidate_edges", Unit: "count", Better: "lower"},
	{Name: "ceci.index_bytes", Unit: "bytes", Better: "lower"},
	{Name: "workload.units", Unit: "count", Better: "lower"},
	{Name: "workload.extreme_splits", Unit: "count", Better: "lower"},
	{Name: "workload.busy_frac", Unit: "ratio", Better: "higher"},
	{Name: "enum.ms", Unit: "ms", Better: "lower"},
	{Name: "enum.share", Unit: "ratio", Better: "lower"},
	{Name: "enum.embeddings_per_s", Unit: "1/s", Better: "higher"},
	{Name: "enum.recursive_calls", Unit: "count", Better: "lower"},
	{Name: "enum.calls_per_embedding", Unit: "ratio", Better: "lower"},
	{Name: "enum.peak_scratch_bytes", Unit: "bytes", Better: "lower"},
	{Name: "setops.calls", Unit: "count", Better: "lower"},
	{Name: "setops.scanned", Unit: "count", Better: "lower"},
	{Name: "setops.scanned_per_emitted", Unit: "ratio", Better: "lower"},
	{Name: "setops.merge_calls", Unit: "count", Better: "lower"},
	{Name: "setops.gallop_calls", Unit: "count", Better: "lower"},
	{Name: "setops.bitset_calls", Unit: "count", Better: "lower"},
	{Name: "setops.probe_calls", Unit: "count", Better: "lower"},
	{Name: "verify.canon_us", Unit: "us", Better: "lower"},
	{Name: "service.http_ms", Unit: "ms", Better: "lower"},
	{Name: "service.shell_us", Unit: "us", Better: "lower"},
	{Name: "service.queue_wait_ms", Unit: "ms", Better: "lower"},
	{Name: "service.build_ms", Unit: "ms", Better: "lower"},
	{Name: "service.enum_ms", Unit: "ms", Better: "lower"},
	{Name: "service.decode_us", Unit: "us", Better: "lower"},
	{Name: "service.encode_us", Unit: "us", Better: "lower"},
	{Name: "service.resp_bytes", Unit: "bytes", Better: "lower"},
	{Name: "service.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "service.cache_evictions", Unit: "count", Better: "lower"},
	{Name: "service.builds", Unit: "count", Better: "lower"},
	{Name: "service.singleflight_shared", Unit: "count", Better: "higher"},
	{Name: "service.shed", Unit: "count", Better: "lower"},
	{Name: "shard.route_ms", Unit: "ms", Better: "lower"},
	{Name: "shard.route_self_ms", Unit: "ms", Better: "lower"},
	{Name: "shard.slowest_leg_ms", Unit: "ms", Better: "lower"},
	{Name: "shard.leg_skew", Unit: "ratio", Better: "lower"},
	{Name: "shard.merged_bytes", Unit: "bytes", Better: "lower"},
	{Name: "shard.partial_frac", Unit: "ratio", Better: "lower"},
	{Name: "shard.split_ms", Unit: "ms", Better: "lower"},
	{Name: "shard.halo_ratio", Unit: "ratio", Better: "lower"},
	{Name: "obs.overhead_frac", Unit: "ratio", Better: "lower"},
	{Name: "loadgen.wire_us", Unit: "us", Better: "lower"},
	{Name: "loadgen.open_load_qps", Unit: "1/s", Better: "higher"},
	{Name: "loadgen.open_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.open_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.speed", Unit: "ratio", Better: "higher"},
	{Name: "loadgen.late_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.conn_wait_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.backlog_end", Unit: "count", Better: "lower"},
	{Name: "loadgen.trace_overhead_frac", Unit: "ratio", Better: "lower"},
	{Name: "loadgen.unattributed_frac", Unit: "ratio", Better: "lower"},
	{Name: "loadgen.span_escapes", Unit: "count", Better: "lower"},
	{Name: "loadgen.samples", Unit: "count", Better: "higher"},
}

// counters are the service and cache gauge sources of every engine's
// /metrics.json, summed over the engines.
type counters map[string]int64

// scrape reads /metrics.json of each engine behind h (none for a library
// workload).
func scrape(h *sutHandle) counters {
	out := counters{}
	if h == nil {
		return out
	}
	for _, base := range h.engines {
		resp, err := http.Get(base + "/metrics.json")
		if err != nil {
			continue
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		var doc struct {
			Sources map[string]map[string]int64 `json:"sources"`
		}
		if json.Unmarshal(raw, &doc) != nil {
			continue
		}
		for _, src := range []string{"service", "cache"} {
			for k, v := range doc.Sources[src] {
				out[src+"."+k] += v
			}
		}
	}
	return out
}

type layerInputs struct {
	w             *workload
	rig           *rig
	log           *speedLog
	clock         *refClock  // the log's, once the phases are over
	spans         []span     // of the traced rounds, at reference speed
	pass          *libCounts // counters of one pass over every library class
	passSpans     []span     // and that pass's spans, at reference speed
	before, after counters
	untraced      *phase
	closed, open  *phase
	bare          *phase
}

// spanStat is the mean duration and mean self time of one span name.
type spanStat struct {
	n             int
	durNS, selfNS float64
}

func (s spanStat) meanMS() float64     { return ratio(s.durNS, float64(s.n)) / 1e6 }
func (s spanStat) meanSelfUS() float64 { return ratio(s.selfNS, float64(s.n)) / 1e3 }

// layerMetrics fills m with every per-layer metric.
func layerMetrics(m map[string]float64, in *layerInputs) {
	for _, s := range perLayer {
		m[s.Name] = 0
	}
	self := selfTimes(in.spans)
	byName := make(map[string]*spanStat)
	for _, s := range in.spans {
		st := byName[s.Name]
		if st == nil {
			st = &spanStat{}
			byName[s.Name] = st
		}
		st.n++
		st.durNS += float64(s.dur())
		st.selfNS += float64(self[s.ID])
	}
	stat := func(name string) spanStat {
		if st := byName[name]; st != nil {
			return *st
		}
		return spanStat{}
	}
	root := stat("loadgen.request")

	m["graph.load_ms"] = in.rig.loadMS * in.rig.setupSpeed
	m["loadgen.wire_us"] = root.meanSelfUS()
	m["loadgen.open_load_qps"] = in.open.Load
	m["loadgen.open_p50_ms"] = in.open.Latency.P50
	m["loadgen.open_p95_ms"] = in.open.Latency.P95
	m["loadgen.speed"] = median([]float64{in.untraced.Speed, in.closed.Speed, in.open.Speed})
	m["loadgen.late_p95_ms"] = in.open.LateP95MS
	m["loadgen.conn_wait_p95_ms"] = in.open.ConnWaitP95
	m["loadgen.backlog_end"] = float64(in.open.BacklogEnd)
	m["loadgen.trace_overhead_frac"] = 1 - ratio(in.closed.Throughput, in.untraced.Throughput)
	m["loadgen.unattributed_frac"] = ratio(root.selfNS, root.durNS)
	m["loadgen.span_escapes"] = float64(escapes(in.spans))
	m["loadgen.samples"] = float64(in.closed.Latency.Samples + in.open.Latency.Samples)

	switch in.w.kind {
	case kindLib:
		libLayers(m, in, stat)
	case kindServe:
		serveLayers(m, in, stat)
	case kindFleet:
		fleetLayers(m, in, stat)
	}
	if in.bare != nil {
		m["obs.overhead_frac"] = ratio(in.bare.Throughput-in.untraced.Throughput, in.bare.Throughput)
	}
}

func libLayers(m map[string]float64, in *layerInputs, stat func(string) spanStat) {
	ord, build, enum := stat("order.preprocess"), stat("ceci.build"), stat("enum.count")
	stages := ord.durNS + build.durNS + enum.durNS
	m["order.preprocess_ms"] = ord.meanMS()
	m["ceci.build_ms"] = build.meanMS()
	m["ceci.build_share"] = ratio(build.durNS, stages)
	m["enum.ms"] = enum.meanMS()
	m["enum.share"] = ratio(enum.durNS, stages)

	// Everything below comes from the single warm-up pass over every
	// class, the only operations that carry Stats and a Ledger: its
	// counts are exact, repeatable totals.
	p := in.pass
	passEnumNS := 0.0
	for _, s := range in.passSpans {
		if s.Name == "enum.count" {
			passEnumNS += float64(s.dur())
		}
	}
	m["enum.embeddings_per_s"] = ratio(float64(p.embeddings), passEnumNS/1e9)
	m["workload.busy_frac"] = ratio(float64(p.cpuUS)*1e3, libWorkers*passEnumNS)
	m["ceci.filtered"] = float64(p.filtered)
	m["ceci.candidate_edges"] = float64(p.candidateEdges)
	m["ceci.index_bytes"] = float64(p.indexBytes)
	m["workload.units"] = float64(p.units)
	m["workload.extreme_splits"] = float64(p.splits)
	m["enum.recursive_calls"] = float64(p.recursive)
	m["enum.calls_per_embedding"] = ratio(float64(p.recursive), float64(p.embeddings))
	m["enum.peak_scratch_bytes"] = float64(p.peakScratch)
	var calls, scanned, emitted int64
	for name, k := range p.kernels {
		calls += k.calls
		scanned += k.scanned
		emitted += k.emitted
		m["setops."+name+"_calls"] = float64(k.calls)
	}
	m["setops.calls"] = float64(calls)
	m["setops.scanned"] = float64(scanned)
	m["setops.scanned_per_emitted"] = ratio(float64(scanned), float64(emitted))
}

// replyLayers are the metrics both serving kinds take from replies, from
// /metrics.json and from the off-the-clock replays.
func replyLayers(m map[string]float64, in *layerInputs) {
	o := &in.rig.http.obs
	var queue, build, enum []float64
	for _, r := range o.replies {
		f := in.clock.rate(r.at)
		queue, enum = append(queue, r.queueMS*f), append(enum, r.enumMS*f)
		if !r.hit {
			build = append(build, r.buildMS*f)
		}
	}
	m["service.queue_wait_ms"], _ = percentile(sortedCopy(queue), 0.95)
	m["service.build_ms"] = mean(build)
	m["service.enum_ms"] = mean(enum)

	d := func(k string) float64 { return float64(in.after[k] - in.before[k]) }
	m["service.cache_hit_ratio"] = ratio(d("cache.hits"), d("cache.hits")+d("cache.misses"))
	m["service.cache_evictions"] = d("cache.evictions")
	m["service.builds"] = d("service.builds")
	m["service.singleflight_shared"] = d("cache.misses") - d("service.builds")
	m["service.shed"] = d("service.shed")

	var decode, canon, encode []float64
	_, f, _ := atReference(in.log, func() error {
		for i, body := range o.bodies {
			dt, q, err := replayDecode(body)
			if err != nil {
				continue
			}
			decode = append(decode, us(dt))
			canon = append(canon, us(replayCanon(q)))
			if et, err := replayEncode(o.replyBody[i], in.w.kind == kindFleet); err == nil {
				encode = append(encode, us(et))
			}
		}
		return nil
	})
	m["service.decode_us"] = mean(decode) * f
	m["verify.canon_us"] = mean(canon) * f
	m["service.encode_us"] = mean(encode) * f
}

func serveLayers(m map[string]float64, in *layerInputs, stat func(string) spanStat) {
	replyLayers(m, in)
	h := stat("service.http")
	m["service.http_ms"] = h.meanMS()
	m["service.shell_us"] = h.meanSelfUS()
	m["service.resp_bytes"] = ratio(float64(in.rig.http.obs.bytes), float64(len(in.rig.http.obs.replies)))
}

func fleetLayers(m map[string]float64, in *layerInputs, stat func(string) spanStat) {
	replyLayers(m, in)
	o := &in.rig.http.obs
	m["shard.merged_bytes"] = ratio(float64(o.bytes), float64(len(o.replies)))
	m["shard.partial_frac"] = ratio(float64(o.partial), float64(len(o.replies)+o.partial))
	m["shard.split_ms"] = in.rig.handle.splitMS * in.rig.setupSpeed
	m["shard.halo_ratio"] = in.rig.handle.haloRatio

	type legs struct {
		route        float64
		n            int
		sum, slowest float64
	}
	per := make(map[int64]*legs)
	at := func(req int64) *legs {
		l := per[req]
		if l == nil {
			l = &legs{}
			per[req] = l
		}
		return l
	}
	for _, s := range in.spans {
		switch s.Name {
		case "shard.route":
			at(s.Req).route = float64(s.dur())
		case "shard.leg":
			l := at(s.Req)
			l.n++
			l.sum += float64(s.dur())
			l.slowest = max(l.slowest, float64(s.dur()))
		}
	}
	var route, slowest, skew []float64
	for _, l := range per {
		if l.route == 0 || l.n == 0 {
			continue
		}
		route = append(route, l.route/1e6)
		slowest = append(slowest, l.slowest/1e6)
		skew = append(skew, l.slowest/(l.sum/float64(l.n)))
	}
	m["shard.route_ms"] = mean(route)
	// The route span minus the time its legs cover: scatter, merge, stitch.
	// (On the run's one processor the legs run one after another, so this
	// is not route − slowest leg.)
	m["shard.route_self_ms"] = stat("shard.route").meanSelfUS() / 1000
	m["shard.slowest_leg_ms"] = mean(slowest)
	m["shard.leg_skew"] = mean(skew)
}

func us(d time.Duration) float64  { return float64(d) / float64(time.Microsecond) }
func msSince(t time.Time) float64 { return ms(time.Since(t)) }

// gitSHA is the revision the binary was built from, when the build had a
// repository to ask.
func gitSHA() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}
