package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func record(workload string, traced bool, metrics map[string]float64) runRecord {
	r := runRecord{Workload: workload, Traced: traced, Metrics: map[string]metricValue{}}
	for k, v := range metrics {
		r.Metrics[k] = metricValue{Value: v}
	}
	return r
}

func TestCompareFlagsOnlyBeyondBound(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, recs []runRecord) string {
		b, err := json.Marshal(recs)
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	// Three runs per side: the comparison is of medians.
	var a, b []runRecord
	for _, jitter := range []float64{0.97, 1, 1.03} {
		a = append(a, record("serve_hot", false, map[string]float64{"throughput_qps": 2000 * jitter, "closed_p50_ms": 0.5 * jitter}))
		b = append(b, record("serve_hot", false, map[string]float64{"throughput_qps": 1400 * jitter, "closed_p50_ms": 0.52 * jitter}))
	}
	a = append(a, record("serve_hot", true, map[string]float64{"service.shell_us": 200, "service.enum_ms": 0.2}))
	b = append(b, record("serve_hot", true, map[string]float64{"service.shell_us": 420, "service.enum_ms": 0.205}))

	var out bytes.Buffer
	err := compareFiles(write("a.json", a), write("b.json", b), &out)
	if err == nil || !strings.Contains(err.Error(), "serve_hot/throughput_qps") {
		t.Fatalf("a 30%% throughput drop was not flagged: %v\n%s", err, out.String())
	}
	if strings.Contains(err.Error(), "closed_p50_ms") {
		t.Errorf("a 4%% latency change is inside the bound but was flagged: %v", err)
	}
	if !strings.Contains(out.String(), "service.shell_us") || strings.Contains(out.String(), "service.enum_ms") {
		t.Errorf("per-layer rows should name service.shell_us (moved) and not service.enum_ms (steady):\n%s", out.String())
	}
	if err := compareFiles(write("a2.json", a), write("a3.json", a), &out); err != nil {
		t.Errorf("a file compared with itself regressed: %v", err)
	}
}

// sensitivity runs one workload untraced and traced, with and without a
// 20 ms sleep injected through the benchmark's own wrapper for one layer,
// and returns what -compare makes of the pair.
func sensitivity(t *testing.T, workload, layer string) (regressed, moved []string) {
	t.Helper()
	full, err := findWorkload(workload)
	if err != nil {
		t.Fatal(err)
	}
	// A run is at least a dozen rounds; with 20 ms added to every request
	// a serving round of full length would take seconds. Rounds of about
	// one request per class keep the test short.
	w := *full
	if w.kind != kindLib {
		w.cycle, w.cycles = 24, 1
	}
	side := func(inject map[string]time.Duration) map[runKey]map[string]float64 {
		out := make(map[runKey]map[string]float64)
		for _, traced := range []bool{false, true} {
			res, err := runWorkload(&runConfig{
				workload: &w, seed: 1, seconds: 1.5, traced: traced,
				workDir: t.TempDir(), inject: inject,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.record.Failed > 0 {
				t.Fatalf("%s: %d operations failed: %s", workload, res.record.Failed, res.record.FirstError)
			}
			vals := make(map[string]float64)
			for name, v := range res.record.Metrics {
				vals[name] = v.Value
			}
			out[runKey{workload, traced}] = vals
		}
		return out
	}
	var buf bytes.Buffer
	regressed, moved = compareRuns(side(nil), side(map[string]time.Duration{layer: 20 * time.Millisecond}), &buf)
	t.Logf("%s with 20 ms in %s:\n%s", workload, layer, buf.String())
	return regressed, moved
}

func has(list []string, name string) bool {
	for _, s := range list {
		if s == name {
			return true
		}
	}
	return false
}

// A 20 ms sleep in one layer must be caught by an end-to-end metric and
// named by that layer's own metric (ROADMAP: "caught and named").
func TestSensitivityCaughtAndNamed(t *testing.T) {
	if testing.Short() {
		t.Skip("runs three workloads four times each (~60 s)")
	}
	for _, tc := range []struct {
		workload, layer string
		endToEnd        string
		named           []string // any one of these
	}{
		{"lib_enum", "ceci.build", "closed_p50_ms", []string{"ceci.build_ms"}},
		{"serve_hot", "service.http", "closed_p50_ms", []string{"service.shell_us"}},
		{"fleet_scatter", "shard.leg", "closed_p50_ms", []string{"shard.slowest_leg_ms", "shard.leg_skew"}},
	} {
		regressed, moved := sensitivity(t, tc.workload, tc.layer)
		if !has(regressed, tc.workload+"/"+tc.endToEnd) {
			t.Errorf("%s: 20 ms in %s did not regress %s (regressed: %v)", tc.workload, tc.layer, tc.endToEnd, regressed)
		}
		named := false
		for _, n := range tc.named {
			named = named || has(moved, tc.workload+"/"+n)
		}
		if !named {
			t.Errorf("%s: 20 ms in %s was not named by any of %v (moved: %v)", tc.workload, tc.layer, tc.named, moved)
		}
	}
}
