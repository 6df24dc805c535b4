package cluster_test

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ceci/internal/auto"
	"ceci/internal/ceci"
	"ceci/internal/cluster"
	"ceci/internal/enum"
	"ceci/internal/gen"
	"ceci/internal/graph"
	"ceci/internal/obs"
	"ceci/internal/order"
	"ceci/internal/prof"
	"ceci/internal/reference"
)

func TestClusterMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 20; trial++ {
		data := randomGraph(rng, 20, 60, 2)
		query, err := gen.DFSQuery(data, 3+rng.Intn(3), rng)
		if err != nil {
			continue
		}
		cons := auto.Compute(query)
		want := reference.Count(data, query, reference.Options{Constraints: cons})
		for _, machines := range []int{1, 3, 5} {
			for _, mode := range []cluster.Mode{cluster.Replicated, cluster.SharedStorage} {
				res, err := cluster.Run(data, query, cluster.Config{
					Machines:          machines,
					WorkersPerMachine: 2,
					Mode:              mode,
				})
				if err != nil {
					t.Fatalf("trial %d m=%d %v: %v", trial, machines, mode, err)
				}
				if res.Embeddings != want {
					t.Fatalf("trial %d m=%d %v: got %d want %d",
						trial, machines, mode, res.Embeddings, want)
				}
			}
		}
	}
}

func TestClusterJaccardColocationAgrees(t *testing.T) {
	data := gen.Kronecker(9, 8, 13)
	query := gen.QG2()
	base, err := cluster.Run(data, query, cluster.Config{Machines: 4, WorkersPerMachine: 1})
	if err != nil {
		t.Fatal(err)
	}
	jac, err := cluster.Run(data, query, cluster.Config{
		Machines: 4, WorkersPerMachine: 1, Jaccard: true, JaccardTopK: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	if base.Embeddings != jac.Embeddings {
		t.Fatalf("jaccard co-location changed result: %d vs %d", jac.Embeddings, base.Embeddings)
	}
}

// TestClusterKeepsEnumFunnel: the per-pivot matchers of a distributed
// run are handed the profile's enumeration funnel explicitly, so the
// per-vertex lookup and output totals of a 4-machine run equal the
// single-node profile's — every partial embedding is extended exactly
// once, whichever machine or decomposition step does it.
func TestClusterKeepsEnumFunnel(t *testing.T) {
	data := gen.Kronecker(9, 8, 5)
	query := gen.QG2()
	funnel := func(p prof.Profile) (lookups, output int64) {
		for _, v := range p.Vertices {
			lookups += v.Enum.Lookups
			output += v.Enum.Output
		}
		return lookups, output
	}

	tree, err := order.Preprocess(data, query, order.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	single := prof.New()
	ix := ceci.Build(data, tree, ceci.Options{Profile: single})
	want := enum.NewMatcher(ix, enum.Options{Workers: 1, Profile: single}).Count()
	wantLookups, wantOutput := funnel(single.Snapshot())
	if wantLookups == 0 {
		t.Fatal("single-node profile recorded no lookups")
	}

	// One worker per machine: FGD re-runs the lookup of a dead-end split
	// at enumeration time, so only unsplit runs reproduce the count exactly.
	collector := prof.New()
	res, err := cluster.Run(data, query, cluster.Config{
		Machines: 4, WorkersPerMachine: 1, Profile: collector,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Embeddings != want {
		t.Fatalf("embeddings %d, single node %d", res.Embeddings, want)
	}
	p := collector.Snapshot()
	if lookups, output := funnel(p); lookups != wantLookups || output != wantOutput {
		t.Errorf("Σ lookups/output = %d/%d, single node %d/%d", lookups, output, wantLookups, wantOutput)
	}
	// The inner matchers' worker ids collide across machines: only the
	// machine-level slots may be charged.
	var units int64
	for _, w := range p.Workers {
		units += w.Units
	}
	if len(p.Workers) != 4 || units != int64(len(ix.Pivots())) {
		t.Errorf("profile has %d worker slots with %d units, want 4 machines sharing %d pivots",
			len(p.Workers), units, len(ix.Pivots()))
	}
}

func TestClusterLedgers(t *testing.T) {
	data := gen.Kronecker(9, 8, 5)
	res, err := cluster.Run(data, gen.QG1(), cluster.Config{
		Machines: 4, WorkersPerMachine: 1, Mode: cluster.SharedStorage,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan <= 0 {
		t.Fatal("makespan not recorded")
	}
	var pivots, reads int64
	for _, l := range res.Machines {
		pivots += int64(l.Pivots)
		reads += l.RemoteReads
	}
	if pivots == 0 {
		t.Fatal("no pivots distributed")
	}
	if reads == 0 {
		t.Fatal("shared-storage mode recorded no remote reads")
	}
	// BuildIO must reflect the remote reads in shared mode.
	for i, l := range res.Machines {
		if l.RemoteReads > 0 && l.BuildIO == 0 {
			t.Fatalf("machine %d: %d remote reads but zero BuildIO", i, l.RemoteReads)
		}
	}
}

func TestClusterWorkStealingOccurs(t *testing.T) {
	// A deliberately skewed pivot distribution: a hub-heavy Kronecker
	// graph with many machines and one worker each should trigger steals
	// at least sometimes. This asserts the mechanism works end-to-end
	// (count correct even when steals happen), not a scheduling property.
	data := gen.Kronecker(10, 10, 2)
	query := gen.QG1()
	res, err := cluster.Run(data, query, cluster.Config{Machines: 8, WorkersPerMachine: 1})
	if err != nil {
		t.Fatal(err)
	}
	single, err := cluster.Run(data, query, cluster.Config{Machines: 1, WorkersPerMachine: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Embeddings != single.Embeddings {
		t.Fatalf("distributed count %d != single-machine %d", res.Embeddings, single.Embeddings)
	}
}

// TestSimulateMatchesRun: the discrete-event simulation and the real
// concurrent implementation must find the same embedding count for the
// same configuration.
func TestSimulateMatchesRun(t *testing.T) {
	data := gen.Kronecker(9, 6, 17)
	query := gen.QG2()
	sim, err := cluster.NewSimulation(data, query)
	if err != nil {
		t.Fatal(err)
	}
	for _, machines := range []int{1, 3, 8} {
		for _, mode := range []cluster.Mode{cluster.Replicated, cluster.SharedStorage} {
			cfg := cluster.Config{Machines: machines, WorkersPerMachine: 2, Mode: mode}
			simRes, err := sim.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			runRes, err := cluster.Run(data, query, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if simRes.Embeddings != runRes.Embeddings {
				t.Fatalf("m=%d %v: simulate %d != run %d",
					machines, mode, simRes.Embeddings, runRes.Embeddings)
			}
			if simRes.Embeddings != sim.Embeddings() {
				t.Fatal("result total diverges from measurement total")
			}
			// Pivot conservation: assignments cover every cluster.
			pivots := 0
			for _, l := range simRes.Machines {
				pivots += l.Pivots
			}
			wantPivots := 0
			for _, l := range runRes.Machines {
				wantPivots += l.Pivots
			}
			if pivots != wantPivots {
				t.Fatalf("pivot counts diverge: %d vs %d", pivots, wantPivots)
			}
		}
	}
}

// TestSimulationSpeedupMonotone: more machines never increase the
// enumeration-phase makespan in replicated mode (build and comm charges
// are per-machine constants there).
func TestSimulationSpeedupMonotone(t *testing.T) {
	data := gen.Kronecker(10, 8, 23)
	sim, err := cluster.NewSimulation(data, gen.QG1())
	if err != nil {
		t.Fatal(err)
	}
	var prev *cluster.Result
	for _, machines := range []int{1, 2, 4, 8} {
		res, err := sim.Run(cluster.Config{Machines: machines, WorkersPerMachine: 2})
		if err != nil {
			t.Fatal(err)
		}
		var maxEnum, prevMax = maxEnumerate(res), maxEnumerate(prev)
		if prev != nil && maxEnum > prevMax+prevMax/4 {
			t.Fatalf("enumeration makespan grew: %v -> %v at %d machines",
				prevMax, maxEnum, machines)
		}
		prev = res
	}
}

func maxEnumerate(r *cluster.Result) (max time.Duration) {
	if r == nil {
		return 0
	}
	for _, l := range r.Machines {
		if l.Enumerate > max {
			max = l.Enumerate
		}
	}
	return max
}

func TestClusterRejectsBadConfig(t *testing.T) {
	data := gen.Kronecker(6, 4, 1)
	if _, err := cluster.Run(data, gen.QG1(), cluster.Config{Machines: 0}); err == nil {
		t.Fatal("expected error for zero machines")
	}
}

func randomGraph(rng *rand.Rand, n, m, labels int) *graph.Graph {
	b := graph.NewBuilder(n)
	for v := 0; v < n; v++ {
		b.SetLabel(graph.VertexID(v), graph.Label(rng.Intn(labels)))
	}
	perm := rng.Perm(n)
	for i := 1; i < n; i++ {
		b.AddEdge(graph.VertexID(perm[i-1]), graph.VertexID(perm[i]))
	}
	for i := 0; i < m; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			b.AddEdge(graph.VertexID(u), graph.VertexID(v))
		}
	}
	return b.MustBuild()
}

// TestRunTCPMatchesOracle: the TCP-transport deployment must agree with
// the oracle and with the in-process Run.
func TestRunTCPMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 8; trial++ {
		data := randomGraph(rng, 25, 70, 2)
		query, err := gen.DFSQuery(data, 3+rng.Intn(3), rng)
		if err != nil {
			continue
		}
		cons := auto.Compute(query)
		want := reference.Count(data, query, reference.Options{Constraints: cons})
		for _, machines := range []int{1, 4} {
			res, err := cluster.RunTCP(data, query, cluster.Config{
				Machines:          machines,
				WorkersPerMachine: 2,
			})
			if err != nil {
				t.Fatalf("trial %d m=%d: %v", trial, machines, err)
			}
			if res.Embeddings != want {
				t.Fatalf("trial %d m=%d: got %d want %d", trial, machines, res.Embeddings, want)
			}
		}
	}
}

// TestRunTCPWireAccounting: messages and bytes must actually flow.
func TestRunTCPWireAccounting(t *testing.T) {
	data := gen.Kronecker(9, 6, 3)
	res, err := cluster.RunTCP(data, gen.QG1(), cluster.Config{
		Machines: 3, WorkersPerMachine: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	var msgs int64
	var comm time.Duration
	for _, l := range res.Machines {
		msgs += l.MessagesSent
		comm += l.Comm
	}
	if msgs == 0 {
		t.Fatal("no messages counted on the wire")
	}
	if comm == 0 {
		t.Fatal("no wire bytes recorded")
	}
}

// TestRunDiskSharedMatchesOracle: the real-file-IO shared-storage
// deployment must produce exact counts and record actual reads.
func TestRunDiskSharedMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(303))
	dir := t.TempDir()
	for trial := 0; trial < 6; trial++ {
		data := randomGraph(rng, 30, 90, 3)
		query, err := gen.DFSQuery(data, 3+rng.Intn(3), rng)
		if err != nil {
			continue
		}
		path := filepath.Join(dir, fmt.Sprintf("g%d.csr", trial))
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := graph.WriteCSR(f, data); err != nil {
			t.Fatal(err)
		}
		f.Close()

		cons := auto.Compute(query)
		want := reference.Count(data, query, reference.Options{Constraints: cons})
		for _, machines := range []int{1, 3} {
			res, err := cluster.RunDiskShared(path, query, cluster.Config{
				Machines:          machines,
				WorkersPerMachine: 1,
			})
			if err != nil {
				t.Fatalf("trial %d m=%d: %v", trial, machines, err)
			}
			if res.Embeddings != want {
				t.Fatalf("trial %d m=%d: got %d want %d", trial, machines, res.Embeddings, want)
			}
			if want > 0 {
				var reads int64
				for _, l := range res.Machines {
					reads += l.RemoteReads
				}
				if reads == 0 {
					t.Fatalf("trial %d: no disk reads recorded", trial)
				}
			}
		}
	}
}

// TestRunObservability: an attached registry must expose the in-process
// run's counters, span tree, and per-machine queue gauges.
func TestRunObservability(t *testing.T) {
	reg := obs.NewRegistry()
	tr := obs.NewTracer(obs.TracerOptions{})
	data := gen.Kronecker(9, 6, 3)
	res, err := cluster.Run(data, gen.QG1(), cluster.Config{
		Machines: 3, WorkersPerMachine: 1, Obs: reg, Tracer: tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	c := reg.Counters()
	if c == nil {
		t.Fatal("registry has no counters after run")
	}
	if got := c.Embeddings.Load(); got != res.Embeddings {
		t.Fatalf("live embeddings = %d, result = %d", got, res.Embeddings)
	}
	phases := tr.PhaseDurations()
	for _, want := range []string{"cluster-run", "machine", "build", "enumerate"} {
		if phases[want] <= 0 {
			t.Fatalf("phase %q missing: %v", want, phases)
		}
	}
	prom := reg.PrometheusText()
	for _, want := range []string{"ceci_cluster_machines 3", "ceci_cluster_machine_0_pending", "ceci_embeddings_total"} {
		if !strings.Contains(prom, want) {
			t.Fatalf("missing %q in scrape:\n%s", want, prom)
		}
	}
}

// TestRunTCPObservability: wire traffic and steals must be visible live
// through the registry, not just in the final ledgers.
func TestRunTCPObservability(t *testing.T) {
	reg := obs.NewRegistry()
	tr := obs.NewTracer(obs.TracerOptions{})
	data := gen.Kronecker(9, 6, 3)
	res, err := cluster.RunTCP(data, gen.QG1(), cluster.Config{
		Machines: 3, WorkersPerMachine: 1, Obs: reg, Tracer: tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	c := reg.Counters()
	if c.BytesOnWire.Load() == 0 || c.MessagesSent.Load() == 0 {
		t.Fatalf("wire counters empty: bytes=%d msgs=%d",
			c.BytesOnWire.Load(), c.MessagesSent.Load())
	}
	if got := c.Embeddings.Load(); got != res.Embeddings {
		t.Fatalf("live embeddings = %d, result = %d", got, res.Embeddings)
	}
	phases := tr.PhaseDurations()
	for _, want := range []string{"tcp-run", "machine", "cluster"} {
		if phases[want] <= 0 {
			t.Fatalf("phase %q missing: %v", want, phases)
		}
	}
	if !strings.Contains(reg.PrometheusText(), "ceci_cluster_machines 3") {
		t.Fatal("cluster gauge source missing from scrape")
	}
}

// TestRunTCPConnectedSpanTree: the trace context crosses the real TCP
// wire, so every machine's spans must stitch into ONE tree under the
// caller's trace — no orphaned roots.
func TestRunTCPConnectedSpanTree(t *testing.T) {
	tr := obs.NewTracer(obs.TracerOptions{})
	// The caller's trace identity arrives as if from an upstream service.
	want, err := obs.ParseTraceparent("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	if err != nil {
		t.Fatal(err)
	}
	ctx := obs.ContextWithTrace(context.Background(), want)
	data := gen.Kronecker(9, 6, 3)
	const machines = 3
	if _, err := cluster.RunTCPCtx(ctx, data, gen.QG1(), cluster.Config{
		Machines: machines, WorkersPerMachine: 1, Tracer: tr,
	}); err != nil {
		t.Fatal(err)
	}

	roots := obs.Stitch(tr.Tree())
	if len(roots) != 1 {
		names := make([]string, len(roots))
		for i, r := range roots {
			names[i] = r.Name
		}
		t.Fatalf("span forest has %d roots %v, want 1 connected tree", len(roots), names)
	}
	root := roots[0]
	if root.Name != "tcp-run" {
		t.Fatalf("root span = %q, want tcp-run", root.Name)
	}
	if root.TraceID != want.TraceID.String() {
		t.Fatalf("root trace ID = %s, want caller's %s", root.TraceID, want.TraceID)
	}
	if root.ParentSpanID != want.SpanID.String() {
		t.Fatalf("root parent = %s, want caller's span %s", root.ParentSpanID, want.SpanID)
	}

	// Every span in the tree belongs to the caller's trace, machine spans
	// sit directly under the run root, and each has real work below it.
	machineCount := 0
	var walk func(n *obs.SpanNode, depth int)
	walk = func(n *obs.SpanNode, depth int) {
		if n.TraceID != want.TraceID.String() {
			t.Fatalf("span %q left the trace: %s", n.Name, n.TraceID)
		}
		if n.Name == "machine" {
			machineCount++
			if depth != 1 {
				t.Fatalf("machine span at depth %d, want 1", depth)
			}
			if len(n.Children) == 0 {
				t.Fatalf("machine span has no child spans")
			}
		}
		for _, c := range n.Children {
			walk(c, depth+1)
		}
	}
	walk(root, 0)
	if machineCount != machines {
		t.Fatalf("stitched %d machine spans, want %d", machineCount, machines)
	}

	// The connected tree renders as valid Chrome trace_event JSON.
	doc, err := obs.ChromeTrace(roots)
	if err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Ph   string            `json:"ph"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(doc, &parsed); err != nil {
		t.Fatalf("Chrome export is not valid JSON: %v", err)
	}
	byName := map[string]int{}
	for _, ev := range parsed.TraceEvents {
		byName[ev.Name]++
	}
	if byName["tcp-run"] != 1 || byName["machine"] != machines {
		t.Fatalf("Chrome export event counts wrong: %v", byName)
	}
}
