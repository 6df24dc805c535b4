package enum_test

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"

	"ceci/internal/auto"
	"ceci/internal/ceci"
	"ceci/internal/enum"
	"ceci/internal/gen"
	"ceci/internal/graph"
	"ceci/internal/order"
	"ceci/internal/reference"
	"ceci/internal/stats"
	"ceci/internal/telemetry"
	"ceci/internal/workload"
)

// TestCountLimitExact locks the limit contract on every delivery path:
// the count-only leaf (Count, CountCtx — k survivors reserved with one
// add), the per-embedding consumer (ForEach, Collect) and the depth-n
// delivery a single-vertex query takes all report min(Limit, total),
// where total is the reference matcher's count, whatever the strategy
// and however many workers race for the last slots — and the counter
// sinks charge exactly what was delivered, not what was reserved.
func TestCountLimitExact(t *testing.T) {
	type fixture struct {
		name        string
		data, query *graph.Graph
	}
	fixtures := []fixture{{"fig1", gen.Fig1Data(), gen.Fig1Query()}}
	for seed := int64(1); seed <= 100; seed++ {
		data, query := gen.RandomPair(seed)
		fixtures = append(fixtures, fixture{fmt.Sprintf("random-pair-%d", seed), data, query})
		if seed%25 == 0 {
			// One vertex: every unit's prefix is a whole embedding, so
			// search delivers at depth n and no leaf loop runs.
			single := graph.NewBuilder(1)
			single.SetLabel(0, data.Label(graph.VertexID(seed)%graph.VertexID(data.NumVertices())))
			fixtures = append(fixtures, fixture{fmt.Sprintf("single-vertex-%d", seed), data, single.MustBuild()})
		}
	}
	strategies := []workload.Strategy{workload.ST, workload.CGD, workload.FGD}
	var limited, singles int
	for _, fx := range fixtures {
		tree, err := order.Preprocess(fx.data, fx.query, order.DefaultOptions())
		if err != nil {
			t.Fatalf("%s: Preprocess: %v", fx.name, err)
		}
		ix := ceci.Build(fx.data, tree, ceci.Options{})
		total := reference.Count(fx.data, fx.query, reference.Options{Constraints: auto.Compute(fx.query)})
		if fx.query.NumVertices() == 1 && total > 0 {
			singles++
		}
		for _, limit := range []int64{0, 1, 7, total, total + 1} {
			want := total
			if limit > 0 && limit < total {
				want = limit
				limited++
			}
			for _, workers := range []int{1, 2, 4, 8} {
				for _, strat := range strategies {
					run := func(how string, deliver func(m *enum.Matcher) int64) {
						st, led := &stats.Counters{}, telemetry.NewLedger()
						m := enum.NewMatcher(ix, enum.Options{
							Workers: workers, Strategy: strat, Limit: limit, Stats: st, Ledger: led,
						})
						got := deliver(m)
						if got != want || st.Embeddings.Load() != want || led.Snapshot().Embeddings != want {
							t.Fatalf("%s limit %d workers %d %v %s: delivered %d, Stats %d, Ledger %d; reference %d, want %d",
								fx.name, limit, workers, strat, how, got, st.Embeddings.Load(), led.Snapshot().Embeddings, total, want)
						}
					}
					run("Count", (*enum.Matcher).Count)
					run("CountCtx", func(m *enum.Matcher) int64 {
						n, err := m.CountCtx(context.Background())
						if err != nil {
							t.Fatalf("%s: CountCtx: %v", fx.name, err)
						}
						return n
					})
					run("ForEach", func(m *enum.Matcher) int64 {
						var n atomic.Int64
						m.ForEach(func([]graph.VertexID) bool {
							n.Add(1)
							return true
						})
						return n.Load()
					})
					run("Collect", func(m *enum.Matcher) int64 { return int64(len(m.Collect())) })
				}
			}
		}
	}
	if limited == 0 || singles == 0 {
		t.Fatalf("fixtures exercise %d truncating limits and %d single-vertex queries; both must be > 0", limited, singles)
	}
}
