package verify

import (
	"math"

	ceci "ceci"
	"ceci/internal/auto"
	"ceci/internal/baseline"
	"ceci/internal/baseline/bare"
	"ceci/internal/baseline/cfl"
	"ceci/internal/baseline/dualsim"
	"ceci/internal/baseline/psgl"
	"ceci/internal/baseline/turboiso"
	"ceci/internal/graph"
	"ceci/internal/reference"
)

// Engine is one matcher under differential test. All engines enumerate
// with symmetry breaking active (one representative per automorphism
// orbit); the canonicalization layer makes comparison robust to which
// representative each engine happens to emit.
type Engine struct {
	// Name identifies the engine in reports.
	Name string
	// ForEach enumerates embeddings of query in data. The slice is
	// indexed by query vertex, may be reused, and fn may be called
	// concurrently.
	ForEach func(data, query *graph.Graph, workers int, fn func(emb []graph.VertexID) bool) error
}

// Engines returns the eight matchers in oracle order: the reference
// enumerator first (the trust anchor), then CECI — unlimited, and under a
// limit no pair reaches, which starts from the first cluster's index and
// must grow it — then the baselines.
func Engines() []Engine {
	return []Engine{
		{Name: "reference", ForEach: referenceForEach},
		{Name: "ceci", ForEach: ceciForEach(0)},
		{Name: "ceci-limited", ForEach: ceciForEach(math.MaxInt64)},
		{Name: "bare", ForEach: baselineForEach(bare.ForEach)},
		{Name: "cfl", ForEach: baselineForEach(cfl.ForEach)},
		{Name: "dualsim", ForEach: baselineForEach(dualsim.ForEach)},
		{Name: "psgl", ForEach: baselineForEach(psgl.ForEach)},
		{Name: "turboiso", ForEach: baselineForEach(turboiso.ForEach)},
	}
}

func referenceForEach(data, query *graph.Graph, workers int, fn func([]graph.VertexID) bool) error {
	reference.ForEach(data, query, reference.Options{Constraints: auto.Compute(query)}, fn)
	return nil
}

func ceciForEach(limit int64) func(data, query *graph.Graph, workers int, fn func([]graph.VertexID) bool) error {
	return func(data, query *graph.Graph, workers int, fn func([]graph.VertexID) bool) error {
		m, err := ceci.Match(data, query, &ceci.Options{Workers: workers, Limit: limit})
		if err != nil {
			return err
		}
		m.ForEach(fn)
		return nil
	}
}

func baselineForEach(f baseline.ForEachFunc) func(data, query *graph.Graph, workers int, fn func([]graph.VertexID) bool) error {
	return func(data, query *graph.Graph, workers int, fn func([]graph.VertexID) bool) error {
		return f(data, query, baseline.Options{Workers: workers}, fn)
	}
}
