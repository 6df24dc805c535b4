// Package verify is the differential-correctness subsystem: it
// cross-checks every matcher in the repository — CECI itself, the five
// baselines under internal/baseline, and the brute-force oracle in
// internal/reference — on randomized labeled graph/query pairs, asserting
// that all engines produce the identical embedding *set* (canonicalized
// with automorphism-aware dedup, not just equal counts), and that CECI's
// answers satisfy a battery of metamorphic invariants (permutation,
// label-renaming, edge-deletion monotonicity, Options stability, index
// round-trip).
//
// The oracle hierarchy is: reference (obviously correct, exhaustive) >
// baselines (five independent implementations sharing only the graph
// substrate) > CECI (the system under test, unlimited and limited).
// Agreement across all eight is the repository's primary correctness
// signal, following the practice of the large-scale matching literature
// (Sun et al. VLDB'12, GraphMini).
//
// Entry points: CheckSeed/CheckPair (exact set equality across engines,
// and CECI's count-only answer equal to what its enumeration delivered),
// CheckInvariants (metamorphic properties), and MinimizeFailure (shrink a
// failing pair to a minimal counterexample). The same machinery is
// exposed as table-driven tests, native fuzz targets
// (FuzzMatchDifferential, FuzzIndexRoundTrip), and `cecirun -verify`.
package verify

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"

	ceci "ceci"
	"ceci/internal/auto"
	"ceci/internal/gen"
	"ceci/internal/graph"
)

// Options tunes a differential check.
type Options struct {
	// Workers is the parallelism handed to every engine (<= 0: each
	// engine's own default, usually GOMAXPROCS).
	Workers int
	// MaxEmbeddings aborts pathological pairs whose reference embedding
	// set explodes (0 = no cap). Capped runs are reported as skipped,
	// never as agreement.
	MaxEmbeddings int
}

// Mismatch records one engine's disagreement with the reference oracle.
type Mismatch struct {
	// Engine is the disagreeing engine's name.
	Engine string
	// Err is set when the engine failed outright instead of answering,
	// and for "ceci-count" when its count disagrees (a wrong answer).
	Err error
	// Missing are canonical embeddings the oracle found and the engine
	// did not; Extra is the reverse.
	Missing, Extra []string
}

// Report is the outcome of one differential check.
type Report struct {
	// Seed is the generating seed (0 when CheckPair was called directly).
	Seed int64
	// Data and Query are the graphs that were checked.
	Data, Query *graph.Graph
	// Embeddings is the oracle's canonical embedding count.
	Embeddings int
	// Skipped marks a pair abandoned because MaxEmbeddings was exceeded.
	Skipped bool
	// Mismatches lists every engine that disagreed with the oracle.
	Mismatches []Mismatch
}

// OK reports whether every engine agreed with the oracle.
func (r *Report) OK() bool { return len(r.Mismatches) == 0 }

// String renders a human-readable report (multi-line on failure).
func (r *Report) String() string {
	if r.Skipped {
		return fmt.Sprintf("seed %d: skipped (embedding cap exceeded)", r.Seed)
	}
	if r.OK() {
		return fmt.Sprintf("seed %d: %d embeddings, all engines agree", r.Seed, r.Embeddings)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "seed %d: data %v, query %v, oracle found %d embeddings\n",
		r.Seed, r.Data, r.Query, r.Embeddings)
	for _, m := range r.Mismatches {
		if m.Err != nil {
			fmt.Fprintf(&b, "  %s: error: %v\n", m.Engine, m.Err)
			continue
		}
		fmt.Fprintf(&b, "  %s: %d missing, %d extra\n", m.Engine, len(m.Missing), len(m.Extra))
		for i, e := range m.Missing {
			if i == 4 {
				fmt.Fprintf(&b, "    missing ... (%d more)\n", len(m.Missing)-i)
				break
			}
			fmt.Fprintf(&b, "    missing %s\n", e)
		}
		for i, e := range m.Extra {
			if i == 4 {
				fmt.Fprintf(&b, "    extra   ... (%d more)\n", len(m.Extra)-i)
				break
			}
			fmt.Fprintf(&b, "    extra   %s\n", e)
		}
	}
	return strings.TrimRight(b.String(), "\n")
}

// CheckSeed generates the pair for seed and differentially checks it.
func CheckSeed(seed int64, opts Options) *Report {
	data, query := gen.RandomPair(seed)
	r := CheckPair(data, query, opts)
	r.Seed = seed
	return r
}

// CheckPair runs every engine on (data, query) and compares canonical
// embedding sets against the reference oracle; a CECI count-only run that
// disagrees with CECI's own enumeration is reported as engine
// "ceci-count".
func CheckPair(data, query *graph.Graph, opts Options) *Report {
	r := &Report{Data: data, Query: query}
	cons := auto.Compute(query)

	oracle, err := collect(Engines()[0], data, query, opts.Workers)
	if err != nil {
		// The oracle itself cannot fail; treat as universal mismatch.
		r.Mismatches = append(r.Mismatches, Mismatch{Engine: "reference", Err: err})
		return r
	}
	if opts.MaxEmbeddings > 0 && len(oracle) > opts.MaxEmbeddings {
		r.Skipped = true
		return r
	}
	want := CanonicalSet(oracle, cons)
	r.Embeddings = len(want)

	enumerated := -1 // what CECI's consumer was handed
	for _, e := range Engines()[1:] {
		embs, err := collect(e, data, query, opts.Workers)
		if err != nil {
			r.Mismatches = append(r.Mismatches, Mismatch{Engine: e.Name, Err: err})
			continue
		}
		if e.Name == "ceci" {
			enumerated = len(embs)
		}
		got := CanonicalSet(embs, cons)
		missing, extra := diffSets(want, got)
		if len(missing) > 0 || len(extra) > 0 {
			r.Mismatches = append(r.Mismatches, Mismatch{
				Engine: e.Name, Missing: missing, Extra: extra,
			})
		}
	}
	if enumerated >= 0 {
		if err := countOnlyAgrees(data, query, opts.Workers, int64(enumerated)); err != nil {
			r.Mismatches = append(r.Mismatches, Mismatch{Engine: "ceci-count", Err: err})
		}
	}
	return r
}

// countOnlyAgrees checks that CECI counting with no consumer — where the
// last depth is tallied in place, or the last vertex counted from a
// histogram, instead of enumerated — returns what its consumer was
// handed, unlimited and under a limit no pair reaches (the lazily grown
// index).
func countOnlyAgrees(data, query *graph.Graph, workers int, enumerated int64) error {
	for _, limit := range []int64{0, math.MaxInt64} {
		m, err := ceci.Match(data, query, &ceci.Options{Workers: workers, Limit: limit})
		if err != nil {
			return err
		}
		if n := m.Count(); n != enumerated {
			return &countMismatch{limit: limit, counted: n, enumerated: enumerated}
		}
	}
	return nil
}

// countMismatch is a wrong count-only answer. It is reported in
// Mismatch.Err for want of a set to diff, but it is a disagreement, not
// an engine failure: MinimizeFailure shrinks toward it like any other.
type countMismatch struct{ limit, counted, enumerated int64 }

func (e *countMismatch) Error() string {
	return fmt.Sprintf("count-only (limit %d) counted %d, enumeration delivered %d", e.limit, e.counted, e.enumerated)
}

// engineFailed reports whether err is an engine failing to answer.
func engineFailed(err error) bool {
	var cm *countMismatch
	return err != nil && !errors.As(err, &cm)
}

// collect gathers an engine's embeddings; safe under concurrent callbacks.
func collect(e Engine, data, query *graph.Graph, workers int) ([][]graph.VertexID, error) {
	var mu sync.Mutex
	var out [][]graph.VertexID
	err := e.ForEach(data, query, workers, func(emb []graph.VertexID) bool {
		cp := make([]graph.VertexID, len(emb))
		copy(cp, emb)
		mu.Lock()
		out = append(out, cp)
		mu.Unlock()
		return true
	})
	return out, err
}

// diffSets compares two sorted string slices, returning elements only in
// want (missing) and only in got (extra).
func diffSets(want, got []string) (missing, extra []string) {
	i, j := 0, 0
	for i < len(want) || j < len(got) {
		switch {
		case i == len(want):
			extra = append(extra, got[j])
			j++
		case j == len(got):
			missing = append(missing, want[i])
			i++
		case want[i] == got[j]:
			i++
			j++
		case want[i] < got[j]:
			missing = append(missing, want[i])
			i++
		default:
			extra = append(extra, got[j])
			j++
		}
	}
	return missing, extra
}

// MinimizeFailure shrinks a pair on which CheckPair fails to a minimal
// counterexample that still fails the same way (some engine disagreeing
// with the oracle). Engine errors count as failures only if the original
// report contained an engine error too; otherwise shrinking toward
// degenerate inputs that merely error out would lose the actual bug.
func MinimizeFailure(data, query *graph.Graph, opts Options) (*graph.Graph, *graph.Graph, *Report) {
	orig := CheckPair(data, query, opts)
	if orig.OK() {
		return data, query, orig
	}
	allowErrors := false
	for _, m := range orig.Mismatches {
		if engineFailed(m.Err) {
			allowErrors = true
		}
	}
	failing := func(d, q *graph.Graph) bool {
		rep := CheckPair(d, q, opts)
		if rep.OK() || rep.Skipped {
			return false
		}
		if !allowErrors {
			for _, m := range rep.Mismatches {
				if engineFailed(m.Err) {
					return false
				}
			}
		}
		return true
	}
	md, mq := gen.Minimize(data, query, failing)
	return md, mq, CheckPair(md, mq, opts)
}
