package verify

import (
	"fmt"
	"sync"

	ceci "ceci"
	"ceci/internal/auto"
	"ceci/internal/gen"
	"ceci/internal/graph"
)

// Metamorphic invariants: properties CECI's answers must satisfy under
// input and configuration transformations, checkable without any oracle.
//
//   - permutation:    relabeling data vertices leaves the count unchanged
//   - label-renaming: a label bijection applied to both graphs leaves the
//     embedding set unchanged vertex-for-vertex
//   - edge-deletion:  removing a data edge never creates embeddings
//   - options:        worker count, ST/CGD/FGD balancing and
//     adjacency-probe verification all produce the identical embedding set
//   - limited:        a Limit past the total (a prefix index that must
//     grow) yields exactly the exhaustive set, and half the total yields
//     that many distinct members of it
//   - automorphisms:  KeepAutomorphisms multiplies the count by exactly
//     the query's orbit size

// Violation records one broken invariant.
type Violation struct {
	// Invariant names the broken property.
	Invariant string
	// Detail explains the disagreement.
	Detail string
}

func (v Violation) String() string { return v.Invariant + ": " + v.Detail }

// CheckInvariants runs every metamorphic invariant on (data, query),
// deriving transform randomness from seed. It returns all violations
// found (empty means the invariants hold).
func CheckInvariants(data, query *graph.Graph, seed int64, opts Options) []Violation {
	var out []Violation
	rng := gen.NewRNG(seed)
	cons := auto.Compute(query)

	base, err := ceciSet(data, query, &ceci.Options{Workers: opts.Workers}, cons)
	if err != nil {
		return []Violation{{Invariant: "baseline", Detail: err.Error()}}
	}
	baseCount := int64(len(base))

	// Invariance under data-vertex permutation.
	permuted, _ := gen.PermuteVertices(data, rng)
	if got, err := ceciCount(permuted, query, &ceci.Options{Workers: opts.Workers}); err != nil {
		out = append(out, Violation{"permutation", err.Error()})
	} else if got != baseCount {
		out = append(out, Violation{"permutation",
			fmt.Sprintf("count %d after data-vertex permutation, want %d", got, baseCount)})
	}

	// Invariance under label renaming (same bijection on both graphs).
	alpha := data.NumLabels()
	if qa := query.NumLabels(); qa > alpha {
		alpha = qa
	}
	ren := gen.RandomLabelBijection(alpha, rng)
	if got, err := ceciSet(gen.RenameLabels(data, ren), gen.RenameLabels(query, ren),
		&ceci.Options{Workers: opts.Workers}, cons); err != nil {
		out = append(out, Violation{"label-renaming", err.Error()})
	} else if !equalSets(base, got) {
		out = append(out, Violation{"label-renaming",
			fmt.Sprintf("embedding set changed under label bijection (%d vs %d)", len(got), len(base))})
	}

	// Monotonicity under data-edge deletion.
	if data.NumEdges() > 0 {
		smaller := gen.DeleteEdge(data, rng.Intn(data.NumEdges()))
		if got, err := ceciCount(smaller, query, &ceci.Options{Workers: opts.Workers}); err != nil {
			out = append(out, Violation{"edge-deletion", err.Error()})
		} else if got > baseCount {
			out = append(out, Violation{"edge-deletion",
				fmt.Sprintf("count grew from %d to %d after deleting a data edge", baseCount, got)})
		}
	}

	// Stability across Options variations — identical embedding sets.
	variants := []struct {
		name string
		opts *ceci.Options
	}{
		{"workers=1", &ceci.Options{Workers: 1}},
		{"workers=4", &ceci.Options{Workers: 4}},
		{"strategy=static", &ceci.Options{Workers: opts.Workers, Strategy: ceci.StrategyStatic}},
		{"strategy=coarse", &ceci.Options{Workers: opts.Workers, Strategy: ceci.StrategyCoarse}},
		{"edge-verification", &ceci.Options{Workers: opts.Workers, EdgeVerification: true}},
	}
	for _, v := range variants {
		got, err := ceciSet(data, query, v.opts, cons)
		if err != nil {
			out = append(out, Violation{"options/" + v.name, err.Error()})
			continue
		}
		if !equalSets(base, got) {
			out = append(out, Violation{"options/" + v.name,
				fmt.Sprintf("embedding set differs from default run (%d vs %d)", len(got), len(base))})
		}
	}

	// Limited matching: the index covers the first cluster and is
	// completed when a call comes up short of the limit.
	if got, err := ceciSet(data, query, &ceci.Options{Workers: opts.Workers, Limit: baseCount + 1}, cons); err != nil {
		out = append(out, Violation{"limited", err.Error()})
	} else if !equalSets(base, got) {
		out = append(out, Violation{"limited",
			fmt.Sprintf("limit %d: set differs from the exhaustive one (%d vs %d)", baseCount+1, len(got), len(base))})
	}
	half := (baseCount + 1) / 2
	if got, err := ceciSet(data, query, &ceci.Options{Workers: opts.Workers, Limit: half}, cons); err != nil {
		out = append(out, Violation{"limited", err.Error()})
	} else if _, extra := diffSets(base, got); int64(len(got)) != half || len(extra) > 0 {
		out = append(out, Violation{"limited",
			fmt.Sprintf("limit %d: %d distinct embeddings, %d of them outside the exhaustive set of %d",
				half, len(got), len(extra), len(base))})
	}

	// Automorphism accounting: listing all images multiplies the count by
	// the orbit size of the query's equivalence classes.
	if got, err := ceciCount(data, query, &ceci.Options{Workers: opts.Workers, KeepAutomorphisms: true}); err != nil {
		out = append(out, Violation{"automorphisms", err.Error()})
	} else if want := baseCount * int64(cons.OrbitSize()); got != want {
		out = append(out, Violation{"automorphisms",
			fmt.Sprintf("KeepAutomorphisms count %d, want %d (= %d × orbit %d)",
				got, want, baseCount, cons.OrbitSize())})
	}

	return out
}

func ceciCount(data, query *graph.Graph, o *ceci.Options) (int64, error) {
	return ceci.Count(data, query, o)
}

func ceciSet(data, query *graph.Graph, o *ceci.Options, cons *auto.Constraints) ([]string, error) {
	m, err := ceci.Match(data, query, o)
	if err != nil {
		return nil, err
	}
	return collectSet(cons, func(fn func([]graph.VertexID) bool) { m.ForEach(fn) }), nil
}

func collectSet(cons *auto.Constraints, forEach func(fn func([]graph.VertexID) bool)) []string {
	var mu sync.Mutex
	var embs [][]graph.VertexID
	forEach(func(emb []graph.VertexID) bool {
		cp := make([]graph.VertexID, len(emb))
		copy(cp, emb)
		mu.Lock()
		embs = append(embs, cp)
		mu.Unlock()
		return true
	})
	return CanonicalSet(embs, cons)
}

func equalSets(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
