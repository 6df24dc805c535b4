// Package auto implements automorphism breaking for query graphs
// (Section 2.2): query vertices are grouped into NEC-style equivalence
// classes (same label set and same neighborhood, ignoring a possible
// mutual edge, following TurboIso's neighborhood equivalence), and an
// ordering constraint map(u_i) < map(u_j) is enforced within each class
// (the symmetry-breaking rule of Grochow-Kellis). With the constraints
// active, exactly one representative of each automorphism orbit induced
// by these classes is enumerated.
package auto

import (
	"slices"

	"ceci/internal/graph"
)

// Constraints records, for every query vertex u, the equivalence-class
// neighbors whose data-graph matches must be smaller (Less[u]) or larger
// (Greater[u]) than u's match. A vertex with empty slices is
// unconstrained.
type Constraints struct {
	Less    [][]graph.VertexID // all w with required M(w) < M(u)
	Greater [][]graph.VertexID // all w with required M(w) > M(u)
	Classes [][]graph.VertexID // the equivalence classes of size >= 2
}

// Empty reports whether no constraints exist (no symmetric vertices).
func (c *Constraints) Empty() bool { return len(c.Classes) == 0 }

// Compute derives equivalence classes and ordering constraints for q.
func Compute(q *graph.Graph) *Constraints {
	n := q.NumVertices()
	c := &Constraints{
		Less:    make([][]graph.VertexID, n),
		Greater: make([][]graph.VertexID, n),
	}
	assigned := make([]bool, n)
	for u := 0; u < n; u++ {
		if assigned[u] {
			continue
		}
		class := []graph.VertexID{graph.VertexID(u)}
		for w := u + 1; w < n; w++ {
			if !assigned[w] && equivalent(q, graph.VertexID(u), graph.VertexID(w)) {
				class = append(class, graph.VertexID(w))
			}
		}
		if len(class) < 2 {
			continue
		}
		for _, v := range class {
			assigned[v] = true
		}
		c.Classes = append(c.Classes, class)
		// Enforce M(class[0]) < M(class[1]) < ... (IDs are ascending).
		for i := 1; i < len(class); i++ {
			c.Less[class[i]] = append(c.Less[class[i]], class[i-1])
			c.Greater[class[i-1]] = append(c.Greater[class[i-1]], class[i])
		}
	}
	return c
}

// equivalent reports the NEC relation: u ≡ w iff they carry the same
// label set and N(u)\{w} == N(w)\{u}. This covers both the adjacent case
// (e.g. vertices of a clique) and the non-adjacent case (e.g. the two
// endpoints of a path of length two).
func equivalent(q *graph.Graph, u, w graph.VertexID) bool {
	lu, lw := q.Labels(u), q.Labels(w)
	if len(lu) != len(lw) {
		return false
	}
	for i := range lu {
		if lu[i] != lw[i] {
			return false
		}
	}
	nu, nw := q.Neighbors(u), q.Neighbors(w)
	i, j := 0, 0
	for i < len(nu) || j < len(nw) {
		// Skip the mutual edge on both sides.
		if i < len(nu) && nu[i] == w {
			i++
			continue
		}
		if j < len(nw) && nw[j] == u {
			j++
			continue
		}
		if i == len(nu) || j == len(nw) {
			return false
		}
		if nu[i] != nw[j] {
			return false
		}
		i++
		j++
	}
	return true
}

// Allows reports whether assigning data vertex v to query vertex u is
// consistent with the ordering constraints, given the current partial
// match. matched[w] must be true when query vertex w is assigned, with
// its data vertex in m[w].
func (c *Constraints) Allows(u graph.VertexID, v graph.VertexID, m []graph.VertexID, matched []bool) bool {
	for _, w := range c.Less[u] {
		if matched[w] && m[w] >= v {
			return false
		}
	}
	for _, w := range c.Greater[u] {
		if matched[w] && m[w] <= v {
			return false
		}
	}
	return true
}

// Related reports whether a constraint orders u's match directly against
// w's (either way round): only then does Allows for one read the other.
func (c *Constraints) Related(u, w graph.VertexID) bool {
	return slices.Contains(c.Less[u], w) || slices.Contains(c.Greater[u], w)
}

// OrbitSize returns the product of class factorials: the number of
// automorphisms induced by the equivalence classes. Useful to convert a
// constrained count into a raw (automorphism-inclusive) count in tests.
func (c *Constraints) OrbitSize() int {
	total := 1
	for _, class := range c.Classes {
		f := 1
		for i := 2; i <= len(class); i++ {
			f *= i
		}
		total *= f
	}
	return total
}
