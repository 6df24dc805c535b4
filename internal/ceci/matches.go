package ceci

import (
	"ceci/internal/bitset"
	"ceci/internal/graph"
	"ceci/internal/setops"
	"ceci/internal/telemetry"
)

// MatchScratch is one matching-order depth's cursor over its inputs, plus
// the reusable buffers CandidatesFor needs. Each enumeration worker keeps
// one per backtracking depth, so results remain valid while deeper levels
// recurse and everything remembered here belongs to one query vertex.
//
// Consecutive CandidatesFor calls at one depth differ only in the deepest
// assignments (see cachePlan), and the scratch remembers what that leaves
// unchanged, in two levels: the intersection of the outer inputs, computed
// once per assignment of their keys — and, once a second inner key shows
// it serves more than one, held as a bitmap the inner list is probed
// against; and the result itself, under every key, unless the inner key is
// the predecessor that changes with every call. This is the
// embedding-cluster observation of Section 4.1 applied one level up, then
// two. Keys, lists and the bitmap are all positions (CandMap).
type MatchScratch struct {
	S setops.Scratch
	// Steps is this depth's step accounting, written as plain integers
	// by CandidatesFor / CandidatesForEdgeVerify / VerifyNTE next to the
	// per-kernel work in S.Stats. The scratch's owner reads and zeroes
	// both at a boundary of its choosing; nothing in this package does.
	Steps StepCounts

	lists [][]uint32

	// The outer level, valid until an outer key's assignment changes or
	// ResetUnitCache is called.
	outerKeys []uint32 // assignments of cachePlan.outerKeys it was built for
	outerOK   bool
	outer     []uint32    // ∩ of the outer lists: an index view or S's buffers
	bits      bitsState   // whether outerBits holds outer
	outerBits bitset.Span // outer as a bitmap, filled for its second inner key

	// The inner level: out is the last result, and when resultOK it is
	// the answer for innerKey under the outer level's keys.
	innerKey uint32
	resultOK bool
	out      []uint32
}

// bitsState tracks the lazy outer bitmap: a rebuilt outer side starts
// untried, and the first intersection that finds it unchanged either
// fills the bitmap or records that the list's span failed the gate
// (setops.FillSpan).
type bitsState uint8

const (
	bitsUntried bitsState = iota
	bitsFilled
	bitsDeclined
)

// StepCounts is the enumeration-step work recorded on one scratch: the
// shape the run's ledger stores it in.
type StepCounts = telemetry.StepCounts

// FootprintBytes returns the scratch's allocated backing size: the setops
// buffers, this package's per-depth slices, the outer bitmap and the result
// buffer. outer aliases index storage or the setops buffers, so it is not
// counted separately.
func (sc *MatchScratch) FootprintBytes() int64 {
	return sc.S.FootprintBytes() +
		int64(cap(sc.lists))*24 + // slice headers
		int64(cap(sc.outerKeys))*4 +
		sc.outerBits.FootprintBytes() +
		int64(cap(sc.out))*4
}

// ResetUnitCache forgets the cursor: both levels and the bitmap state.
// Enumeration workers call it at work-unit boundaries. Nothing here is
// needed for correctness (every key is compared on every lookup), but the
// number of rebuilds and which lookups probe the bitmap — hence the
// per-kernel profile — are then a deterministic function of the unit set
// rather than of which worker happened to run consecutive units.
func (sc *MatchScratch) ResetUnitCache() {
	sc.outerOK, sc.resultOK = false, false
}

// BitmapFilled reports whether the outer side is currently held as a
// bitmap, so tests can assert that a fixture reaches the probe path.
func (sc *MatchScratch) BitmapFilled() bool { return sc.outerOK && sc.bits == bitsFilled }

// CandidatesFor returns the matching nodes for query vertex u, as positions
// in u's Cands, given the partial embedding pos (indexed by query vertex ID,
// each assignment a position in its vertex's Cands): the intersection of
// u's TE candidates under the matched parent with each NTE candidate list
// under the matched non-tree parents (Section 4). The parent and every NTE
// parent of u must already be assigned in pos.
//
// The returned slice may alias index storage or scratch buffers: it is
// valid only until the next CandidatesFor call with the same scratch, and
// must not be modified.
func (ix *Index) CandidatesFor(u graph.VertexID, pos []uint32, sc *MatchScratch) []uint32 {
	st := &sc.Steps
	st.Lookups++
	node := &ix.Nodes[u]
	if len(node.NTE) == 0 {
		base := node.TE.At(pos[ix.Tree.Parent[u]])
		st.Output += int64(len(base))
		return base
	}

	plan := &ix.ntePlan[u]
	key := pos[plan.innerKey]
	hit := sc.outerHit(plan.outerKeys, pos)
	if hit && sc.resultOK && sc.innerKey == key {
		// No key moved since the result was computed.
		st.Output += int64(len(sc.out))
		return sc.out
	}
	sc.resultOK = false
	inner := node.slot(plan.inner).At(key)
	if len(inner) == 0 {
		return nil
	}
	if !hit {
		ix.buildOuter(u, pos, sc)
	}
	outer := sc.outer
	if len(outer) == 0 {
		// Every inner key under these outer assignments fails the same way.
		return nil
	}
	st.Comparisons += int64(len(outer)) + int64(len(inner))

	// A second intersection under one outer key means the outer side
	// serves more than one inner key, so it is worth a bitmap that every
	// later inner list probes with no fill, clear or kernel choice of its
	// own; an outer side that meets one inner key never pays for it.
	if hit && sc.bits == bitsUntried {
		sc.bits = bitsDeclined
		if setops.FillSpan(&sc.outerBits, outer, &sc.S) {
			sc.bits = bitsFilled
		}
	}
	var result []uint32
	if sc.bits == bitsFilled {
		result = setops.IntersectSpan(sc.out, &sc.outerBits, inner, &sc.S)
	} else {
		result = setops.IntersectWith(setops.ChooseKernel(outer, inner), sc.out, outer, inner, &sc.S)
	}
	sc.out = result
	sc.innerKey, sc.resultOK = key, !plan.volatile
	st.Intersections++
	st.Output += int64(len(result))
	return result
}

// Sides returns the two sides CandidatesFor intersects for u under pos:
// inner, the map keyed by u's deepest key vertex, and outer, the
// intersection of u's other inputs, kept on sc's cursor exactly as a
// lookup keeps it (rebuilt only when an outer key's assignment moves) —
// so CandidatesFor(u, pos, sc) is outer ∩ inner.At(pos[deepest key]). u
// must have non-tree edges. outer is valid until the next call with sc
// and must not be modified; building it charges sc.Steps as a lookup's
// does, and nothing else here is charged.
func (ix *Index) Sides(u graph.VertexID, pos []uint32, sc *MatchScratch) (inner *CandMap, outer []uint32) {
	plan := &ix.ntePlan[u]
	if !sc.outerHit(plan.outerKeys, pos) {
		ix.buildOuter(u, pos, sc)
	}
	return ix.Nodes[u].slot(plan.inner), sc.outer
}

// outerHit reports whether the scratch's outer side was built for the
// assignments pos gives the plan's outer keys.
func (sc *MatchScratch) outerHit(keys []graph.VertexID, pos []uint32) bool {
	if !sc.outerOK || len(sc.outerKeys) != len(keys) {
		return false
	}
	for i, w := range keys {
		if sc.outerKeys[i] != pos[w] {
			return false
		}
	}
	return true
}

// buildOuter intersects u's outer inputs, smallest first, into sc.outer
// (nil when one of them is empty), records the assignments it was built
// for and drops the kept result, which was met with the old outer side
// (Sides rebuilds it without a lookup). A single outer list is used as
// is and charges nothing.
func (ix *Index) buildOuter(u graph.VertexID, pos []uint32, sc *MatchScratch) {
	plan := &ix.ntePlan[u]
	sc.outerKeys = sc.outerKeys[:0]
	for _, w := range plan.outerKeys {
		sc.outerKeys = append(sc.outerKeys, pos[w])
	}
	sc.outerOK, sc.resultOK = true, false
	sc.bits = bitsUntried
	sc.outer = nil

	lists := sc.lists[:0]
	var lengths int64
	for i, slot := range plan.outer {
		l := ix.Nodes[u].slot(slot).At(sc.outerKeys[i])
		if len(l) == 0 {
			sc.lists = lists
			return
		}
		lists = append(lists, l)
		lengths += int64(len(l))
	}
	sc.lists = lists
	if len(lists) > 1 {
		sc.Steps.Intersections += int64(len(lists) - 1)
		sc.Steps.Comparisons += lengths
	}
	sc.outer = setops.IntersectK(&sc.S, lists)
}

// CandidatesForEdgeVerify is the ablation variant (Section 4.1, Lemma 2):
// it returns only the TE candidates, as positions like CandidatesFor, and
// leaves non-tree edges to be verified by adjacency probes, the way
// TurboIso/CFLMatch-style systems operate. VerifyNTE performs those probes.
func (ix *Index) CandidatesForEdgeVerify(u graph.VertexID, pos []uint32, sc *MatchScratch) []uint32 {
	cands := ix.Nodes[u].TE.At(pos[ix.Tree.Parent[u]])
	sc.Steps.Lookups++
	sc.Steps.Output += int64(len(cands))
	return cands
}

// VerifyNTE checks the data vertex v against every non-tree edge of u by
// binary-search adjacency probes on the data graph, counted on sc; m holds
// the assigned data vertices, indexed by query vertex ID.
func (ix *Index) VerifyNTE(u graph.VertexID, v graph.VertexID, m []graph.VertexID, sc *MatchScratch) bool {
	for _, un := range ix.Tree.NTEParents[u] {
		sc.Steps.Verifications++
		if !ix.Data.HasEdge(m[un], v) {
			return false
		}
	}
	return true
}
