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
// two. Keys, lists and the bitmap are all positions (CandMap); a narrow
// vertex's lists are read at two bytes and its results written at four.
type MatchScratch struct {
	S setops.Scratch
	// Steps is this depth's step accounting, written as plain integers
	// by CandidatesFor / CandidatesForEdgeVerify / VerifyNTE next to the
	// per-kernel work in S.Stats. The scratch's owner reads and zeroes
	// both at a boundary of its choosing; nothing in this package does.
	Steps StepCounts

	lists   [][]uint32
	lists16 [][]uint16

	// The outer level, valid until an outer key's assignment changes or
	// ResetUnitCache is called. The outer side is outer16 when it is a
	// narrow vertex's one outer list, viewed in the index, and outer
	// otherwise: a wide vertex's one list, or the ∩ of several in S's
	// buffers.
	outerKeys []uint32 // assignments of cachePlan.outerKeys it was built for
	outerOK   bool
	outer     []uint32
	outer16   []uint16
	bits      bitsState   // whether outerBits holds the outer side
	outerBits bitset.Span // the outer side as a bitmap, filled for its second inner key

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
// buffer. The outer side aliases index storage or the setops buffers, so it
// is not counted separately.
func (sc *MatchScratch) FootprintBytes() int64 {
	return sc.S.FootprintBytes() +
		int64(cap(sc.lists)+cap(sc.lists16))*24 + // slice headers
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
		base := node.teAt(pos[ix.Tree.Parent[u]], sc)
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
	m := node.slot(plan.inner)
	if m.offs[key] == m.offs[key+1] {
		return nil // an empty inner list
	}
	if !hit {
		ix.buildOuter(u, pos, sc)
	}
	switch {
	case sc.outer16 != nil:
		return meet(sc, plan, key, hit, sc.outer16, m.U16().At(key))
	case node.Narrow():
		return meet(sc, plan, key, hit, sc.outer, m.U16().At(key))
	}
	return meet(sc, plan, key, hit, sc.outer, m.U32().At(key))
}

// teAt returns the node's TE list under the key position key as
// four-byte positions: a view of a wide arena, or a narrow list widened
// into sc's result buffer, which drops the kept result. A TE list is the
// one list a lookup returns as it stands; the enumerator reads a narrow
// tree-only vertex's through CandidatesFor16 instead.
func (n *Node) teAt(key uint32, sc *MatchScratch) []uint32 {
	if !n.Narrow() {
		return n.TE.U32().At(key)
	}
	sc.out, sc.resultOK = setops.Widen(sc.out[:0], n.TE.U16().At(key)), false
	return sc.out
}

// CandidatesFor16 is CandidatesFor for a narrow vertex with no non-tree
// edges: u's TE list under the parent's assignment as the two-byte arena
// holds it, where CandidatesFor widens it into sc. Charged to sc as the
// same lookup; the view must not be modified.
func (ix *Index) CandidatesFor16(u graph.VertexID, pos []uint32, sc *MatchScratch) []uint16 {
	list := ix.Nodes[u].TE.U16().At(pos[ix.Tree.Parent[u]])
	sc.Steps.Lookups++
	sc.Steps.Output += int64(len(list))
	return list
}

// meet intersects the outer side with inner, the list under the inner
// key's assignment key, into sc's result and keeps it under key unless
// the inner key is volatile. Each side is read at its width.
func meet[O, I setops.Position](sc *MatchScratch, plan *cachePlan, key uint32, hit bool, outer []O, inner []I) []uint32 {
	if len(outer) == 0 {
		// Every inner key under these outer assignments fails the same way.
		return nil
	}
	st := &sc.Steps
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
// inner, the map keyed by u's deepest key vertex, and the outer side, the
// intersection of u's other inputs, kept on sc's cursor exactly as a
// lookup keeps it (rebuilt only when an outer key's assignment moves) —
// so CandidatesFor(u, pos, sc) is the outer side ∩ inner's list under
// pos[deepest key]. The outer side is outer16 when u is narrow and has
// one other input (a view of its list), and outer otherwise; the other
// result is nil. u must have non-tree edges. The outer side is valid until
// the next call with sc and must not be modified; building it charges
// sc.Steps as a lookup's does, and nothing else here is charged.
func (ix *Index) Sides(u graph.VertexID, pos []uint32, sc *MatchScratch) (inner *CandMap, outer []uint32, outer16 []uint16) {
	plan := &ix.ntePlan[u]
	if !sc.outerHit(plan.outerKeys, pos) {
		ix.buildOuter(u, pos, sc)
	}
	return ix.Nodes[u].slot(plan.inner), sc.outer, sc.outer16
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

// buildOuter intersects u's outer inputs, smallest first, into the outer
// side (empty when one of them is), records the assignments it was built
// for and drops the kept result, which was met with the old outer side
// (Sides rebuilds it without a lookup). A single outer list is used as
// is, at u's width, and charges nothing.
func (ix *Index) buildOuter(u graph.VertexID, pos []uint32, sc *MatchScratch) {
	plan := &ix.ntePlan[u]
	sc.outerKeys = sc.outerKeys[:0]
	for _, w := range plan.outerKeys {
		sc.outerKeys = append(sc.outerKeys, pos[w])
	}
	sc.outerOK, sc.resultOK = true, false
	sc.bits = bitsUntried
	sc.outer, sc.outer16 = nil, nil

	node := &ix.Nodes[u]
	narrow := node.Narrow()
	lists, lists16 := sc.lists[:0], sc.lists16[:0]
	var lengths int64
	for i, slot := range plan.outer {
		m, key := node.slot(slot), sc.outerKeys[i]
		var n int
		if narrow {
			l := m.U16().At(key)
			lists16, n = append(lists16, l), len(l)
		} else {
			l := m.U32().At(key)
			lists, n = append(lists, l), len(l)
		}
		if n == 0 {
			sc.lists, sc.lists16 = lists[:0], lists16[:0]
			return
		}
		lengths += int64(n)
	}
	sc.lists, sc.lists16 = lists, lists16
	if k := len(plan.outer); k > 1 {
		sc.Steps.Intersections += int64(k - 1)
		sc.Steps.Comparisons += lengths
	}
	switch {
	case len(lists16) == 1:
		sc.outer16 = lists16[0]
	case narrow:
		sc.outer = setops.IntersectK(&sc.S, lists16)
	default:
		sc.outer = setops.IntersectK(&sc.S, lists)
	}
}

// CandidatesForEdgeVerify is the ablation variant (Section 4.1, Lemma 2):
// it returns only the TE candidates, as positions like CandidatesFor, and
// leaves non-tree edges to be verified by adjacency probes, the way
// TurboIso/CFLMatch-style systems operate. VerifyNTE performs those probes.
func (ix *Index) CandidatesForEdgeVerify(u graph.VertexID, pos []uint32, sc *MatchScratch) []uint32 {
	cands := ix.Nodes[u].teAt(pos[ix.Tree.Parent[u]], sc)
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
