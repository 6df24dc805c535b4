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
// Consecutive CandidatesFor calls at one depth differ only in the
// predecessor's assignment (see cachePlan), and the scratch remembers
// what that leaves unchanged: where the previous lookup landed in each
// candidate map (fingers), the intersection of every input not keyed by
// the predecessor (the stable side, computed once per distinct ancestor
// assignment), and — once a second lookup shows the sibling loop has more
// than one iteration — that intersection as a bitmap the volatile list is
// probed against. This is the embedding-cluster observation of Section
// 4.1 applied one level up.
type MatchScratch struct {
	S setops.Scratch
	// Steps is this depth's step accounting, written as plain integers
	// by CandidatesFor / CandidatesForEdgeVerify / VerifyNTE next to the
	// per-kernel work in S.Stats. The scratch's owner reads and zeroes
	// both at a boundary of its choosing; nothing in this package does.
	Steps StepCounts

	lists [][]uint32

	// fingers[0] is the TE map's lookup finger, fingers[1+j] NTE[j]'s
	// (CandMap.GetNear). Hints only: any value is correct.
	fingers []int

	// The stable side, valid until a stable assignment changes or
	// ResetUnitCache is called.
	stableKeys []graph.VertexID // assignments of cachePlan.stableKeys it was built for
	stableOK   bool
	stable     []uint32    // ∩ of the stable lists: an index view or S's buffers
	bits       bitsState   // whether stableBits holds stable
	stableBits bitset.Span // stable as a bitmap, filled on the second lookup under one key
	out        []uint32    // result buffer for the volatile per-sibling step
}

// bitsState tracks the lazy stable bitmap: a rebuilt stable side starts
// untried, and the first lookup that finds it unchanged either fills the
// bitmap or records that the list's span failed the gate (setops.FillSpan).
type bitsState uint8

const (
	bitsUntried bitsState = iota
	bitsFilled
	bitsDeclined
)

// StepCounts is the enumeration-step work recorded on one scratch: the
// shape the run's ledger stores it in.
type StepCounts = telemetry.StepCounts

// FootprintBytes returns the scratch's allocated backing size: the
// setops buffers, this package's per-depth slices, the fingers and the
// stable bitmap. stable aliases index storage or the setops buffers, so
// it is not counted separately.
func (sc *MatchScratch) FootprintBytes() int64 {
	return sc.S.FootprintBytes() +
		int64(cap(sc.lists))*24 + // slice headers
		int64(cap(sc.fingers))*8 +
		int64(cap(sc.stableKeys))*4 +
		sc.stableBits.FootprintBytes() +
		int64(cap(sc.out))*4
}

// ResetUnitCache forgets the cursor: the stable side, its bitmap state
// and the fingers. Enumeration workers call it at work-unit boundaries.
// Nothing here is needed for correctness (stable keys are compared on
// every lookup and a finger is only a hint), but the number of stable
// rebuilds and which lookups probe the bitmap — hence the per-kernel
// profile — are then a deterministic function of the unit set rather
// than of which worker happened to run consecutive units.
func (sc *MatchScratch) ResetUnitCache() {
	sc.stableOK = false
	clear(sc.fingers)
}

// BitmapFilled reports whether the stable side is currently held as a
// bitmap, so tests can assert that a fixture reaches the probe path.
func (sc *MatchScratch) BitmapFilled() bool { return sc.stableOK && sc.bits == bitsFilled }

// base returns u's TE candidates under the matched tree parent: an
// index view.
func (ix *Index) base(u graph.VertexID, m []graph.VertexID, sc *MatchScratch) []graph.VertexID {
	return ix.Nodes[u].TE.GetNear(&sc.fingers[0], m[ix.Tree.Parent[u]])
}

// CandidatesFor returns the matching nodes for query vertex u given the
// partial embedding m (indexed by query vertex ID): the intersection of
// u's TE candidates under the matched parent with each NTE candidate list
// under the matched non-tree parents (Section 4). The parent and every
// NTE parent of u must already be assigned in m.
//
// The returned slice may alias index storage or scratch buffers: it is
// valid only until the next CandidatesFor call with the same scratch, and
// must not be modified.
func (ix *Index) CandidatesFor(u graph.VertexID, m []graph.VertexID, sc *MatchScratch) []graph.VertexID {
	st := &sc.Steps
	st.Lookups++
	node := &ix.Nodes[u]
	if len(sc.fingers) != 1+len(node.NTE) {
		sc.fingers = make([]int, 1+len(node.NTE)) // first lookup on this scratch
	}
	if len(node.NTE) == 0 {
		base := ix.base(u, m, sc)
		st.Output += int64(len(base))
		return base
	}

	// At most one input is keyed by the predecessor and changes with every
	// call: the base list or one NTE list. Look the base up first when it
	// is the one, since an empty base settles the call.
	plan := &ix.ntePlan[u]
	var vol []graph.VertexID
	if plan.volBase {
		if vol = ix.base(u, m, sc); len(vol) == 0 {
			return nil
		}
	}
	hit := sc.stableHit(plan.stableKeys, m)
	if !hit {
		ix.buildStable(u, m, sc)
	}
	stable := sc.stable
	if len(stable) == 0 {
		// Every sibling under these stable assignments fails the same way.
		return nil
	}
	if plan.volNTE >= 0 {
		j := plan.volNTE
		vol = node.NTE[j].GetNear(&sc.fingers[1+j], m[ix.Tree.NTEParents[u][j]])
	} else if !plan.volBase {
		// No input follows the predecessor: the stable side is the answer.
		st.Output += int64(len(stable))
		return stable
	}
	st.Comparisons += int64(len(stable)) + int64(len(vol))
	if len(vol) == 0 {
		return nil
	}

	// Volatile step. A second lookup under one stable key means the
	// sibling loop has more than one iteration, so the stable side is
	// worth a bitmap that every later sibling probes with no fill, clear
	// or kernel choice of its own; a one-iteration loop never pays for it.
	if hit && sc.bits == bitsUntried {
		sc.bits = bitsDeclined
		if setops.FillSpan(&sc.stableBits, stable, &sc.S) {
			sc.bits = bitsFilled
		}
	}
	var result []graph.VertexID
	if sc.bits == bitsFilled {
		result = setops.IntersectSpan(sc.out, &sc.stableBits, vol, &sc.S)
	} else {
		result = setops.IntersectWith(setops.ChooseKernel(stable, vol), sc.out, stable, vol, &sc.S)
	}
	sc.out = result
	st.Intersections++
	st.Output += int64(len(result))
	return result
}

// stableHit reports whether the scratch's stable side was built for the
// assignments m gives the plan's stable keys.
func (sc *MatchScratch) stableHit(keys []graph.VertexID, m []graph.VertexID) bool {
	if !sc.stableOK || len(sc.stableKeys) != len(keys) {
		return false
	}
	for i, w := range keys {
		if sc.stableKeys[i] != m[w] {
			return false
		}
	}
	return true
}

// buildStable intersects every input of u that is not keyed by the
// predecessor, smallest first, into sc.stable (nil when one of them is
// empty) and records the assignments it was built for. A single stable
// list is used as is and charges nothing.
func (ix *Index) buildStable(u graph.VertexID, m []graph.VertexID, sc *MatchScratch) {
	plan := &ix.ntePlan[u]
	sc.stableKeys = sc.stableKeys[:0]
	for _, w := range plan.stableKeys {
		sc.stableKeys = append(sc.stableKeys, m[w])
	}
	sc.stableOK = true
	sc.bits = bitsUntried
	sc.stable = nil

	lists := sc.lists[:0]
	var lengths int64
	if !plan.volBase {
		base := ix.base(u, m, sc)
		if len(base) == 0 {
			return
		}
		lists = append(lists, base)
		lengths = int64(len(base))
	}
	node := &ix.Nodes[u]
	for j, un := range ix.Tree.NTEParents[u] {
		if j == plan.volNTE {
			continue
		}
		l := node.NTE[j].GetNear(&sc.fingers[1+j], m[un])
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
	sc.stable = setops.IntersectK(&sc.S, lists)
}

// CandidatesForEdgeVerify is the ablation variant (Section 4.1, Lemma 2):
// it returns only the TE candidates and leaves non-tree edges to be
// verified by adjacency probes, the way TurboIso/CFLMatch-style systems
// operate. VerifyNTE performs those probes.
func (ix *Index) CandidatesForEdgeVerify(u graph.VertexID, m []graph.VertexID, sc *MatchScratch) []graph.VertexID {
	if len(sc.fingers) == 0 {
		sc.fingers = make([]int, 1) // first lookup on this scratch
	}
	cands := ix.Nodes[u].TE.GetNear(&sc.fingers[0], m[ix.Tree.Parent[u]])
	sc.Steps.Lookups++
	sc.Steps.Output += int64(len(cands))
	return cands
}

// VerifyNTE checks v against every non-tree edge of u by binary-search
// adjacency probes on the data graph, counted on sc.
func (ix *Index) VerifyNTE(u graph.VertexID, v graph.VertexID, m []graph.VertexID, sc *MatchScratch) bool {
	for _, un := range ix.Tree.NTEParents[u] {
		sc.Steps.Verifications++
		if !ix.Data.HasEdge(m[un], v) {
			return false
		}
	}
	return true
}
