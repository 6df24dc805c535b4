package ceci

import (
	"ceci/internal/graph"
	"ceci/internal/setops"
)

// MatchScratch holds per-depth reusable buffers for CandidatesFor. Each
// enumeration worker keeps one scratch per backtracking depth so results
// remain valid while deeper levels recurse.
//
// The scratch also carries the cached stable intersection for its depth
// (see cachePlan): consecutive CandidatesFor calls at one depth differ
// only in the predecessor's assignment, so the intersection of every
// input list keyed by an older ancestor is computed once per distinct
// ancestor assignment and reused across the whole sibling loop. This is
// the embedding-cluster observation of Section 4.1 applied one level up.
type MatchScratch struct {
	S setops.Scratch
	// Steps is this depth's step accounting, written as plain integers
	// by CandidatesFor / CandidatesForEdgeVerify / VerifyNTE next to the
	// per-kernel work in S.Stats. The scratch's owner reads and zeroes
	// both at a boundary of its choosing; nothing in this package does.
	Steps StepCounts

	lists [][]uint32
	// prune receives the label-pair-prune survivors of the base list.
	prune []uint32

	// Stable-intersection cache, valid until the stable ancestor
	// assignments change or ResetUnitCache is called.
	nteKeys []graph.VertexID // stable assignments the cache was built for
	nteOK   bool
	nteRes  []uint32 // cached ∩ of the stable lists (aliases S's buffers)
	out     []uint32 // result buffer for the volatile per-sibling step
}

// StepCounts is the enumeration-step work recorded on one scratch
// (Section 4.1): candidate lookups, the intersections they ran, the
// summed lengths of the intersected lists (what a merge-based
// intersection would compare), the summed result sizes, candidates the
// label-pair prune dropped before any kernel ran, and — in the
// edge-verification ablation — adjacency probes.
type StepCounts struct {
	Lookups       int64
	Intersections int64
	Comparisons   int64
	Output        int64
	LabelPruned   int64
	Verifications int64
}

// FootprintBytes returns the scratch's allocated backing size: the
// setops buffers plus this package's per-depth slices. nteRes aliases
// the setops buffers and out, so it is not counted separately.
func (sc *MatchScratch) FootprintBytes() int64 {
	return sc.S.FootprintBytes() +
		int64(cap(sc.lists))*24 + // slice headers
		int64(cap(sc.prune))*4 +
		int64(cap(sc.nteKeys))*4 +
		int64(cap(sc.out))*4
}

// ResetUnitCache invalidates the cached stable intersection. Enumeration
// workers call it at work-unit boundaries: the cache would remain
// correct across units (keys are compared on every lookup), but resets
// make the rebuild counts — and therefore the per-kernel profile — a
// deterministic function of the unit set rather than of which worker
// happened to run consecutive units.
func (sc *MatchScratch) ResetUnitCache() { sc.nteOK = false }

// CandidatesFor returns the matching nodes for query vertex u given the
// partial embedding m (indexed by query vertex ID): the intersection of
// u's TE candidates under the matched parent with each NTE candidate list
// under the matched non-tree parents (Section 4). The parent and every
// NTE parent of u must already be assigned in m. When the label-pair
// prune is enabled, base candidates whose neighborhood provably lacks a
// label required by u's later-matched query neighbors are dropped first.
//
// The returned slice may alias index storage or scratch buffers: it is
// valid only until the next CandidatesFor call with the same scratch, and
// must not be modified.
func (ix *Index) CandidatesFor(u graph.VertexID, m []graph.VertexID, sc *MatchScratch) []graph.VertexID {
	st := &sc.Steps
	st.Lookups++
	tree := ix.Tree
	node := &ix.Nodes[u]
	base := node.TE.Get(m[tree.Parent[u]])
	if len(base) == 0 {
		return nil
	}
	if sigs := ix.nbrSig; sigs != nil {
		if req := ix.reqMask[u]; req != 0 {
			kept := sc.prune[:0]
			for _, v := range base {
				if sigs[v]&req == req {
					kept = append(kept, v)
				}
			}
			st.LabelPruned += int64(len(base) - len(kept))
			sc.prune = kept
			base = kept
			if len(base) == 0 {
				return nil
			}
		}
	}
	if len(node.NTE) == 0 {
		st.Output += int64(len(base))
		return base
	}

	nparents := tree.NTEParents[u]
	plan := ix.ntePlan[u]
	if !plan.use {
		// Fewer than two stable inputs: the cache would precompute
		// nothing, and its fixed pairing order would forfeit IntersectK's
		// smallest-first ordering (measured 2x slower on the clique
		// queries). Direct k-way intersection.
		lists := sc.lists[:0]
		lists = append(lists, base)
		cmp := int64(len(base))
		for j, un := range nparents {
			l := node.NTE[j].Get(m[un])
			if len(l) == 0 {
				sc.lists = lists
				return nil
			}
			lists = append(lists, l)
			cmp += int64(len(l))
		}
		sc.lists = lists
		result := setops.IntersectK(&sc.S, lists)
		st.Intersections += int64(len(lists) - 1)
		st.Comparisons += cmp
		st.Output += int64(len(result))
		return result
	}

	// Stable-cache path. The cache is keyed by every stable assignment:
	// the tree parent's (unless the base list is the volatile input) and
	// each non-volatile NTE parent's.
	hit := sc.nteOK
	if hit {
		ki := 0
		if !plan.volBase {
			if sc.nteKeys[0] != m[tree.Parent[u]] {
				hit = false
			}
			ki = 1
		}
		if hit {
			for j, un := range nparents {
				if j == plan.volNTE {
					continue
				}
				if sc.nteKeys[ki] != m[un] {
					hit = false
					break
				}
				ki++
			}
		}
	}
	if !hit {
		// Record the full key set first: a rebuild that stops early on an
		// empty list must still leave a complete key for the next lookup.
		sc.nteKeys = sc.nteKeys[:0]
		if !plan.volBase {
			sc.nteKeys = append(sc.nteKeys, m[tree.Parent[u]])
		}
		for j, un := range nparents {
			if j != plan.volNTE {
				sc.nteKeys = append(sc.nteKeys, m[un])
			}
		}
		sc.nteOK = true
		lists := sc.lists[:0]
		if !plan.volBase {
			lists = append(lists, base)
			st.Comparisons += int64(len(base))
		}
		empty := false
		for j, un := range nparents {
			if j == plan.volNTE {
				continue
			}
			l := node.NTE[j].Get(m[un])
			if len(l) == 0 {
				empty = true
				break
			}
			st.Comparisons += int64(len(l))
			lists = append(lists, l)
		}
		sc.lists = lists
		if empty {
			sc.nteRes = nil
		} else {
			st.Intersections += int64(len(lists) - 1)
			sc.nteRes = setops.IntersectK(&sc.S, lists)
		}
	}
	if len(sc.nteRes) == 0 {
		// Cached-empty: every sibling under these stable assignments
		// fails the same way.
		return nil
	}

	// Volatile step: intersect the cached stable result with the one
	// input keyed by the predecessor — the TE base list, a single NTE
	// list, or nothing at all (the cached result is the answer).
	result := sc.nteRes
	vol := base
	if plan.volNTE >= 0 {
		vol = node.NTE[plan.volNTE].Get(m[nparents[plan.volNTE]])
	}
	if plan.volBase || plan.volNTE >= 0 {
		st.Comparisons += int64(len(sc.nteRes)) + int64(len(vol))
		if len(vol) == 0 {
			result = nil
		} else {
			result = setops.IntersectWith(setops.ChooseKernel(sc.nteRes, vol), sc.out[:0], sc.nteRes, vol, &sc.S)
			sc.out = result
			st.Intersections++
		}
	}
	st.Output += int64(len(result))
	return result
}

// CandidatesForEdgeVerify is the ablation variant (Section 4.1, Lemma 2):
// it returns only the TE candidates and leaves non-tree edges to be
// verified by adjacency probes, the way TurboIso/CFLMatch-style systems
// operate. VerifyNTE performs those probes.
func (ix *Index) CandidatesForEdgeVerify(u graph.VertexID, m []graph.VertexID, sc *MatchScratch) []graph.VertexID {
	cands := ix.Nodes[u].TE.Get(m[ix.Tree.Parent[u]])
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
