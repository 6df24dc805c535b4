package enum

import (
	"slices"
	"time"

	"ceci/internal/bitset"
	"ceci/internal/ceci"
	"ceci/internal/graph"
	"ceci/internal/setops"
	"ceci/internal/workload"
)

// searcher is one worker's backtracking state. All buffers are owned by
// the worker; nothing here is shared.
type searcher struct {
	m    *Matcher
	ctl  *control
	tree queryShape

	emb     []graph.VertexID    // partial embedding, indexed by query vertex
	pos     []uint32            // emb[u]'s position in Cands(u): what the index is read by
	matched []bool              // indexed by query vertex
	used    bitset.Bits         // indexed by data vertex (injectivity bitmap)
	scratch []ceci.MatchScratch // per-depth intersection buffers

	worker int // the ledger's worker slot this searcher charges

	// elim: count-only, and the matcher counts its last vertex from a
	// histogram (Matcher.elim) — search finishes depth elim with
	// eliminate. 0 when it does not.
	elim int
	hist histogram
	zu   []uint32 // eliminate's Z∩U: positions in z's Cands, at most elim
	// corrected and ruledOut count, per correction term of eliminate (Z∩U,
	// Z∩A, O∩A), the prefixes where it was not zero and those where the
	// sharing rule (Matcher.canShare) skipped it, so tests can tell that
	// each one is exercised both ways.
	corrected, ruledOut [3]int64

	// Everything the hot loop counts is a plain integer this worker owns:
	// these two and the per-depth step and kernel blocks in scratch. They
	// hold the work since the last drain, which charges and zeroes them.
	recursiveCalls int64
	embeddings     int64
}

// liveDrainEvery batches sink updates: counters drain once this many
// embeddings have accumulated (and at each unit boundary), keeping the
// hot path atomic-free while live snapshots still advance mid-unit.
const liveDrainEvery = 1 << 12

// queryShape caches the tree fields the inner loop touches.
type queryShape struct {
	order []graph.VertexID
	n     int
}

func newSearcher(m *Matcher, ctl *control) *searcher {
	n := m.ix.Tree.NumVertices()
	state := make([]uint32, 2*n) // emb and pos: one allocation
	s := &searcher{
		m:       m,
		ctl:     ctl,
		tree:    queryShape{order: m.ix.Tree.Order, n: n},
		emb:     state[:n:n],
		pos:     state[n:],
		matched: make([]bool, n),
		used:    bitset.New(m.ix.Data.NumVertices()),
		scratch: make([]ceci.MatchScratch, n),
	}
	if m.elim > 0 && ctl.fn == nil {
		s.elim = m.elim
		s.hist = newHistogram(len(m.ix.Nodes[s.tree.order[n-1]].Cands), len(m.elimKeys))
		s.zu = make([]uint32, 0, m.elim)
	}
	return s
}

// histogram is h[x] = #{v ∈ Z : x ∈ I(v)} over the positions x of the
// last vertex w's Cands, where Z is the candidate list of w's deepest key
// vertex z and I(v) is w's inner list under z = v (searcher.eliminate).
// It is sized once per searcher and refilled only when the assignments
// of z's key vertices, which alone decide Z, move.
type histogram struct {
	h    []uint32
	set  []uint32 // the positions whose entry is not zero
	keys []uint32 // the key assignments h was filled under
	ok   bool
}

// newHistogram sizes a histogram over positions positions of w, kept
// under keys key vertices. set has one slot past the positions: fill
// writes every element there before it knows whether it is new.
func newHistogram(positions, keys int) histogram {
	return histogram{h: make([]uint32, positions), set: make([]uint32, 0, positions+1), keys: make([]uint32, keys)}
}

// holds reports whether h was filled under the assignments pos gives the
// key vertices keys.
func (hs *histogram) holds(keys []graph.VertexID, pos []uint32) bool {
	if !hs.ok {
		return false
	}
	for i, k := range keys {
		if hs.keys[i] != pos[k] {
			return false
		}
	}
	return true
}

// fill rebuilds h from zs and inner, each read at its vertex's width,
// under the key assignments in pos and returns the entries it added.
// Every element is written at the end of set, and the end advances only
// when its entry was zero, so the loop has no branch.
func fill[T, Z setops.Position](hs *histogram, keys []graph.VertexID, pos []uint32, zs []Z, inner ceci.Lists[T]) (entries int64) {
	for _, x := range hs.set {
		hs.h[x] = 0
	}
	set, n := hs.set[:cap(hs.set)], 0
	for _, v := range zs {
		list := inner.At(uint32(v))
		entries += int64(len(list))
		for _, x := range list {
			set[n] = uint32(x)
			n += int(uint64(int64(hs.h[x])-1) >> 63) // 1 when the entry is zero
			hs.h[x]++
		}
	}
	hs.set = set[:n]
	for i, k := range keys {
		hs.keys[i] = pos[k]
	}
	hs.ok = true
	return entries
}

// footprintBytes is the histogram's allocated size.
func (hs *histogram) footprintBytes() int64 {
	return 4 * int64(cap(hs.h)+cap(hs.set)+cap(hs.keys))
}

// runUnit enumerates the embeddings of one work unit: the prefix is
// installed (it was validated during decomposition) and the search
// continues from the next matching-order position. Returns false when
// the enumeration should stop globally.
func (s *searcher) runUnit(u workload.Unit) bool {
	// Forget the per-depth cursors: correctness does not require it
	// (cursor keys are compared on every lookup), but resetting at unit
	// boundaries makes the rebuild counts — and so the per-kernel profile —
	// independent of which worker ran which consecutive units.
	for i := range s.scratch {
		s.scratch[i].ResetUnitCache()
	}
	s.hist.ok = false
	for i, p := range u.Pos {
		q := s.tree.order[i]
		v := s.m.ix.Nodes[q].Cands[p]
		s.emb[q], s.pos[q] = v, p
		s.matched[q] = true
		s.used.Set(v)
	}
	ok := s.search(len(u.Pos))
	for _, q := range s.tree.order[:len(u.Pos)] {
		s.matched[q] = false
		s.used.Clear(s.emb[q])
	}
	return ok
}

// search extends the embedding at the given matching-order depth.
// Returns false to stop enumeration (limit reached, consumer stop, or
// context cancellation).
func (s *searcher) search(depth int) bool {
	// The entry check gives depth-step cancellation granularity: once the
	// stop flag is up — limit, consumer, or a context deadline — no new
	// depth is entered, even on a worker's first descent. One relaxed
	// atomic load; nothing allocates.
	if s.ctl.stop.Load() {
		return false
	}
	if depth == s.tree.n {
		// Only a unit whose prefix is already a whole embedding gets here
		// (a single-vertex query, a fully expanded FGD unit): the last
		// depth of every other descent is finished by leaf.
		fits, cont := s.ctl.deliver(s.emb, 1)
		s.delivered(fits)
		return cont
	}
	u := s.tree.order[depth]
	s.recursiveCalls++

	ix, sc := s.m.ix, &s.scratch[depth]
	switch node := &ix.Nodes[u]; {
	case s.m.opts.EdgeVerification:
		return descend(s, depth, u, sc, ix.CandidatesForEdgeVerify(u, s.pos, sc))
	case len(node.NTE) == 0 && node.Narrow():
		return descend(s, depth, u, sc, ix.CandidatesFor16(u, s.pos, sc))
	}
	return descend(s, depth, u, sc, ix.CandidatesFor(u, s.pos, sc))
}

// descend is search past the lookup: cands are u's candidates, positions
// in u's Cands read at the width the lookup returned them in — a narrow
// tree-only vertex's TE list as the arena holds it, so a consumer that
// stops early pays only for the candidates it reached.
func descend[T setops.Position](s *searcher, depth int, u graph.VertexID, sc *ceci.MatchScratch, cands []T) bool {
	// The candidate-list-size distribution is the one per-lookup
	// observation that is not a sum, so it cannot ride the drain.
	s.m.opts.Profile.ObserveEnumOutput(len(cands))
	if len(cands) == 0 {
		return true
	}
	switch {
	case depth == s.tree.n-1:
		return leaf(s, u, cands, sc)
	case s.elim > 0 && depth == s.elim:
		return eliminate(s, cands)
	}
	cons, verify, ids := s.m.consFor(u), s.m.opts.EdgeVerification, s.m.ix.Nodes[u].Cands
	check := s.m.shareFrom[depth] < depth
	for _, p := range cands {
		v := ids[p]
		if check && s.used.Get(v) {
			continue
		}
		if cons != nil && !cons.Allows(u, v, s.emb, s.matched) {
			continue
		}
		if verify && !s.m.ix.VerifyNTE(u, v, s.emb, sc) {
			continue
		}
		s.emb[u], s.pos[u] = v, uint32(p)
		s.matched[u] = true
		s.used.Set(v)
		ok := s.search(depth + 1)
		s.matched[u] = false
		s.used.Clear(v)
		if !ok {
			return false
		}
		// Periodically observe the global stop flag so deep subtrees
		// terminate promptly once a limit is hit elsewhere.
		if s.ctl.stop.Load() {
			return false
		}
	}
	return true
}

// leaf finishes the last matching-order depth in place: every candidate
// of u that passes the checks search makes — injectivity where an earlier
// vertex can share with u, symmetry constraints and, in the ablation, the
// non-tree edges — completes an embedding, so there is nothing to recurse
// into and nothing to mark: no used/matched writes and no stop-flag load
// per embedding (search loaded it on entry and its caller loads it again
// after this returns). A count-only run tallies the survivors and
// delivers them with one reservation — all of cands at once when there is
// nothing to check; otherwise each is handed to the consumer in emb.
// cands are positions in u's Cands, as descend has them.
func leaf[T setops.Position](s *searcher, u graph.VertexID, cands []T, sc *ceci.MatchScratch) bool {
	cons, verify, counting := s.m.consFor(u), s.m.opts.EdgeVerification, s.ctl.fn == nil
	check := s.m.shareFrom[s.tree.n-1] < s.tree.n-1
	if counting && !check && cons == nil && !verify {
		return s.deliverCount(int64(len(cands)))
	}
	ids := s.m.ix.Nodes[u].Cands
	var survivors int64
	for _, p := range cands {
		v := ids[p]
		if check && s.used.Get(v) {
			continue
		}
		if cons != nil && !cons.Allows(u, v, s.emb, s.matched) {
			continue
		}
		if verify && !s.m.ix.VerifyNTE(u, v, s.emb, sc) {
			continue
		}
		if counting {
			survivors++
			continue
		}
		s.emb[u] = v
		fits, cont := s.ctl.deliver(s.emb, 1)
		s.delivered(fits)
		if !cont {
			return false
		}
	}
	return s.deliverCount(survivors)
}

// eliminate finishes a count-only run from z's depth (Matcher.elim)
// without looping over z. With U the prefix's data vertices, O the
// outer side of the last vertex w (ceci.Index.Sides), I(v) w's inner list
// under z = v and h the histogram over Z = zs, the prefix completes
//
//	S = Σ_{x∈O, x∉U} h[x] − Σ_{v∈Z∩U} |{x∈O∩I(v) : x∉U}|
//
// embeddings when z is at n-2 (shape 1): every v of Z outside U with
// every x it shares with O outside U, and x ≠ v since they are adjacent.
// At n-3 (shape 2) the vertex y between them is adjacent to neither,
// so it is keyed by the prefix alone, and with A its candidates outside U
// each (v, x) takes every a of A but v and x:
//
//	|A|·S − Σ_{v∈Z∩A} |{x∈O∩I(v) : x∉U}| − Σ_{x∈O∩A} (h[x] − |{v∈Z∩U : x∈I(v)}|)
//
// A set is met with another only where the sharing rule
// (Matcher.canShare) says their vertices can meet: x∉U is tested only
// when w can share with a prefix vertex, Z∩U is walked only when z can,
// a∉U is tested only when y can, and Z∩A and O∩A are formed only when y
// can share with z and with w. Z∩U is Z walked against the injectivity
// bitmap. Z, A and O are positions in different columns, so Z∩A and O∩A
// merge the ids they stand for; at Z∩A's first member O's members outside
// U are marked in h's top bit, and each I(v) counts its marked members.
// The work — one lookup a prefix, the entries a refill adds and every
// list element walked, and the embeddings counted — is charged to w's
// depth.
func eliminate[Z setops.Position](s *searcher, zs []Z) bool {
	ix, n := s.m.ix, s.tree.n
	var as []uint32
	var na int64
	if s.elim == n-3 {
		y := s.tree.order[n-2]
		as = ix.CandidatesFor(y, s.pos, &s.scratch[n-2])
		s.m.opts.Profile.ObserveEnumOutput(len(as))
		na = int64(len(as))
		if s.m.shareFrom[n-2] < s.elim {
			idsY := ix.Nodes[y].Cands
			for _, p := range as {
				if s.used.Get(idsY[p]) {
					na--
				}
			}
		}
		if na == 0 {
			return true
		}
	}
	w := s.tree.order[n-1]
	inner, outer, outer16 := ix.Sides(w, s.pos, &s.scratch[n-1])
	switch {
	case outer16 != nil:
		return countLast(s, zs, as, na, inner.U16(), outer16)
	case ix.Nodes[w].Narrow():
		return countLast(s, zs, as, na, inner.U16(), outer)
	}
	return countLast(s, zs, as, na, inner.U32(), outer)
}

// mark is the top bit of a histogram entry, where eliminate marks O's
// members outside U for Z∩A: entries count at most |Z| < 2^31.
const mark = 1 << 31

// countLast is eliminate past the lookups, with w's inner lists and outer
// side read at their widths: as and na are y's candidates and how many
// are unused, when z is at n-3.
func countLast[I, O, Z setops.Position](s *searcher, zs []Z, as []uint32, na int64, inner ceci.Lists[I], outer []O) bool {
	m, n, at := s.m, s.tree.n, s.elim
	z, w := s.tree.order[at], s.tree.order[n-1]
	st := &s.scratch[n-1].Steps
	st.Lookups++
	if !s.hist.holds(m.elimKeys, s.pos) {
		st.Comparisons += fill(&s.hist, m.elimKeys, s.pos, zs, inner)
	}
	h, idsZ, idsW := s.hist.h, m.ix.Nodes[z].Cands, m.ix.Nodes[w].Cands
	checkW := m.shareFrom[n-1] < at
	st.Comparisons += int64(len(outer))
	var sum int64
	if checkW {
		for _, x := range outer {
			if !s.used.Get(idsW[x]) {
				sum += int64(h[x])
			}
		}
	} else {
		for _, x := range outer {
			sum += int64(h[x])
		}
	}
	var zu, za, oa int64 // the correction terms
	s.zu = s.zu[:0]
	if m.shareFrom[at] < at {
		st.Comparisons += int64(len(zs))
		for _, v := range zs {
			if s.used.Get(idsZ[v]) {
				s.zu = append(s.zu, uint32(v))
				zu += unused(s, outer, inner.At(uint32(v)), idsW, st)
			}
		}
	} else {
		s.ruledOut[0]++
	}
	count := sum - zu
	if as != nil {
		idsY, checkY := m.ix.Nodes[s.tree.order[n-2]].Cands, m.shareFrom[n-2] < at
		if m.shares(n-2, at) {
			st.Comparisons += int64(len(as) + len(zs))
			marked, i := false, 0
			for _, p := range as {
				a := idsY[p]
				if checkY && s.used.Get(a) {
					continue
				}
				for i < len(zs) && idsZ[zs[i]] < a {
					i++
				}
				if i == len(zs) || idsZ[zs[i]] != a {
					continue
				}
				if !marked {
					st.Comparisons += int64(len(outer))
					for _, x := range outer {
						if !checkW || !s.used.Get(idsW[x]) {
							h[x] |= mark
						}
					}
					marked = true
				}
				list := inner.At(uint32(zs[i]))
				st.Comparisons += int64(len(list))
				for _, x := range list {
					za += int64(h[x] >> 31)
				}
			}
			if marked {
				for _, x := range outer {
					h[x] &^= mark
				}
			}
		} else {
			s.ruledOut[1]++
		}
		if m.shares(n-2, n-1) {
			st.Comparisons += int64(len(as) + len(outer))
			j := 0
			for _, p := range as {
				a := idsY[p]
				if checkY && s.used.Get(a) {
					continue
				}
				for j < len(outer) && idsW[outer[j]] < a {
					j++
				}
				if j < len(outer) && idsW[outer[j]] == a {
					x := outer[j]
					oa += int64(h[x])
					for _, v := range s.zu {
						if _, ok := slices.BinarySearch(inner.At(v), I(x)); ok {
							oa--
						}
					}
				}
			}
		} else {
			s.ruledOut[2]++
		}
		count = na*count - za - oa
	}
	for t, c := range [3]int64{zu, za, oa} {
		if c != 0 {
			s.corrected[t]++
		}
	}
	st.Output += count
	return s.deliverCount(count)
}

// unused returns |{x ∈ a∩b : idsW[x] ∉ U}| for two position lists of w,
// charging st the elements the merge steps past in a and reads in b: it
// stops when a runs out.
func unused[A, B setops.Position](s *searcher, a []A, b []B, idsW []graph.VertexID, st *ceci.StepCounts) (k int64) {
	i, j := 0, 0
	for ; j < len(b) && i < len(a); j++ {
		x := b[j]
		for i < len(a) && uint32(a[i]) < uint32(x) {
			i++
		}
		if i < len(a) && uint32(a[i]) == uint32(x) && !s.used.Get(idsW[x]) {
			k++
		}
	}
	st.Comparisons += int64(i + j)
	return k
}

// deliverCount hands a count-only run's k embeddings found in one step
// to the control with one reservation.
func (s *searcher) deliverCount(k int64) bool {
	if k == 0 {
		return true
	}
	fits, cont := s.ctl.deliver(nil, k)
	s.delivered(fits)
	return cont
}

// delivered counts k embeddings the consumer saw, draining once
// liveDrainEvery have accumulated.
func (s *searcher) delivered(k int64) {
	if s.embeddings += k; s.embeddings >= liveDrainEvery {
		s.drain(false, 0, 0)
	}
}

// drain is the one place enumeration work is stored: it charges what this
// worker counted since its previous drain to the run's ledger — the
// record Profile, Progress and
// QueryResources all read — and to the cumulative Stats counters when
// attached, then zeroes the counters. unit marks a work-unit boundary,
// where the unit's cardinality, wall time and the worker's scratch
// footprint are charged; the per-depth step and kernel counts, which
// nothing reads while a unit runs, stay on the scratch until a drain that
// is not a unit boundary — every liveDrainEvery embeddings and at worker
// exit — so a run of many small units pays two atomic adds per unit for
// them, not two dozen. Allocation-free; never inside the depth step.
func (s *searcher) drain(unit bool, card int64, busy time.Duration) {
	led, st := s.m.opts.Ledger, s.m.opts.Stats
	calls, embeddings := s.recursiveCalls, s.embeddings
	s.recursiveCalls, s.embeddings = 0, 0
	s.ctl.counted.Add(embeddings)
	if st != nil {
		st.RecursiveCalls.Add(calls)
		st.Embeddings.Add(embeddings)
	}
	led.AddWork(calls, embeddings)
	if unit {
		scratchBytes := int64(cap(s.emb))*4 + int64(cap(s.pos))*4 + int64(cap(s.matched)) + int64(len(s.used))*8 +
			s.hist.footprintBytes() + int64(cap(s.zu))*4
		for pos := range s.scratch {
			scratchBytes += s.scratch[pos].FootprintBytes()
		}
		led.AddUnit(s.worker, busy, card, scratchBytes)
		return
	}
	var intersections, verifications int64
	for pos := range s.scratch {
		sc := &s.scratch[pos]
		steps := sc.Steps
		if steps == (ceci.StepCounts{}) {
			continue // no lookup at this depth, hence no kernel work either
		}
		led.AddPosition(pos, steps, &sc.S.Stats)
		sc.Steps, sc.S.Stats = ceci.StepCounts{}, setops.KernelStats{}
		intersections += steps.Intersections
		verifications += steps.Verifications
	}
	if st != nil {
		st.IntersectionOps.Add(intersections)
		st.EdgeVerifications.Add(verifications)
	}
}
