package core

import (
	"fmt"
	"math"

	"repro/internal/parallel"
	"repro/internal/sparse"
)

// ConstructHistogramFast is the paper's "fastmerging" variant (Section 5,
// footnote 3): instead of always pairing, early rounds merge larger groups
// of consecutive intervals, so the number of rounds drops from O(log s) to
// O(log log s) while the total running time stays O(s) — the first round
// still dominates.
//
// Group sizing: with s live intervals and a keep budget K, round group size
// is g = max(2, ⌊√(s/(K+1))⌋) capped so at least K+2 groups exist. Each
// round keeps the K groups with the largest merge errors split (into their
// component intervals) and merges every other group into a single interval,
// giving s' ≈ K·g + s/g ≈ 2√(s·(K+1)) — the live count roughly square-roots
// per round until the pairing regime takes over.
//
// The approximation guarantee is the same as Algorithm 1's: a group is only
// merged when its error is not among the K largest, which is exactly the
// property the proof of Theorem 3.3 (case ii) uses, so the output still
// satisfies error ≤ √(1+δ)·opt_k with at most (2+2/δ)k + γ pieces.
func ConstructHistogramFast(q *sparse.Func, k int, opts Options) (Result, error) {
	if err := opts.validate(); err != nil {
		return Result{}, err
	}
	if k < 1 {
		return Result{}, fmt.Errorf("core: k must be ≥ 1, got %d", k)
	}
	m := newMergeState(q, opts.Workers)
	target := opts.TargetPieces(k)
	keep := opts.KeepBudget(k)
	rounds := 0
	for m.len() > target {
		g := groupSize(m.len(), keep)
		if g <= 2 {
			m.pairRound(keep)
		} else {
			m.groupRound(g, keep)
		}
		rounds++
	}
	return m.finish(q.N(), rounds), nil
}

// groupSize picks the merge-group size for a round with s live intervals and
// keep budget K: ⌊√(s/(K+1))⌋, at least 2, capped so that at least K+2
// groups exist (otherwise no group would be merged and the round could not
// make progress).
func groupSize(s, keep int) int {
	g := int(math.Sqrt(float64(s) / float64(keep+1)))
	if g < 2 {
		return 2
	}
	if maxG := s / (keep + 2); g > maxG {
		g = maxG
	}
	if g < 2 {
		return 2
	}
	return g
}

// groupRound merges consecutive groups of g intervals, keeping the `keep`
// groups with the largest merge errors split into their components. The
// trailing group of fewer than g intervals participates like any other.
//
// Like pairRound it runs as three chunked passes over the groups (errors,
// per-chunk decision counts, offset writes); the per-group statistics are
// accumulated left to right inside each group, so the floats match the
// serial loop exactly for every worker count. Tie handling mirrors
// pairRound: strictly-greater groups always split (at most keep−1 of them);
// ties get only the leftover budget so no round can split every group and
// stall.
func (m *mergeState) groupRound(g, keep int) int {
	s := len(m.nodes)
	numGroups := (s + g - 1) / g
	if keep >= numGroups {
		keep = numGroups - 1
	}
	if keep < 0 {
		keep = 0
	}
	m.g = g

	// Each group touches g intervals, so weigh the worker cutoff by the
	// underlying interval count, not the group count.
	w := m.roundWorkers(s)
	nc := parallel.NumChunks(numGroups, w)
	m.errs = grow(m.errs, numGroups)
	parallel.ForChunks(w, numGroups, nc, m.fnGroupErrs)

	m.cutAndTieBudgets(keep, w, nc)

	// Per-chunk output lengths in parallel, then an O(chunks) serial prefix
	// sum for the offsets — groups' ragged sizes rule out the closed-form
	// sizing pairRound uses, but the decision re-walk still parallelizes.
	parallel.ForChunks(w, numGroups, nc, m.fnGroupLen)
	total := 0
	for ci := 0; ci < nc; ci++ {
		m.chunkOff[ci] = total
		total += m.chunkOutLen[ci]
	}
	m.next = grow(m.next, total)

	parallel.ForChunks(w, numGroups, nc, m.fnGroupWrite)
	m.nodes, m.next = m.next[:total], m.nodes
	return len(m.nodes)
}

// groupBounds returns the interval index range of group u under the current
// group size m.g.
func (m *mergeState) groupBounds(u int) (int, int) {
	lo := u * m.g
	hi := lo + m.g
	if hi > len(m.nodes) {
		hi = len(m.nodes)
	}
	return lo, hi
}

// mergeGroup returns the node of group u merged whole, its sums added left
// to right.
func (m *mergeState) mergeGroup(u int) sparse.Node {
	lo, hi := m.groupBounds(u)
	nd := m.nodes[lo]
	for _, next := range m.nodes[lo+1 : hi] {
		nd = nd.Merge(next)
	}
	return nd
}

// initGroupPasses binds the groupRound chunk passes (see initPasses).
func (m *mergeState) initGroupPasses() {
	m.fnGroupErrs = func(_, ulo, uhi int) {
		prev := m.hiBefore(ulo * m.g)
		for u := ulo; u < uhi; u++ {
			nd := m.mergeGroup(u)
			m.errs[u] = nd.Stat(prev).SSE()
			prev = nd.Hi
		}
	}
	// Output sizing: a split group emits its hi−lo component intervals, a
	// merged group emits 1. Singleton groups always pass through — whether
	// or not they hold tie budget — exactly as the serial loop decided.
	// Each chunk's length depends only on its own tie budget, so the pass
	// runs in parallel; the offsets follow from a serial prefix sum.
	m.fnGroupLen = func(ci, ulo, uhi int) {
		tieLeft := m.chunkTieUse[ci]
		out := 0
		for u := ulo; u < uhi; u++ {
			lo, hi := m.groupBounds(u)
			e := m.errs[u]
			tie := e == m.cut && tieLeft > 0
			if e > m.cut || tie || hi-lo == 1 {
				if tie {
					tieLeft--
				}
				out += hi - lo
			} else {
				out++
			}
		}
		m.chunkOutLen[ci] = out
	}
	m.fnGroupWrite = func(ci, ulo, uhi int) {
		o := m.chunkOff[ci]
		tieLeft := m.chunkTieUse[ci]
		for u := ulo; u < uhi; u++ {
			lo, hi := m.groupBounds(u)
			e := m.errs[u]
			tie := e == m.cut && tieLeft > 0
			if e > m.cut || tie || hi-lo == 1 {
				if tie {
					tieLeft--
				}
				o += copy(m.next[o:], m.nodes[lo:hi])
			} else {
				m.next[o] = m.mergeGroup(u)
				o++
			}
		}
	}
}
