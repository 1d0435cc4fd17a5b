package core

import (
	"fmt"
	"math"

	"repro/internal/interval"
	"repro/internal/sparse"
)

// Level is one layer of the multi-scale hierarchy: a partition of [1, n]
// together with the exact flattening error of the input over it.
type Level struct {
	// Partition is the set of intervals I_j at this level.
	Partition interval.Partition
	// Error is ‖q̄_{I_j} − q‖₂, the exact ℓ2 error of flattening the input
	// over this level. In the learning setting this is the error estimate
	// e_t of Theorem 2.2 (within ±ε of the true distance to p).
	Error float64
}

// Hierarchy is the output of Algorithm 2: the sequence of partitions
// I_0, I_1, …, I_L with geometrically decreasing sizes. For every k there is
// a level with at most 8k pieces whose error is at most 2·opt_k
// (Theorem 3.5).
type Hierarchy struct {
	q      *sparse.Func
	levels []Level
}

// ConstructHierarchicalHistogram is Algorithm 2 (Section 3.4): starting from
// the exact initial partition I₀, each round pairs consecutive intervals,
// keeps the s/4 pairs with the largest merge errors split, and merges the
// remaining s/4 pairs, reducing the live count to ≈ 3s/4, until fewer than 8
// intervals remain. One run costs O(s) total and serves every k at once.
// It runs on all cores; use ConstructHierarchicalHistogramWorkers to pin the
// worker count.
func ConstructHierarchicalHistogram(q *sparse.Func) *Hierarchy {
	return ConstructHierarchicalHistogramWorkers(q, 0)
}

// ConstructHierarchicalHistogramWorkers is Algorithm 2 with an explicit
// worker count (0 = all cores, 1 = serial). The recorded levels are
// bit-identical for every worker count: the pair rounds use fixed chunk
// boundaries and the per-level error sums run serially in index order.
func ConstructHierarchicalHistogramWorkers(q *sparse.Func, workers int) *Hierarchy {
	m := newMergeState(q, workers)
	h := &Hierarchy{q: q}
	h.record(m)
	for m.len() >= 8 {
		keep := m.len() / 4
		m.pairRound(keep)
		h.record(m)
	}
	return h
}

func (h *Hierarchy) record(m *mergeState) {
	p := make(interval.Partition, len(m.nodes))
	sse := flatten(m.nodes, p, nil)
	h.levels = append(h.levels, Level{Partition: p, Error: math.Sqrt(sse)})
}

// Levels returns the recorded levels, finest (I₀, error 0) first.
func (h *Hierarchy) Levels() []Level { return h.levels }

// NumLevels returns the number of recorded levels.
func (h *Hierarchy) NumLevels() int { return len(h.levels) }

// levelFor returns the index of the level ForK(k) serves — the first whose
// partition has at most 8k pieces (the final level, with at most 7 pieces,
// always qualifies). It returns an error if k < 1. The test is written
// ⌈pieces/8⌉ ≤ k because 8k overflows int for k ≥ 2^60.
func (h *Hierarchy) levelFor(k int) (int, error) {
	if k < 1 {
		return 0, fmt.Errorf("core: k must be ≥ 1, got %d", k)
	}
	for li, lv := range h.levels {
		if (len(lv.Partition)+7)/8 <= k {
			return li, nil
		}
	}
	// Unreachable: the final level always has at most 7 pieces ≤ 8k.
	return len(h.levels) - 1, nil
}

// ForK returns the result for a target piece count k: the first level whose
// partition has at most 8k pieces, flattened into a histogram. By
// Theorem 3.5 its error is at most 2·opt_k. It returns an error if k < 1.
func (h *Hierarchy) ForK(k int) (Result, error) {
	li, err := h.levelFor(k)
	if err != nil {
		return Result{}, err
	}
	lv := h.levels[li]
	return Result{
		Partition: lv.Partition,
		Histogram: FlattenHistogram(h.q, lv.Partition),
		Error:     lv.Error,
		Rounds:    li,
	}, nil
}

// ErrorEstimate returns the error estimate e_t for target piece count k —
// the exact flattening error at the level ForK(k) would select, read off
// the level record without flattening.
func (h *Hierarchy) ErrorEstimate(k int) (float64, error) {
	li, err := h.levelFor(k)
	if err != nil {
		return 0, err
	}
	return h.levels[li].Error, nil
}

// ParetoCurve returns, for every k in ks, the pair (pieces, error) of the
// level serving k. It is the paper's "entire Pareto curve between k and
// opt_k" read off a single O(s) run. Both values are recorded on the level,
// so the curve is read without flattening a histogram per k.
func (h *Hierarchy) ParetoCurve(ks []int) ([]int, []float64, error) {
	pieces := make([]int, len(ks))
	errs := make([]float64, len(ks))
	for i, k := range ks {
		li, err := h.levelFor(k)
		if err != nil {
			return nil, nil, err
		}
		pieces[i] = len(h.levels[li].Partition)
		errs[i] = h.levels[li].Error
	}
	return pieces, errs, nil
}
