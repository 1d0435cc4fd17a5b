package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"

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
//
// The levels are nested: a round merges adjacent pairs only, so every
// level's right endpoints are a subset of the level above it. The hierarchy
// therefore stores I₀'s right endpoints once, plus one byte per endpoint
// (the first level without it), and builds a level's partition only when
// one is asked for.
type Hierarchy struct {
	q *sparse.Func
	// ends are I₀'s right endpoints. ends[i] ends a piece of level li
	// exactly when death[i] > li; an endpoint of the final level holds
	// alive.
	ends  []int
	death []uint8
	// pieces and errs hold each level's piece count and flattening error.
	pieces []int
	errs   []float64
}

// alive is the death byte of an endpoint that every level keeps.
const alive = math.MaxUint8

// maxLevels is the most levels a death byte can tell apart: level indices
// stay below alive. Algorithm 2 needs far fewer: a round over s ≥ 8
// intervals merges at least ⌊s/2⌋ − ⌊s/4⌋ pairs, so even an I₀ of 2^62
// intervals is done after 142 rounds (TestHierarchyRoundsFitDeathByte).
const maxLevels = alive

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
	e, ends := levelOf(m.nodes, nil)
	h, pos := newHierarchy(q, ends)
	h.addLevel(len(ends), e)
	var his []int // each later level's right endpoints, in one reused buffer
	for m.len() >= 8 {
		m.pairRound(m.len() / 4)
		e, his = levelOf(m.nodes, his)
		var ok bool
		if pos, ok = h.fold(uint8(len(h.pieces)), pos, his); !ok {
			panic("core: a merging round made a level not nested in the one above it")
		}
		h.addLevel(len(his), e)
	}
	return h
}

// levelOf returns the flattening error of the level nodes, summed in
// index order as flatten sums it, and their right endpoints, written into
// his, which is reallocated only when too short.
func levelOf(nodes []sparse.Node, his []int) (float64, []int) {
	his = grow(his, len(nodes))
	var sse float64
	prevHi := 0
	for i, nd := range nodes {
		sse += nd.Stat(prevHi).SSE()
		prevHi = nd.Hi
		his[i] = nd.Hi
	}
	return math.Sqrt(sse), his
}

// newHierarchy starts a hierarchy over q whose I₀ has right endpoints ends,
// all alive, and returns the I₀ position of each of them, which fold
// compacts level by level.
func newHierarchy(q *sparse.Func, ends []int) (*Hierarchy, []int) {
	h := &Hierarchy{q: q, ends: ends, death: make([]uint8, len(ends))}
	pos := make([]int, len(ends))
	for i := range pos {
		h.death[i], pos[i] = alive, i
	}
	return h, pos
}

// addLevel records the next level's piece count and flattening error.
func (h *Hierarchy) addLevel(pieces int, err float64) {
	h.pieces = append(h.pieces, pieces)
	h.errs = append(h.errs, err)
}

// fold records level li, whose right endpoints are vals, in the death
// bytes: an endpoint of the level above, whose I₀ positions are pos, dies
// at li when vals lacks it. It compacts pos in place to level li's
// positions and returns them, with whether vals is a subset of the level
// above that keeps its last endpoint, n. Construction and decode both
// record a level through fold; only decode can fail it.
//
// About half the endpoints die, so the walk selects rather than branches:
// every endpoint is written at the next free slot, which advances only
// past a kept one. A value of vals that the level above lacks is never
// matched, so j falls short of len(vals); past the last value, the walk
// compares with the last one again and matches nothing.
func (h *Hierarchy) fold(li uint8, pos, vals []int) ([]int, bool) {
	if len(vals) == 0 {
		return nil, false
	}
	ends := h.ends
	death := h.death[:len(ends)]
	last, j := len(vals)-1, 0
	for _, p := range pos {
		kept := 0
		if vals[min(j, last)] == ends[p] {
			kept = 1
		}
		death[p] = li | uint8(-kept) // li, or alive when kept
		pos[j] = p
		j += kept
	}
	return pos[:j], j == len(vals) && death[len(death)-1] == alive
}

// eachLevel calls f with every level's right endpoints, finest first, in a
// buffer f must not keep. It filters one copy of I₀'s endpoints down level
// by level, so a walk over every level costs O(total pieces).
func (h *Hierarchy) eachLevel(f func(li int, ends []int)) {
	ends, death := slices.Clone(h.ends), slices.Clone(h.death)
	for li := range h.pieces {
		if li > 0 {
			j := 0
			for i, d := range death {
				ends[j], death[j] = ends[i], d
				if int(d) > li {
					j++
				}
			}
			ends, death = ends[:j], death[:j]
		}
		f(li, ends)
	}
}

// partition builds level li's partition from the endpoints alive at it:
// those whose death byte is above li. Below level 128 it reads the death
// bytes a word of eight at a time and skips a word with no live byte
// whole, so a coarse level costs |I₀|/8 word reads plus its own pieces. A
// byte below 128 exceeds li < 128 exactly when its low seven bits plus
// 127 − li reach its high bit, which no carry from a lower byte can touch,
// and a byte of 128 or more always does; the lowest set high bit is the
// first live endpoint of the word. Level 128 on, which Algorithm 2 never
// reaches, reads byte by byte.
//
// The scan records each live endpoint's I₀ position in its piece, and a
// second pass reads ends only at those positions, loads that do not wait
// on one another.
func (h *Hierarchy) partition(li int) interval.Partition {
	death := h.death
	p := make(interval.Partition, h.pieces[li])
	j, i := 0, 0
	if li < 128 {
		add := uint64(127-li) * 0x0101010101010101
		for {
			var m uint64
			if i, m = nextLive(death, i, add); m == 0 {
				break
			}
			for ; m != 0; m &= m - 1 {
				p[j].Hi = i + bits.TrailingZeros64(m)>>3
				j++
			}
			i += 8
		}
	}
	for ; i < len(death); i++ {
		if int(death[i]) > li {
			p[j].Hi = i
			j++
		}
	}
	lo := 1
	for j := range p {
		hi := h.ends[p[j].Hi]
		p[j] = interval.Interval{Lo: lo, Hi: hi}
		lo = hi + 1
	}
	return p
}

// nextLive returns the first word of eight death bytes from death[i:]
// with a live one, and the high bit of each live byte in it; past the last
// whole word it returns where the tail starts and 0. add is
// (127 − li)·0x0101010101010101, li < 128.
func nextLive(death []byte, i int, add uint64) (int, uint64) {
	const low7, high = 0x7f7f7f7f7f7f7f7f, 0x8080808080808080
	for ; i+8 <= len(death); i += 8 {
		w := binary.LittleEndian.Uint64(death[i:])
		if m := ((w & low7) + add | w) & high; m != 0 {
			return i, m
		}
	}
	return i, 0
}

// Levels builds every level, finest (I₀, error 0) first. Each call costs
// O(total pieces) time and memory, since the hierarchy keeps I₀ and the
// death rounds rather than the partitions; ForK builds only the level it
// serves, and LevelFor, ErrorEstimate, ParetoCurve and NumLevels build none.
func (h *Hierarchy) Levels() []Level {
	levels := make([]Level, len(h.pieces))
	h.eachLevel(func(li int, ends []int) {
		p := make(interval.Partition, len(ends))
		lo := 1
		for i, hi := range ends {
			p[i] = interval.Interval{Lo: lo, Hi: hi}
			lo = hi + 1
		}
		levels[li] = Level{Partition: p, Error: h.errs[li]}
	})
	return levels
}

// NumLevels returns the number of recorded levels.
func (h *Hierarchy) NumLevels() int { return len(h.pieces) }

// LevelFor returns the index of the level ForK(k) serves — the first with
// at most 8k pieces (the final level, with at most 7 pieces, always
// qualifies) — from the stored piece counts, without building a partition.
// It returns an error if k < 1. The test is written ⌈pieces/8⌉ ≤ k because
// 8k overflows int for k ≥ 2^60.
func (h *Hierarchy) LevelFor(k int) (int, error) {
	if k < 1 {
		return 0, fmt.Errorf("core: k must be ≥ 1, got %d", k)
	}
	for li, pieces := range h.pieces {
		if (pieces+7)/8 <= k {
			return li, nil
		}
	}
	// Unreachable: the final level always has at most 7 pieces ≤ 8k.
	return len(h.pieces) - 1, nil
}

// ForK returns the result for a target piece count k: the first level whose
// partition has at most 8k pieces, flattened into a histogram. By
// Theorem 3.5 its error is at most 2·opt_k. It returns an error if k < 1.
// Building the level reads the death bytes a word of eight at a time and
// I₀'s endpoints only where the level keeps them; flattening reads every
// input entry.
func (h *Hierarchy) ForK(k int) (Result, error) {
	li, err := h.LevelFor(k)
	if err != nil {
		return Result{}, err
	}
	p := h.partition(li)
	return Result{
		Partition: p,
		Histogram: FlattenHistogram(h.q, p),
		Error:     h.errs[li],
		Rounds:    li,
	}, nil
}

// ErrorEstimate returns the error estimate e_t for target piece count k —
// the exact flattening error at the level ForK(k) would select, read off
// the level record without flattening.
func (h *Hierarchy) ErrorEstimate(k int) (float64, error) {
	li, err := h.LevelFor(k)
	if err != nil {
		return 0, err
	}
	return h.errs[li], nil
}

// ParetoCurve returns, for every k in ks, the pair (pieces, error) of the
// level serving k. It is the paper's "entire Pareto curve between k and
// opt_k" read off a single O(s) run. Both values are recorded on the level,
// so the curve is read without flattening a histogram per k.
func (h *Hierarchy) ParetoCurve(ks []int) ([]int, []float64, error) {
	pieces := make([]int, len(ks))
	errs := make([]float64, len(ks))
	for i, k := range ks {
		li, err := h.LevelFor(k)
		if err != nil {
			return nil, nil, err
		}
		pieces[i] = h.pieces[li]
		errs[i] = h.errs[li]
	}
	return pieces, errs, nil
}
