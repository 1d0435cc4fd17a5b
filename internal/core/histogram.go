// Package core implements the paper's primary contribution: the iterative
// greedy merging algorithms for near-optimal histogram approximation in
// input-sparsity time.
//
//   - ConstructHistogram is Algorithm 1 (Section 3.2): pair-merging with a
//     (1+1/δ)k "keep split" budget per round, achieving ≤ (2+2/δ)k+γ pieces
//     and error ≤ √(1+δ)·opt_k in O(s + k(1+1/δ)·log((1+1/δ)k/γ)) time
//     (Theorems 3.3, 3.4).
//   - ConstructHistogramFast is the footnote's "fastmerging" variant: it
//     merges larger groups in early rounds (group size ≈ √(s/k)), finishing
//     in O(log log) rounds with the same O(s) total time.
//   - ConstructHierarchicalHistogram is Algorithm 2 (Section 3.4): one O(s)
//     pass that produces a hierarchy of partitions such that for every k
//     some level has ≤ 8k pieces and error ≤ 2·opt_k (Theorem 3.5).
package core

import (
	"fmt"
	"math"
	"strings"
	"sync/atomic"

	"repro/internal/interval"
	"repro/internal/sparse"
)

// Piece is one interval of a histogram together with its constant value.
type Piece struct {
	interval.Interval
	Value float64
}

// Histogram is a piecewise constant function over [1, n]: the pieces
// partition [1, n] and the function takes Value on each piece. A histogram
// is immutable once constructed, which is what makes the lazily built query
// index below safe to share across concurrent readers.
type Histogram struct {
	n      int
	pieces []Piece
	// idx is the read-optimized query index (see index.go), built on the
	// first query and shared by all subsequent ones. Always access through
	// the index method.
	idx atomic.Pointer[queryIndex]
}

// NewHistogram builds a histogram from a partition of [1, n] and the
// corresponding piece values. It panics on malformed input; construction
// happens on validated internal paths.
func NewHistogram(n int, p interval.Partition, values []float64) *Histogram {
	if err := p.Validate(n); err != nil {
		panic(fmt.Sprintf("core: invalid partition: %v", err))
	}
	if len(values) != len(p) {
		panic("core: values/partition length mismatch")
	}
	pieces := make([]Piece, len(p))
	for i, iv := range p {
		pieces[i] = Piece{Interval: iv, Value: values[i]}
	}
	return &Histogram{n: n, pieces: pieces}
}

// FlattenHistogram builds the flattening q̄_I of q over partition p
// (Definition 3.1): the histogram whose value on each piece is the mean of q
// there — the ℓ2-optimal histogram on that partition.
func FlattenHistogram(q *sparse.Func, p interval.Partition) *Histogram {
	stats := q.StatsFor(p)
	values := make([]float64, len(p))
	for i, st := range stats {
		values[i] = st.Mean()
	}
	return NewHistogram(q.N(), p, values)
}

// N returns the domain size.
func (h *Histogram) N() int { return h.n }

// NumPieces returns the number of interval pieces.
func (h *Histogram) NumPieces() int { return len(h.pieces) }

// Pieces returns the pieces in domain order. Callers must not modify the
// returned slice.
func (h *Histogram) Pieces() []Piece { return h.pieces }

// Partition returns the interval partition underlying the histogram.
func (h *Histogram) Partition() interval.Partition {
	p := make(interval.Partition, len(h.pieces))
	for i, pc := range h.pieces {
		p[i] = pc.Interval
	}
	return p
}

// At returns h(i) for i ∈ [1, n] in O(log pieces) with zero allocations at
// steady state: the point location runs on the query index's Eytzinger
// boundary layout (one closure-free comparison per tree level) instead of a
// sort.Search over the pieces. For slices of points use AtBatch.
func (h *Histogram) At(i int) float64 {
	if i < 1 || i > h.n {
		panic(fmt.Sprintf("core: Histogram.At(%d) out of [1, %d]", i, h.n))
	}
	idx := h.index()
	return idx.values[idx.find(i)]
}

// ToDense materializes the histogram as a dense vector of length n.
func (h *Histogram) ToDense() []float64 {
	out := make([]float64, h.n)
	for _, pc := range h.pieces {
		for x := pc.Lo; x <= pc.Hi; x++ {
			out[x-1] = pc.Value
		}
	}
	return out
}

// Mass returns Σᵢ h(i) = Σ pieces |I|·v. For a histogram learned from a
// distribution this is 1 (flattening preserves mass).
func (h *Histogram) Mass() float64 {
	var m float64
	for _, pc := range h.pieces {
		m += float64(pc.Len()) * pc.Value
	}
	return m
}

// L2DistToDense returns ‖h − q‖₂ against a dense vector without
// materializing h, in O(n) time and O(1) extra space.
func (h *Histogram) L2DistToDense(q []float64) float64 {
	if len(q) != h.n {
		panic("core: L2DistToDense length mismatch")
	}
	var sum float64
	for _, pc := range h.pieces {
		for x := pc.Lo; x <= pc.Hi; x++ {
			d := q[x-1] - pc.Value
			sum += d * d
		}
	}
	return math.Sqrt(sum)
}

// L2DistToSparse returns ‖h − q‖₂ for a sparse q in O(s + pieces) time: for
// every piece, the squared distance is (|I| − s_I)·v² + Σ_{nonzeros in I}
// (q(i) − v)² where s_I is the number of nonzeros inside the piece.
func (h *Histogram) L2DistToSparse(q *sparse.Func) float64 {
	if q.N() != h.n {
		panic("core: L2DistToSparse domain mismatch")
	}
	entries := q.Entries()
	ei := 0
	var sum float64
	for _, pc := range h.pieces {
		inPiece := 0
		for ei < len(entries) && entries[ei].Index <= pc.Hi {
			d := entries[ei].Value - pc.Value
			sum += d * d
			inPiece++
			ei++
		}
		zeros := pc.Len() - inPiece
		sum += float64(zeros) * pc.Value * pc.Value
	}
	return math.Sqrt(sum)
}

// String renders a short description like "Histogram{n=100, 5 pieces}".
func (h *Histogram) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Histogram{n=%d, %d pieces}", h.n, len(h.pieces))
	return b.String()
}
