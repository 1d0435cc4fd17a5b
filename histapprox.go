// Package histapprox is a Go implementation of "Fast and Near-Optimal
// Algorithms for Approximating Distributions by Histograms" (Acharya,
// Diakonikolas, Hegde, Li, Schmidt — PODS 2015).
//
// The library answers two closely related questions:
//
//  1. Offline approximation: given a (possibly sparse) data vector q over
//     the universe [n], find a histogram with O(k) pieces whose ℓ2 distance
//     from q is within a small constant factor of the best k-piece
//     histogram — in time linear in the number of nonzeros, independent of
//     n and k (Fit, FitFast, FitMultiscale, FitPolynomial).
//
//  2. Distribution learning: given i.i.d. samples from an unknown
//     distribution p over [n], learn an O(k)-histogram h with
//     ‖h − p‖₂ ≤ 2·opt_k + ε from the information-theoretically minimal
//     O(1/ε²) samples, in time linear in the sample count (Learn,
//     LearnMultiscale, LearnPolynomial, SampleSize).
//
// Exact and approximate baselines from prior work (FitExact, FitDual,
// FitGKS) are included for comparison, along with a database-synopsis layer
// for range-count/selectivity estimation (NewSelectivityEstimator).
//
// Quick start:
//
//	data := ... // []float64 over [1, n]
//	h, l2err, err := histapprox.Fit(data, 10, nil)    // ≈ 21-piece histogram
//	v := h.At(42)                                     // O(log k) point query
//	s := h.RangeSum(100, 200)                         // O(log k) range sum
//	vs := h.AtBatch(points, nil, 0)                   // bulk serving, all cores
//
// Histograms are built once and then served read-only: every query runs on
// an immutable index (flat boundary array, prefix masses, Eytzinger search
// layout) built lazily on the first query and safe for any number of
// concurrent readers. See the examples/ directory for runnable end-to-end
// programs and EXPERIMENTS.md for the reproduction of the paper's tables
// and figures plus the query-throughput methodology.
package histapprox

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/learn"
	"repro/internal/piecewise"
	"repro/internal/rng"
	"repro/internal/sparse"
)

// Histogram is a piecewise constant function over [1, n]. Obtain one from
// Fit, Learn, or the baselines; evaluate with At (point, O(log k)), RangeSum
// (range, O(log k)), or the batched AtBatch/RangeSumBatch serving paths;
// materialize with ToDense, inspect pieces with Pieces. All queries are
// safe for concurrent readers.
type Histogram = core.Histogram

// Piece is one interval of a Histogram with its constant value.
type Piece = core.Piece

// Hierarchy is a multi-scale histogram: a single O(s) construction that, for
// every k, yields an ≤ 8k-piece histogram with error ≤ 2·opt_k via ForK
// (Theorem 2.2 of the paper).
type Hierarchy = core.Hierarchy

// PiecewisePoly is a piecewise degree-d polynomial function over [1, n]
// (Theorem 2.3 of the paper).
type PiecewisePoly = piecewise.PiecewiseFunc

// Options are the trade-off parameters of the merging algorithm. Delta (δ)
// trades approximation ratio √(1+δ) against the piece bound (2+2/δ)k+γ;
// Gamma (γ) trades running time against pieces. Workers sets how many
// goroutines the merging rounds and the sample bucketing use: 0 (the
// default) or any negative value means all cores, 1 forces the serial
// path, any other positive value is used as given — the same convention as
// every worker-taking function here. The parallel path is bit-identical to the serial
// one for every worker count — Workers only changes wall-clock time, never
// the output (see EXPERIMENTS.md for measurements). The zero value of
// Options is invalid; use DefaultOptions or PaperOptions, or pass nil to
// the top-level functions to get DefaultOptions.
type Options = core.Options

// DefaultOptions returns δ = 1, γ = 1: at most 4k+1 pieces, error at most
// √2·opt_k.
func DefaultOptions() Options { return core.DefaultOptions() }

// PaperOptions returns the parameters of the paper's experiments: δ = 1000,
// γ = 1, producing 2k+1 pieces.
func PaperOptions() Options { return core.PaperOptions() }

func resolveOpts(opts *Options) Options {
	if opts == nil {
		return core.DefaultOptions()
	}
	return *opts
}

// checkFinite rejects NaN/Inf inputs up front: the merging statistics would
// otherwise propagate them into every interval silently.
func checkFinite(data []float64) error {
	for i, v := range data {
		if !isFinite(v) {
			return fmt.Errorf("histapprox: data[%d] = %v is not finite", i, v)
		}
	}
	return nil
}

func isFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// Fit approximates the dense vector data (data[0] is the value at point 1)
// with a histogram of at most (2+2/δ)k+γ pieces and ℓ2 error at most
// √(1+δ)·opt_k, in time O(len(data)). It returns the histogram and its
// exact ℓ2 error. Pass nil opts for DefaultOptions.
func Fit(data []float64, k int, opts *Options) (*Histogram, float64, error) {
	if len(data) == 0 {
		return nil, 0, errors.New("histapprox: empty data")
	}
	if err := checkFinite(data); err != nil {
		return nil, 0, err
	}
	res, err := core.ConstructHistogram(sparse.FromDense(data), k, resolveOpts(opts))
	if err != nil {
		return nil, 0, err
	}
	return res.Histogram, res.Error, nil
}

// FitSparse is Fit for sparse inputs: entries maps 1-based indices in [1, n]
// to nonzero values; all other points are zero. The running time is linear
// in len(entries), independent of n — the input-sparsity guarantee that
// makes the learning pipeline sample-linear.
func FitSparse(n int, entries map[int]float64, k int, opts *Options) (*Histogram, float64, error) {
	es := make([]sparse.Entry, 0, len(entries))
	for i, v := range entries {
		es = append(es, sparse.Entry{Index: i, Value: v})
	}
	sf, err := sparse.New(n, es)
	if err != nil {
		return nil, 0, fmt.Errorf("histapprox: %w", err)
	}
	for _, e := range sf.Entries() { // sorted: the lowest bad index is named
		if !isFinite(e.Value) {
			return nil, 0, fmt.Errorf("histapprox: entries[%d] = %v is not finite", e.Index, e.Value)
		}
	}
	res, err := core.ConstructHistogram(sf, k, resolveOpts(opts))
	if err != nil {
		return nil, 0, err
	}
	return res.Histogram, res.Error, nil
}

// FitFast is Fit using the "fastmerging" variant, which merges larger groups
// of intervals in early rounds: same guarantees, O(log log) merging rounds
// instead of O(log), and measurably faster in practice (Table 1).
func FitFast(data []float64, k int, opts *Options) (*Histogram, float64, error) {
	if len(data) == 0 {
		return nil, 0, errors.New("histapprox: empty data")
	}
	if err := checkFinite(data); err != nil {
		return nil, 0, err
	}
	res, err := core.ConstructHistogramFast(sparse.FromDense(data), k, resolveOpts(opts))
	if err != nil {
		return nil, 0, err
	}
	return res.Histogram, res.Error, nil
}

// FitMultiscale builds the multi-scale hierarchy in one O(len(data)) pass.
// hierarchy.ForK(k) then returns, for any k, an ≤ 8k-piece histogram with
// error ≤ 2·opt_k together with its exact error — the whole k-vs-accuracy
// Pareto curve from a single run.
func FitMultiscale(data []float64) (*Hierarchy, error) {
	return FitMultiscaleWorkers(data, 0)
}

// FitMultiscaleWorkers is FitMultiscale with an explicit worker count:
// 0 means all cores, 1 forces the serial path. The hierarchy is
// bit-identical for every worker count.
func FitMultiscaleWorkers(data []float64, workers int) (*Hierarchy, error) {
	if len(data) == 0 {
		return nil, errors.New("histapprox: empty data")
	}
	if err := checkFinite(data); err != nil {
		return nil, err
	}
	return core.ConstructHierarchicalHistogramWorkers(sparse.FromDense(data), workers), nil
}

// FitPolynomial approximates data with a piecewise degree-d polynomial of at
// most (2+2/δ)k+γ pieces and error at most √(1+δ)·opt_{k,d}, using the
// discrete-Chebyshev projection oracle (Theorem 2.3 / Corollary 4.1).
func FitPolynomial(data []float64, k, d int, opts *Options) (*PiecewisePoly, float64, error) {
	if len(data) == 0 {
		return nil, 0, errors.New("histapprox: empty data")
	}
	if err := checkFinite(data); err != nil {
		return nil, 0, err
	}
	res, err := piecewise.FitPiecewisePoly(sparse.FromDense(data), k, d, resolveOpts(opts))
	if err != nil {
		return nil, 0, err
	}
	return res.Func, res.Error, nil
}

// FitExact computes the optimal V-optimal k-histogram by the O(n²k) dynamic
// program of Jagadish et al. [JKM+98]. Use it as an accuracy baseline; it is
// orders of magnitude slower than Fit (see EXPERIMENTS.md, Table 1).
func FitExact(data []float64, k int) (*Histogram, float64, error) {
	return baseline.ExactDP(data, k)
}

// FitDual runs the linear-time dual greedy algorithm of [JKM+98] with a
// binary search over the error budget: at most k pieces, error typically
// 1.5–2× optimal.
func FitDual(data []float64, k int) (*Histogram, float64, error) {
	return baseline.Dual(data, k)
}

// FitGKS computes a (1+delta)-approximate V-optimal k-histogram (squared
// error within (1+delta) of optimal) with a sparse dynamic program in the
// style of Guha, Koudas, and Shim [GKS06].
func FitGKS(data []float64, k int, delta float64) (*Histogram, float64, error) {
	return baseline.GKSApprox(data, k, delta)
}

// SampleSize returns the number of i.i.d. samples sufficient to learn any
// distribution over any universe to ℓ2 distance eps with probability
// 1−delta: m = O(eps⁻²·log(1/delta)), independent of the universe size
// (Theorem 3.1; matching lower bound in Theorem 3.2).
func SampleSize(eps, delta float64) (int, error) { return learn.SampleSize(eps, delta) }

// LearnReport carries provenance of a learned hypothesis: sample size,
// support, the observable empirical error, pieces, and merging rounds.
type LearnReport = learn.Report

// Learn builds an O(k)-histogram hypothesis from i.i.d. samples (1-based
// points in [1, n]) of an unknown distribution: pieces ≤ (2+2/δ)k+γ and
// ‖h − p‖₂ ≤ √(1+δ)·opt_k + O(ε) when len(samples) ≥ SampleSize(ε, ·)
// (Theorem 2.1). The hypothesis has total mass 1 by construction.
func Learn(n int, samples []int, k int, opts *Options) (*Histogram, LearnReport, error) {
	return learn.HistogramFromSamples(n, samples, k, resolveOpts(opts))
}

// LearnMultiscale builds the Theorem 2.2 hierarchy from samples: for every
// k, ForK(k) gives ≤ 8k pieces, error ≤ 2·opt_k + ε, and an error estimate
// within ±ε of the truth.
func LearnMultiscale(n int, samples []int) (*Hierarchy, LearnReport, error) {
	return learn.MultiscaleFromSamples(n, samples)
}

// LearnPolynomial learns a piecewise degree-d polynomial hypothesis from
// samples (Theorem 2.3).
func LearnPolynomial(n int, samples []int, k, d int, opts *Options) (*PiecewisePoly, LearnReport, error) {
	return learn.PiecewisePolyFromSamples(n, samples, k, d, resolveOpts(opts))
}

// Distribution is a probability distribution over [1, n].
type Distribution = dist.Dist

// NewDistribution validates masses (non-negative, summing to 1) and wraps
// them as a Distribution.
func NewDistribution(masses []float64) (Distribution, error) { return dist.New(masses) }

// DistributionFromWeights normalizes non-negative weights into a
// Distribution (negatives are clamped to zero).
func DistributionFromWeights(weights []float64) (Distribution, error) {
	return dist.FromWeights(weights)
}

// Draw returns m i.i.d. samples (1-based) from d using an O(1)-per-draw
// alias sampler seeded deterministically by seed.
func Draw(d Distribution, m int, seed uint64) []int {
	return dist.Draw(d, m, rng.New(seed))
}

// DrawWorkers draws m samples on `workers` goroutines (≤ 0 = all cores):
// the batch is split into fixed chunks, each filled from its own generator
// derived from seed. Deterministic for a fixed (seed, workers) pair with
// workers ≥ 1, but a different — equally i.i.d. — stream than Draw; use it
// for throughput when generating large sample batches. Note workers ≤ 0
// resolves to the machine's core count, so the stream then varies across
// machines — pass an explicit positive count for cross-machine
// reproducibility.
func DrawWorkers(d Distribution, m int, seed uint64, workers int) []int {
	return dist.DrawWorkers(d, m, rng.New(seed), workers)
}
