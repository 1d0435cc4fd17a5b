// Package synopsis applies the histogram algorithms to the database task
// that motivates them (Section 1): compact synopses of a column's value
// distribution for range-count / selectivity estimation.
//
// A synopsis is built once from the column's frequency vector and then
// answers "how many rows have value in [a, b]?" in O(log pieces) time from
// O(k) numbers — point-located on the histogram's query index (two binary
// searches plus O(1) prefix-mass arithmetic; see internal/core/index.go),
// not by scanning the pieces. Batched workloads go through
// EstimateRangeBatch, which answers a slice of queries with one index,
// sorted-query locality, and optional multi-core fan-out. Three
// constructions are provided:
//
//   - VOptimal: the paper's merging algorithm (near-V-optimal piece
//     placement, construction O(n) — the contribution being showcased);
//   - EquiWidth: k fixed-width buckets (the classical default);
//   - EquiDepth: k equal-mass buckets (quantile histogram).
//
// All three implement the same Synopsis interface so estimation quality can
// be compared per query.
package synopsis

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/interval"
	"repro/internal/numeric"
	"repro/internal/sparse"
)

// Synopsis answers approximate range-count queries over a column whose
// values lie in [1, n].
type Synopsis interface {
	// EstimateRange returns an estimate of the number of rows with value in
	// [a, b] (1-based, inclusive).
	EstimateRange(a, b int) (float64, error)
	// Pieces returns the space used, in buckets.
	Pieces() int
	// N returns the value-domain size.
	N() int
}

// Frequencies converts raw column values (each in [1, n]) to the frequency
// vector the estimators are built from.
func Frequencies(values []int, n int) ([]float64, error) {
	if n < 1 {
		return nil, fmt.Errorf("synopsis: domain size %d < 1", n)
	}
	f := make([]float64, n)
	for _, v := range values {
		if v < 1 || v > n {
			return nil, fmt.Errorf("synopsis: value %d out of [1, %d]", v, n)
		}
		f[v-1]++
	}
	return f, nil
}

// Exact answers range counts exactly from the full frequency vector — the
// accuracy oracle the synopses are measured against.
type Exact struct {
	pre *numeric.PrefixSSE
}

// NewExact builds the exact counter in O(n).
func NewExact(freq []float64) *Exact {
	return &Exact{pre: numeric.NewPrefixSSE(freq)}
}

// CountRange returns the exact number of rows with value in [a, b].
func (e *Exact) CountRange(a, b int) (float64, error) {
	if err := checkRange(a, b, e.pre.N()); err != nil {
		return 0, err
	}
	return e.pre.Sum(a, b), nil
}

// N returns the domain size.
func (e *Exact) N() int { return e.pre.N() }

func checkRange(a, b, n int) error {
	if a < 1 || b > n || a > b {
		return fmt.Errorf("synopsis: range [%d, %d] invalid for domain [1, %d]", a, b, n)
	}
	return nil
}

// histogramSynopsis answers range queries from any piecewise-constant
// summary, assuming uniform spread within each bucket (the standard
// histogram estimation assumption).
type histogramSynopsis struct {
	h *core.Histogram
}

// EstimateRange answers in O(log pieces) and zero allocations at steady
// state via the histogram's query index.
func (s histogramSynopsis) EstimateRange(a, b int) (float64, error) {
	if err := checkRange(a, b, s.h.N()); err != nil {
		return 0, err
	}
	return s.h.RangeSum(a, b), nil
}

func (s histogramSynopsis) Pieces() int { return s.h.NumPieces() }
func (s histogramSynopsis) N() int      { return s.h.N() }

// Histogram exposes the underlying histogram (for inspection and plotting).
func (s histogramSynopsis) Histogram() *core.Histogram { return s.h }

// VOptimal builds a near-V-optimal synopsis with roughly 2k+1 buckets using
// the paper's merging algorithm with its experimental parameters. The
// V-optimal criterion minimizes the ℓ2 error of the frequency approximation,
// which bounds the error of range-count estimates.
func VOptimal(freq []float64, k int) (Synopsis, error) {
	sf := sparse.FromDense(freq)
	res, err := core.ConstructHistogram(sf, k, core.PaperOptions())
	if err != nil {
		return nil, err
	}
	return histogramSynopsis{h: res.Histogram}, nil
}

// EquiWidth builds the classical k-bucket fixed-width synopsis.
func EquiWidth(freq []float64, k int) (Synopsis, error) {
	n := len(freq)
	if n == 0 {
		return nil, fmt.Errorf("synopsis: empty frequency vector")
	}
	if k < 1 {
		return nil, fmt.Errorf("synopsis: k must be ≥ 1, got %d", k)
	}
	if k > n {
		k = n
	}
	part := interval.Uniform(n, k)
	sf := sparse.FromDense(freq)
	return histogramSynopsis{h: core.FlattenHistogram(sf, part)}, nil
}

// EquiDepth builds a k-bucket equal-mass (quantile) synopsis: bucket
// boundaries are chosen so each bucket holds ≈ 1/k of the total count.
func EquiDepth(freq []float64, k int) (Synopsis, error) {
	n := len(freq)
	if n == 0 {
		return nil, fmt.Errorf("synopsis: empty frequency vector")
	}
	if k < 1 {
		return nil, fmt.Errorf("synopsis: k must be ≥ 1, got %d", k)
	}
	if k > n {
		k = n
	}
	pre := numeric.NewPrefixSSE(freq)
	total := pre.Sum(1, n)
	if total <= 0 {
		return nil, fmt.Errorf("synopsis: empty column")
	}
	// cum[i] = count of values ≤ i+1; strictly for the searches below we use
	// pre.Sum(1, i).
	ends := make([]int, 0, k)
	lo := 1
	for b := 1; b < k; b++ {
		targetMass := total * float64(b) / float64(k)
		// Smallest i with cumulative mass ≥ target.
		i := sort.Search(n, func(j int) bool {
			return pre.Sum(1, j+1) >= targetMass
		}) + 1
		if i <= lo-1 {
			i = lo
		}
		if i >= n {
			break
		}
		if len(ends) > 0 && i <= ends[len(ends)-1] {
			continue // duplicate quantile — skewed data
		}
		ends = append(ends, i)
		lo = i + 1
	}
	ends = append(ends, n)
	part, err := interval.FromBoundaries(n, ends)
	if err != nil {
		return nil, fmt.Errorf("synopsis: equi-depth boundaries: %w", err)
	}
	sf := sparse.FromDense(freq)
	return histogramSynopsis{h: core.FlattenHistogram(sf, part)}, nil
}

// MaxRangeError measures the worst absolute range-count error of a synopsis
// over all O(q²) ranges with endpoints on a grid of q probe points — a
// tractable proxy for the exact worst case.
func MaxRangeError(s Synopsis, exact *Exact, probes int) (float64, error) {
	n := s.N()
	if n != exact.N() {
		return 0, fmt.Errorf("synopsis: domain mismatch %d vs %d", n, exact.N())
	}
	if probes < 2 {
		probes = 2
	}
	grid := make([]int, 0, probes)
	for i := 0; i < probes; i++ {
		g := 1 + i*(n-1)/(probes-1)
		if len(grid) == 0 || g > grid[len(grid)-1] {
			grid = append(grid, g)
		}
	}
	var worst float64
	for i, a := range grid {
		for _, b := range grid[i:] {
			est, err := s.EstimateRange(a, b)
			if err != nil {
				return 0, err
			}
			truth, err := exact.CountRange(a, b)
			if err != nil {
				return 0, err
			}
			if d := math.Abs(est - truth); d > worst {
				worst = d
			}
		}
	}
	return worst, nil
}
