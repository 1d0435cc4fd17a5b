package selection

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/parallel"
	"repro/internal/rng"
)

// oldThresholdScratch and oldThresholdParallel are the cut as it was
// before the filtered path: copy the whole input (per chunk in parallel),
// quickselect, merge the chunks' top-k regions. They are the bit-level
// oracle for NaN-bearing inputs, which still take that path.
func oldThresholdScratch(xs []float64, k int) float64 {
	if k <= 0 {
		return math.Inf(1)
	}
	if k >= len(xs) {
		min := xs[0]
		for _, x := range xs {
			if x < min {
				min = x
			}
		}
		return min
	}
	return KthLargest(slices.Clone(xs), k)
}

func oldThresholdParallel(xs []float64, k, workers int) float64 {
	w := workers
	if w > len(xs)/parallel.MinGrain {
		w = len(xs) / parallel.MinGrain
	}
	if w <= 1 || k <= 0 || k >= len(xs) || 4*k*w >= len(xs) {
		return oldThresholdScratch(xs, k)
	}
	cp := make([]float64, len(xs))
	parallel.ForChunks(w, len(xs), w, func(_, lo, hi int) {
		copy(cp[lo:hi], xs[lo:hi])
		if hi-lo > k {
			KthLargest(cp[lo:hi], k)
		}
	})
	cand := 0
	parallel.ForChunks(1, len(xs), w, func(_, lo, hi int) {
		top := lo
		if hi-lo > k {
			top = hi - k
		}
		cand += copy(cp[cand:], cp[top:hi])
	})
	return KthLargest(cp[:cand], k)
}

// cutInputs are the shapes the filter distinguishes: ascending input admits
// every value and reduces the buffer most often (its worst case),
// descending input admits almost nothing after the first fill, ties and
// all-equal values sit exactly at the admission threshold, and signed
// zeros and infinities compare in ways NaN-free code must still order.
func cutInputs(n int) map[string][]float64 {
	r := rng.New(404)
	in := make(map[string][]float64)
	gen := func(name string, f func(i int) float64) {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = f(i)
		}
		in[name] = xs
	}
	gen("random", func(int) float64 { return r.Float64() })
	gen("ties", func(int) float64 { return math.Floor(r.NormFloat64() * 8) })
	gen("all_equal", func(int) float64 { return 2.5 })
	gen("ascending", func(i int) float64 { return float64(i) })
	gen("descending", func(i int) float64 { return float64(n - i) })
	gen("organ_pipe", func(i int) float64 { return float64(min(i, n-i)) })
	gen("zeros_and_infs", func(i int) float64 {
		return []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), 1, -1}[r.Intn(6)]
	})
	gen("mostly_zero", func(int) float64 {
		if r.Float64() < 0.999 {
			return 0
		}
		return r.Float64()
	})
	return in
}

// cutKs returns budgets on both sides of every switch: 4k against n (the
// serial filter), 4k·w against n (the parallel plan) and k against n.
func cutKs(n int) []int {
	ks := []int{1, 2, 3, 17, 300, n/4 - 1, n / 4, n/4 + 1, n - 1, n}
	for _, w := range []int{2, 3, 8} {
		ks = append(ks, n/(4*w)-1, n/(4*w), n/(4*w)+1)
	}
	return ks
}

// TestThresholdFilterMatchesSortOracle: the cut is the k-th largest value of
// a sorted copy, for every budget, worker count and input shape, and the
// input is left untouched.
func TestThresholdFilterMatchesSortOracle(t *testing.T) {
	for _, n := range []int{1000, 3*parallel.MinGrain + 7, 8*parallel.MinGrain + 1} {
		for name, xs := range cutInputs(n) {
			orig := slices.Clone(xs)
			sorted := slices.Clone(xs)
			slices.SortFunc(sorted, func(a, b float64) int {
				switch {
				case a > b:
					return -1
				case a < b:
					return 1
				}
				return 0
			})
			var scratch []float64
			for _, k := range cutKs(n) {
				if k < 1 || k > n {
					continue
				}
				want := sorted[k-1]
				if got := Threshold(xs, k); got != want {
					t.Fatalf("n=%d %s k=%d: Threshold = %v, want %v", n, name, k, got, want)
				}
				for _, w := range []int{1, 2, 3, 8} {
					var got float64
					got, scratch = ThresholdParallel(xs, k, w, scratch)
					if got != want {
						t.Fatalf("n=%d %s k=%d w=%d: ThresholdParallel = %v, want %v", n, name, k, w, got, want)
					}
				}
			}
			if !slices.Equal(xs, orig) {
				t.Fatalf("n=%d %s: input was modified", n, name)
			}
		}
	}
}

// TestThresholdNaNKeepsCopyPath: an input holding a NaN is cut by the
// copy-and-quickselect path, so the result matches the old cut's bit for
// bit at every worker count, wherever the NaN sits (inside the first
// buffer fill, in the filtered stream, in any chunk).
func TestThresholdNaNKeepsCopyPath(t *testing.T) {
	r := rng.New(8)
	for _, n := range []int{1000, 8*parallel.MinGrain + 1} {
		base := make([]float64, n)
		for i := range base {
			base[i] = r.NormFloat64()
		}
		for _, pos := range []int{0, 5, 39, 40, n / 3, n / 2, n - 1} {
			for _, many := range []bool{false, true} {
				xs := slices.Clone(base)
				xs[pos] = math.NaN()
				if many {
					for i := pos; i < n; i += 97 {
						xs[i] = math.NaN()
					}
				}
				var scratch []float64
				for _, k := range []int{1, 10, 300, n/16 - 1, n / 4} {
					label := fmt.Sprintf("n=%d pos=%d many=%v k=%d", n, pos, many, k)
					if got, want := Threshold(xs, k), oldThresholdScratch(xs, k); !sameBits(got, want) {
						t.Fatalf("%s: Threshold = %v, old cut %v", label, got, want)
					}
					for _, w := range []int{1, 2, 3, 8} {
						var got float64
						got, scratch = ThresholdParallel(xs, k, w, scratch)
						if want := oldThresholdParallel(xs, k, w); !sameBits(got, want) {
							t.Fatalf("%s w=%d: ThresholdParallel = %v, old cut %v", label, w, got, want)
						}
					}
				}
			}
		}
	}
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestThresholdScratchSteadyStateAllocs: once the scratch has grown, the
// filtered and the copying cut both run without allocating.
func TestThresholdScratchSteadyStateAllocs(t *testing.T) {
	r := rng.New(12)
	xs := make([]float64, 1<<15)
	for i := range xs {
		xs[i] = r.Float64()
	}
	for _, k := range []int{10, len(xs) / 2} { // filtered, copying
		_, scratch := ThresholdScratch(xs, k, nil)
		allocs := testing.AllocsPerRun(10, func() {
			_, scratch = ThresholdParallel(xs, k, 1, scratch)
		})
		if allocs != 0 {
			t.Fatalf("k=%d: %v allocs per cut, want 0", k, allocs)
		}
	}
}

// BenchmarkThreshold times the cut at a first-round size of a 2^20-point
// fit: keep = 20 (k = 10 at δ = 1), 2000, and s/4 (the hierarchy's budget,
// which keeps the copying path).
func BenchmarkThreshold(b *testing.B) {
	const n = 1 << 19
	r := rng.New(1)
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = r.Float64()
	}
	for _, k := range []int{20, 2000, n / 4} {
		for _, w := range []int{1, 2} {
			b.Run(fmt.Sprintf("keep=%d/w=%d", k, w), func(b *testing.B) {
				_, scratch := ThresholdParallel(xs, k, w, nil)
				for b.Loop() {
					_, scratch = ThresholdParallel(xs, k, w, scratch)
				}
			})
		}
	}
}
