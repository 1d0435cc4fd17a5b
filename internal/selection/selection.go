// Package selection provides expected-linear-time order statistics.
//
// Algorithm 1 needs, in every merging round, the (1 + 1/δ)k-th largest merge
// error among the current pair errors (line 16). Sorting would cost
// O(s log s) in the first round and break the O(s) total running time of
// Theorem 3.4; quickselect keeps every round linear.
//
// The implementation is quickselect with a median-of-three-medians ("ninther")
// pivot and an insertion-sort base case. The ninther pivot makes adversarial
// inputs astronomically unlikely while staying deterministic, so experiment
// runs remain reproducible.
//
// The merging rounds take their cut through Threshold, ThresholdScratch and
// ThresholdParallel, which leave the input untouched. When the budget k is
// small next to the input (4k < len, as Algorithm 1's (1 + 1/δ)k is against
// the s/2 pairs of its early rounds), they stream the input through a
// 4k-slot candidate buffer and quickselect only the buffer. Otherwise, or
// when the input holds a NaN, they quickselect a copy of the input.
package selection

import (
	"math"
	"sync/atomic"

	"repro/internal/parallel"
)

// KthLargest returns the k-th largest value of xs (k = 1 is the maximum).
// It partially reorders xs in place. It panics if k is out of [1, len(xs)].
func KthLargest(xs []float64, k int) float64 {
	if k < 1 || k > len(xs) {
		panic("selection: k out of range")
	}
	// k-th largest is the (len-k)-th smallest (0-based rank).
	return kthSmallest(xs, len(xs)-k)
}

// KthSmallest returns the k-th smallest value of xs (k = 1 is the minimum).
// It partially reorders xs in place. It panics if k is out of [1, len(xs)].
func KthSmallest(xs []float64, k int) float64 {
	if k < 1 || k > len(xs) {
		panic("selection: k out of range")
	}
	return kthSmallest(xs, k-1)
}

// kthSmallest selects the element of rank r (0-based) in xs.
func kthSmallest(xs []float64, r int) float64 {
	lo, hi := 0, len(xs)-1
	for {
		if hi-lo < 12 {
			insertionSort(xs[lo : hi+1])
			return xs[r]
		}
		p := ninther(xs, lo, hi)
		// Three-way partition around the pivot value to handle runs of ties
		// (merge errors are frequently exactly zero) in one pass.
		lt, gt := partition3(xs, lo, hi, p)
		switch {
		case r < lt:
			hi = lt - 1
		case r > gt:
			lo = gt + 1
		default:
			return xs[r]
		}
	}
}

// ninther returns the median of three medians-of-three sampled across
// [lo, hi], a deterministic pivot that is good on sorted, reversed, organ-pipe
// and constant inputs.
func ninther(xs []float64, lo, hi int) float64 {
	n := hi - lo + 1
	step := n / 8
	m1 := median3(xs[lo], xs[lo+step], xs[lo+2*step])
	mid := lo + n/2
	m2 := median3(xs[mid-step], xs[mid], xs[mid+step])
	m3 := median3(xs[hi-2*step], xs[hi-step], xs[hi])
	return median3(m1, m2, m3)
}

func median3(a, b, c float64) float64 {
	if a > b {
		a, b = b, a
	}
	if b > c {
		b = c
	}
	if a > b {
		b = a
	}
	return b
}

// partition3 partitions xs[lo..hi] into < p, == p, > p regions and returns
// the index range [lt, gt] occupied by values equal to p.
func partition3(xs []float64, lo, hi int, p float64) (lt, gt int) {
	lt, gt = lo, hi
	i := lo
	for i <= gt {
		switch {
		case xs[i] < p:
			xs[i], xs[lt] = xs[lt], xs[i]
			lt++
			i++
		case xs[i] > p:
			xs[i], xs[gt] = xs[gt], xs[i]
			gt--
		default:
			i++
		}
	}
	return lt, gt
}

func insertionSort(xs []float64) {
	for i := 1; i < len(xs); i++ {
		v := xs[i]
		j := i - 1
		for j >= 0 && xs[j] > v {
			xs[j+1] = xs[j]
			j--
		}
		xs[j+1] = v
	}
}

// filterFactor sizes the candidate buffer of the filtered cut: a range
// longer than filterFactor·k is scanned through a buffer of filterFactor·k
// slots instead of being copied whole (see filterTop).
const filterFactor = 4

// Threshold returns the k-th largest element of xs, the cut value t such
// that at least k elements are ≥ t. If k ≥ len(xs) it returns the minimum
// (everything passes a ≥ test); if k ≤ 0 it returns +Inf (nothing passes).
// xs is not modified.
//
// The merging rounds pair the cut with per-chunk counts of the errors
// strictly above and exactly at t (fnCount in core's cutAndTieBudgets) to
// keep exactly the budgeted number of candidates split even when many
// errors tie at t.
func Threshold(xs []float64, k int) float64 {
	cut, _ := ThresholdScratch(xs, k, nil)
	return cut
}

// ThresholdScratch is Threshold working in a caller-owned scratch buffer,
// so that round-based callers — the merging loops call this once per
// round — amortize its allocation to zero. The returned slice is the
// possibly-regrown scratch; pass it back in on the next call. xs is not
// modified.
//
// When 4k < len(xs) the scratch holds only 4k candidates (filterTop): one
// pass over xs, no copy of it. Otherwise, or when xs holds a NaN, xs is
// copied into the scratch and quickselected there.
func ThresholdScratch(xs []float64, k int, scratch []float64) (float64, []float64) {
	if len(xs) == 0 {
		panic("selection: Threshold of empty slice")
	}
	if k <= 0 {
		return math.Inf(1), scratch
	}
	if k >= len(xs) {
		min := xs[0]
		for _, x := range xs {
			if x < min {
				min = x
			}
		}
		return min, scratch
	}
	if filterFactor*k < len(xs) {
		scratch = grow(scratch, filterFactor*k)
		if cut, ok := filterTop(xs, scratch[:filterFactor*k], k); ok {
			return cut, scratch
		}
	}
	scratch = grow(scratch, len(xs))
	cp := scratch[:len(xs)]
	copy(cp, xs)
	return KthLargest(cp, k), scratch
}

// filterTop returns the k-th largest value of xs, leaving the k largest
// values in buf[:k]. len(buf) > k is the candidate buffer and
// len(xs) ≥ len(buf). It reports ok = false if xs holds a NaN, which
// orders against nothing; buf is then garbage.
//
// The buffer starts with the first len(buf) values. Whenever it is full it
// is quickselected down to its k largest, and their minimum becomes the
// admission threshold t; after that only values above t enter. The k values
// held are all ≥ t, so a value ≤ t cannot change the k-th largest, and the
// result is exact. Quickselect runs on the buffer only, so the cost is one
// comparison per value plus O(len(buf)) per len(buf) − k admitted values.
func filterTop(xs, buf []float64, k int) (cut float64, ok bool) {
	b := len(buf)
	for i, x := range xs[:b] {
		if x != x {
			return 0, false
		}
		buf[i] = x
	}
	t := keepTop(buf, k)
	m := k
	for _, x := range xs[b:] {
		if x <= t {
			continue
		}
		if x != x {
			return 0, false
		}
		if m == b {
			t = keepTop(buf, k)
			m = k
		}
		buf[m] = x
		m++
	}
	return keepTop(buf[:m], k), true
}

// keepTop quickselects the k largest values of buf (len(buf) ≥ k) into
// buf[:k] and returns the smallest of them.
func keepTop(buf []float64, k int) float64 {
	t := KthLargest(buf, k)
	copy(buf, buf[len(buf)-k:])
	return t
}

// grow returns xs resized to n, reallocating only on a short capacity.
func grow(xs []float64, n int) []float64 {
	if cap(xs) < n {
		return make([]float64, n)
	}
	return xs[:n]
}

// ThresholdParallel is ThresholdScratch computed with `workers` goroutines:
// the input is cut into fixed chunks, each worker filters its chunk's top k
// into its own 4k-slot region of the scratch (filterTop), and the
// workers·k candidates are merged with one final serial selection. Every
// chunk's k-th largest bounds the chunk's contribution to the global top k,
// so the merged selection returns exactly the k-th largest of xs — the
// value the serial path returns, for every worker count. If a chunk holds a
// NaN, which the filter cannot order, the whole call reruns as chunked
// copy-and-quickselect (thresholdCopyChunks).
//
// It falls back to the serial path when the parallel plan cannot win:
// few elements, one worker, or k so large that per-chunk selection would
// retain most of the input anyway.
func ThresholdParallel(xs []float64, k, workers int, scratch []float64) (float64, []float64) {
	w := workers
	if w > len(xs)/parallel.MinGrain {
		w = len(xs) / parallel.MinGrain
	}
	if w <= 1 || k <= 0 || k >= len(xs) || filterFactor*k*w >= len(xs) {
		return ThresholdScratch(xs, k, scratch)
	}
	return thresholdChunks(xs, k, w, scratch)
}

// thresholdChunks is the multi-worker body of ThresholdParallel, kept out
// of it so that the variables its chunk closure captures are heap-allocated
// only when the workers actually run. filterFactor·k·w < len(xs) holds, so
// every chunk has at least filterFactor·k values.
func thresholdChunks(xs []float64, k, w int, scratch []float64) (float64, []float64) {
	b := filterFactor * k
	scratch = grow(scratch, w*b)
	var nan atomic.Bool
	parallel.ForChunks(w, len(xs), w, func(ci, lo, hi int) {
		if _, ok := filterTop(xs[lo:hi], scratch[ci*b:(ci+1)*b], k); !ok {
			nan.Store(true)
		}
	})
	if nan.Load() {
		return thresholdCopyChunks(xs, k, w, scratch)
	}
	// Compact every chunk's top k to the front in chunk order: chunk ci's
	// candidates move from ci·b down to ci·k, never over a later chunk's.
	for ci := 1; ci < w; ci++ {
		copy(scratch[ci*k:(ci+1)*k], scratch[ci*b:ci*b+k])
	}
	return KthLargest(scratch[:w*k], k), scratch
}

// thresholdCopyChunks is ThresholdParallel for inputs holding a NaN: each
// chunk is copied into the scratch and quickselected there, and the chunks'
// top-k regions are merged by one final selection.
func thresholdCopyChunks(xs []float64, k, w int, scratch []float64) (float64, []float64) {
	scratch = grow(scratch, len(xs))
	cp := scratch[:len(xs)]
	// Each chunk copies and partially reorders only its own region of cp;
	// candidate harvesting below runs after the barrier.
	parallel.ForChunks(w, len(xs), w, func(_, lo, hi int) {
		copy(cp[lo:hi], xs[lo:hi])
		KthLargest(cp[lo:hi], k)
	})
	// Compact every chunk's top-k candidates to the front of cp in chunk
	// order (regions never overlap: chunk ci's candidates start at ci·k ≤ lo
	// because each chunk holds > k elements).
	cand := 0
	parallel.ForChunks(1, len(xs), w, func(_, lo, hi int) {
		cand += copy(cp[cand:], cp[hi-k:hi])
	})
	return KthLargest(cp[:cand], k), scratch
}
