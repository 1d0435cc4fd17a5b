package core

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"sync"
	"testing"

	"repro/internal/interval"
	"repro/internal/rng"
	"repro/internal/sparse"
)

// atLinear is the pre-index implementation of At, kept as the reference
// oracle for the query-engine property tests: the indexed path must return
// the bit-identical value for every point.
func (h *Histogram) atLinear(i int) float64 {
	if i < 1 || i > h.n {
		panic(fmt.Sprintf("core: Histogram.At(%d) out of [1, %d]", i, h.n))
	}
	idx := sort.Search(len(h.pieces), func(j int) bool { return h.pieces[j].Hi >= i })
	return h.pieces[idx].Value
}

// rangeSumLinearRef is the linear reference oracle for RangeSum: an O(pieces)
// scan that locates both endpoints by walking the pieces and replays the
// exact floating-point accumulation sequence of the index (left-to-right
// prefix masses, partial edges computed directly). The indexed path must be
// bit-identical to it on every query.
func rangeSumLinearRef(h *Histogram, a, b int) float64 {
	pieces := h.pieces
	pa := 0
	for pieces[pa].Hi < a {
		pa++
	}
	if b <= pieces[pa].Hi {
		return float64(b-a+1) * pieces[pa].Value
	}
	pb := pa
	for pieces[pb].Hi < b {
		pb++
	}
	var acc float64
	for j := 0; j <= pa; j++ {
		acc += float64(pieces[j].Len()) * pieces[j].Value
	}
	prefixA := acc
	for j := pa + 1; j < pb; j++ {
		acc += float64(pieces[j].Len()) * pieces[j].Value
	}
	left := float64(pieces[pa].Hi-a+1) * pieces[pa].Value
	mid := acc - prefixA
	right := float64(b-pieces[pb].Lo+1) * pieces[pb].Value
	return left + mid + right
}

// rangeSumClampedRef is the legacy pre-index EstimateRange scan (clamp every
// piece to [a, b], accumulate in piece order). It computes the same
// mathematical quantity as RangeSum with a different floating-point
// accumulation order, so the indexed path must agree up to rounding.
func rangeSumClampedRef(h *Histogram, a, b int) float64 {
	var total float64
	for _, pc := range h.pieces {
		lo, hi := pc.Lo, pc.Hi
		if lo < a {
			lo = a
		}
		if hi > b {
			hi = b
		}
		if lo > hi {
			continue
		}
		total += float64(hi-lo+1) * pc.Value
	}
	return total
}

// randomHistogram builds a histogram over [1, n] with pieceCount pieces at
// random boundaries and values drawn from r — including negative values, the
// shape deletion streams produce.
func randomHistogram(r *rng.RNG, n, pieceCount int) *Histogram {
	if pieceCount > n {
		pieceCount = n
	}
	used := make(map[int]bool, pieceCount)
	ends := make([]int, 0, pieceCount)
	used[n] = true
	ends = append(ends, n)
	for len(ends) < pieceCount {
		e := 1 + r.Intn(n)
		if !used[e] {
			used[e] = true
			ends = append(ends, e)
		}
	}
	for i := 1; i < len(ends); i++ {
		for j := i; j > 0 && ends[j] < ends[j-1]; j-- {
			ends[j], ends[j-1] = ends[j-1], ends[j]
		}
	}
	part, err := interval.FromBoundaries(n, ends)
	if err != nil {
		panic(err)
	}
	values := make([]float64, len(part))
	for i := range values {
		values[i] = r.NormFloat64() * 10
		if r.Intn(4) == 0 {
			values[i] = -values[i] // ensure both signs appear often
		}
	}
	return NewHistogram(n, part, values)
}

// queryFixtures returns the adversarial histogram fixtures every query
// property is checked on: a single piece, all-singleton pieces, a negative
// deletion-stream shape, and random piece layouts at several scales.
func queryFixtures(t *testing.T) []*Histogram {
	t.Helper()
	r := rng.New(42)
	fixtures := []*Histogram{
		// Single piece covering the whole domain.
		NewHistogram(100, interval.Partition{interval.New(1, 100)}, []float64{3.25}),
		// n = 1: the smallest legal domain.
		NewHistogram(1, interval.Partition{interval.New(1, 1)}, []float64{-7}),
		// Every point its own piece.
		randomHistogram(r, 64, 64),
		// Negative values from a deletion stream: fit the net vector.
		func() *Histogram {
			q := make([]float64, 500)
			for i := range q {
				q[i] = float64((i%7)-3) * 1.5
			}
			res, err := ConstructHistogram(sparse.FromDense(q), 8, DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			return res.Histogram
		}(),
	}
	for _, pieces := range []int{2, 3, 17, 256, 1000} {
		fixtures = append(fixtures, randomHistogram(r, 4096, pieces))
	}
	return fixtures
}

func TestPieceIndexMatchesPartitionFind(t *testing.T) {
	for _, h := range queryFixtures(t) {
		part := h.Partition()
		for x := 1; x <= h.N(); x++ {
			if got, want := h.PieceIndex(x), part.Find(x); got != want {
				t.Fatalf("%v: PieceIndex(%d) = %d, Partition.Find = %d", h, x, got, want)
			}
		}
	}
}

func TestAtBitIdenticalToLinear(t *testing.T) {
	for _, h := range queryFixtures(t) {
		for x := 1; x <= h.N(); x++ {
			if got, want := h.At(x), h.atLinear(x); got != want {
				t.Fatalf("%v: At(%d) = %v, linear oracle %v", h, x, got, want)
			}
		}
	}
}

// queryRanges enumerates the ranges the RangeSum properties are checked on:
// every a == b probe on a grid, the full domain, prefixes, suffixes, and
// random ranges.
func queryRanges(r *rng.RNG, n int) [][2]int {
	ranges := [][2]int{{1, n}, {1, 1}, {n, n}}
	for i := 0; i < 200; i++ {
		a := 1 + r.Intn(n)
		b := a + r.Intn(n-a+1)
		ranges = append(ranges, [2]int{a, b}, [2]int{a, a}, [2]int{1, b}, [2]int{a, n})
	}
	return ranges
}

func TestRangeSumBitIdenticalToLinearRef(t *testing.T) {
	r := rng.New(7)
	for _, h := range queryFixtures(t) {
		for _, q := range queryRanges(r, h.N()) {
			got := h.RangeSum(q[0], q[1])
			want := rangeSumLinearRef(h, q[0], q[1])
			if got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
				t.Fatalf("%v: RangeSum(%d, %d) = %v, linear replay oracle %v",
					h, q[0], q[1], got, want)
			}
		}
	}
}

func TestRangeSumMatchesClampedScan(t *testing.T) {
	// The legacy clamped scan accumulates in a different order, so agreement
	// is up to floating-point rounding, scaled by the total mass involved.
	r := rng.New(11)
	for _, h := range queryFixtures(t) {
		var scale float64
		for _, pc := range h.pieces {
			scale += math.Abs(float64(pc.Len()) * pc.Value)
		}
		if scale == 0 {
			scale = 1
		}
		for _, q := range queryRanges(r, h.N()) {
			got := h.RangeSum(q[0], q[1])
			want := rangeSumClampedRef(h, q[0], q[1])
			if math.Abs(got-want) > 1e-12*scale {
				t.Fatalf("%v: RangeSum(%d, %d) = %v, clamped scan %v (scale %v)",
					h, q[0], q[1], got, want, scale)
			}
		}
	}
}

func TestRangeSumAgainstDense(t *testing.T) {
	// Ground truth: sum the materialized histogram directly.
	r := rng.New(13)
	for _, h := range queryFixtures(t) {
		dense := h.ToDense()
		for _, q := range queryRanges(r, h.N()) {
			var want float64
			for x := q[0]; x <= q[1]; x++ {
				want += dense[x-1]
			}
			got := h.RangeSum(q[0], q[1])
			tol := 1e-9 * (1 + math.Abs(want))
			if math.Abs(got-want) > tol {
				t.Fatalf("%v: RangeSum(%d, %d) = %v, dense truth %v", h, q[0], q[1], got, want)
			}
		}
	}
}

func TestBatchQueriesBitIdenticalAcrossWorkers(t *testing.T) {
	r := rng.New(17)
	for _, h := range queryFixtures(t) {
		n := h.N()
		var xs, as, bs []int
		for i := 0; i < 3000; i++ {
			xs = append(xs, 1+r.Intn(n))
			a := 1 + r.Intn(n)
			as = append(as, a)
			bs = append(bs, a+r.Intn(n-a+1))
		}
		wantAt := make([]float64, len(xs))
		for i, x := range xs {
			wantAt[i] = h.At(x)
		}
		wantRange := make([]float64, len(as))
		for i := range as {
			wantRange[i] = h.RangeSum(as[i], bs[i])
		}
		for _, workers := range []int{1, 2, 8} {
			gotAt := h.AtBatch(xs, nil, workers)
			for i := range xs {
				if gotAt[i] != wantAt[i] {
					t.Fatalf("%v workers=%d: AtBatch[%d] = %v, At = %v",
						h, workers, i, gotAt[i], wantAt[i])
				}
			}
			gotRange := h.RangeSumBatch(as, bs, nil, workers)
			for i := range as {
				if gotRange[i] != wantRange[i] {
					t.Fatalf("%v workers=%d: RangeSumBatch[%d] = %v, RangeSum = %v",
						h, workers, i, gotRange[i], wantRange[i])
				}
			}
		}
	}
}

func TestBatchSortedQueriesUseLocalityPath(t *testing.T) {
	// Sorted batches drive the findFrom fast path; results must still match
	// the single-query answers exactly.
	r := rng.New(19)
	h := randomHistogram(r, 10000, 300)
	xs := make([]int, 0, 5000)
	for x := 1; x <= 10000; x += 2 {
		xs = append(xs, x)
	}
	got := h.AtBatch(xs, nil, 1)
	for i, x := range xs {
		if got[i] != h.At(x) {
			t.Fatalf("sorted AtBatch[%d] (x=%d) = %v, At = %v", i, x, got[i], h.At(x))
		}
	}
	as := make([]int, 0, 2000)
	bs := make([]int, 0, 2000)
	for a := 1; a+50 <= 10000; a += 5 {
		as = append(as, a)
		bs = append(bs, a+50)
	}
	gotR := h.RangeSumBatch(as, bs, nil, 1)
	for i := range as {
		if gotR[i] != h.RangeSum(as[i], bs[i]) {
			t.Fatalf("sorted RangeSumBatch[%d] = %v, RangeSum = %v",
				i, gotR[i], h.RangeSum(as[i], bs[i]))
		}
	}
}

func TestBatchReusesOutputSlice(t *testing.T) {
	r := rng.New(23)
	h := randomHistogram(r, 1000, 20)
	xs := []int{1, 500, 1000}
	out := make([]float64, 8)
	got := h.AtBatch(xs, out, 1)
	if len(got) != len(xs) || &got[0] != &out[0] {
		t.Fatal("AtBatch should reuse a sufficiently large output slice")
	}
	got2 := h.RangeSumBatch(xs, []int{2, 600, 1000}, out, 1)
	if len(got2) != 3 || &got2[0] != &out[0] {
		t.Fatal("RangeSumBatch should reuse a sufficiently large output slice")
	}
}

func TestQuerySteadyStateAllocs(t *testing.T) {
	r := rng.New(29)
	h := randomHistogram(r, 100000, 1000)
	h.At(1) // build the index outside the measured window
	var sink float64
	if allocs := testing.AllocsPerRun(200, func() {
		sink += h.At(77777)
	}); allocs != 0 {
		t.Fatalf("At allocates %v/op at steady state, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(200, func() {
		sink += h.RangeSum(123, 98765)
	}); allocs != 0 {
		t.Fatalf("RangeSum allocates %v/op at steady state, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(200, func() {
		sink += float64(h.PieceIndex(4242))
	}); allocs != 0 {
		t.Fatalf("PieceIndex allocates %v/op at steady state, want 0", allocs)
	}
	xs := []int{5, 77777, 99999, 12, 50000}
	out := make([]float64, len(xs))
	if allocs := testing.AllocsPerRun(200, func() {
		out = h.AtBatch(xs, out, 1)
	}); allocs != 0 {
		t.Fatalf("serial AtBatch with reused output allocates %v/op, want 0", allocs)
	}
	as := []int{1, 40000, 99000, 7, 31337}
	bs := []int{9, 41000, 100000, 7, 90210}
	if allocs := testing.AllocsPerRun(200, func() {
		out = h.RangeSumBatch(as, bs, out, 1)
	}); allocs != 0 {
		t.Fatalf("serial RangeSumBatch with reused output allocates %v/op, want 0", allocs)
	}
	_ = sink
}

func TestConcurrentColdQueries(t *testing.T) {
	// Many goroutines race to build the lazy index; under -race this
	// certifies the publication protocol, and every reader must see the
	// same values.
	r := rng.New(31)
	h := randomHistogram(r, 50000, 512)
	want := h.atLinear(12345)
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for x := 1 + g; x <= h.N(); x += 97 {
				if h.At(x) != h.atLinear(x) {
					errs <- "concurrent At mismatch"
					return
				}
			}
			if h.At(12345) != want {
				errs <- "concurrent reader saw a different value"
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

func TestUnmarshalInvalidatesIndex(t *testing.T) {
	h := NewHistogram(10, interval.Partition{interval.New(1, 4), interval.New(5, 10)}, []float64{1, 2})
	if got := h.At(7); got != 2 {
		t.Fatalf("At(7) = %v before reload", got)
	}
	// Reload different pieces into the same histogram value.
	replacement := NewHistogram(10, interval.Partition{interval.New(1, 6), interval.New(7, 10)}, []float64{5, 9})
	blob, err := json.Marshal(replacement)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(blob, h); err != nil {
		t.Fatal(err)
	}
	if got := h.At(3); got != 5 {
		t.Fatalf("after reload At(3) = %v, stale index served old pieces", got)
	}
	if got := h.RangeSum(1, 10); got != 5*6+9*4 {
		t.Fatalf("after reload RangeSum = %v", got)
	}
}

func TestQueryPanicsOnInvalidInput(t *testing.T) {
	h := NewHistogram(10, interval.Partition{interval.New(1, 10)}, []float64{1})
	for name, fn := range map[string]func(){
		"At(0)":             func() { h.At(0) },
		"At(11)":            func() { h.At(11) },
		"PieceIndex(0)":     func() { h.PieceIndex(0) },
		"RangeSum reversed": func() { h.RangeSum(5, 4) },
		"RangeSum high":     func() { h.RangeSum(1, 11) },
		"AtBatch bad point": func() { h.AtBatch([]int{0}, nil, 1) },
		"RangeSumBatch len": func() { h.RangeSumBatch([]int{1}, []int{2, 3}, nil, 1) },
		"RangeSumBatch bad": func() { h.RangeSumBatch([]int{0}, []int{3}, nil, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s should panic", name)
				}
			}()
			fn()
		}()
	}
}
