package core

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/interval"
	"repro/internal/numeric"
	"repro/internal/rng"
	"repro/internal/sparse"
)

// optK computes the exact optimal k-histogram error via the O(n²k) dynamic
// program — the test oracle for the merging guarantees. Small n only.
func optK(q []float64, k int) float64 {
	n := len(q)
	pre := numeric.NewPrefixSSE(q)
	if k >= n {
		return 0
	}
	const inf = math.MaxFloat64
	prev := make([]float64, n+1) // prev[i] = best error of j-1 pieces on [1,i]
	cur := make([]float64, n+1)
	for i := 1; i <= n; i++ {
		prev[i] = pre.SSE(1, i)
	}
	for j := 2; j <= k; j++ {
		for i := 1; i <= n; i++ {
			best := inf
			for l := j - 1; l < i; l++ {
				if v := prev[l] + pre.SSE(l+1, i); v < best {
					best = v
				}
			}
			if i <= j {
				best = 0
			}
			cur[i] = best
		}
		prev, cur = cur, prev
	}
	return math.Sqrt(prev[n])
}

// randomKHistogram builds a dense vector that is exactly a k-histogram, plus
// optional Gaussian noise of scale sigma.
func randomKHistogram(r *rng.RNG, n, k int, sigma float64) []float64 {
	p := interval.Uniform(n, k)
	q := make([]float64, n)
	for _, iv := range p {
		v := r.NormFloat64() * 5
		for x := iv.Lo; x <= iv.Hi; x++ {
			q[x-1] = v + sigma*r.NormFloat64()
		}
	}
	return q
}

func TestOptKOracle(t *testing.T) {
	// Sanity-check the test oracle itself: a 2-histogram has opt_2 = 0 and
	// opt_1 > 0.
	q := []float64{1, 1, 1, 5, 5}
	if got := optK(q, 2); got != 0 {
		t.Fatalf("opt_2 = %v, want 0", got)
	}
	if got := optK(q, 1); got <= 0 {
		t.Fatalf("opt_1 = %v, want > 0", got)
	}
	// opt_1 equals the flattening error of the whole interval.
	pre := numeric.NewPrefixSSE(q)
	if want := math.Sqrt(pre.SSE(1, 5)); math.Abs(optK(q, 1)-want) > 1e-12 {
		t.Fatalf("opt_1 = %v, want %v", optK(q, 1), want)
	}
}

func TestOptionsValidate(t *testing.T) {
	sf := sparse.FromDense([]float64{1, 2, 3})
	bad := []Options{
		{Delta: 0, Gamma: 1},
		{Delta: -1, Gamma: 1},
		{Delta: math.NaN(), Gamma: 1},
		{Delta: 1, Gamma: 0.5},
		{Delta: 1, Gamma: math.Inf(1)},
	}
	for _, o := range bad {
		if _, err := ConstructHistogram(sf, 1, o); err == nil {
			t.Errorf("options %+v should be rejected", o)
		}
	}
	if _, err := ConstructHistogram(sf, 0, DefaultOptions()); err == nil {
		t.Error("k=0 should be rejected")
	}
}

func TestTargetAndBudget(t *testing.T) {
	// Paper experiment parameters: δ=1000, γ=1 → 2k+1 pieces for k=10.
	o := PaperOptions()
	if got := o.TargetPieces(10); got != 21 {
		t.Fatalf("TargetPieces(10) = %d, want 21", got)
	}
	d := DefaultOptions()
	if got := d.TargetPieces(10); got != 41 {
		t.Fatalf("Default TargetPieces(10) = %d, want 41", got)
	}
	if got := d.KeepBudget(10); got != 20 {
		t.Fatalf("Default KeepBudget(10) = %d, want 20", got)
	}
}

// TestBudgetsSaturate: a piece budget past every int saturates at
// math.MaxInt instead of wrapping negative, so an over-large target runs
// zero rounds and returns the exact I₀ flattening. The budgets are checked
// first: a negative target would never let the merging loop end.
func TestBudgetsSaturate(t *testing.T) {
	tiny := Options{Delta: 1e-300, Gamma: 1}
	budgets := []struct {
		name string
		got  int
	}{
		{"TargetPieces(2^61)", DefaultOptions().TargetPieces(1 << 61)},
		{"TargetPieces(MaxInt)", PaperOptions().TargetPieces(math.MaxInt)},
		{"KeepBudget(2^62)", DefaultOptions().KeepBudget(1 << 62)},
		{"KeepBudget(MaxInt)", PaperOptions().KeepBudget(math.MaxInt)},
		{"δ=1e-300 TargetPieces(1)", tiny.TargetPieces(1)},
		{"δ=1e-300 KeepBudget(1)", tiny.KeepBudget(1)},
	}
	for _, b := range budgets {
		if b.got != math.MaxInt {
			t.Fatalf("%s = %d, want math.MaxInt", b.name, b.got)
		}
	}
	// Below 2^63 the budget is converted as is (γ = 1 is lost to float64
	// rounding at this scale).
	if got := DefaultOptions().TargetPieces(1 << 59); got != 1<<61 {
		t.Fatalf("TargetPieces(2^59) = %d, want 2^61", got)
	}

	r := rng.New(61)
	q := make([]float64, 3000)
	for i := range q {
		q[i] = r.NormFloat64()
	}
	sf := sparse.FromDense(q)
	fits := []struct {
		name string
		fit  func() (Result, error)
	}{
		{"ConstructHistogram k=2^61", func() (Result, error) { return ConstructHistogram(sf, 1<<61, DefaultOptions()) }},
		{"ConstructHistogramFast k=2^61", func() (Result, error) { return ConstructHistogramFast(sf, 1<<61, DefaultOptions()) }},
		{"ConstructHistogram δ=1e-300", func() (Result, error) { return ConstructHistogram(sf, 1, tiny) }},
		{"ConstructHistogramFromSummary k=MaxInt", func() (Result, error) {
			return ConstructHistogramFromSummary(sf.N(), sf.InitialPartition(), sf.StatsFor(sf.InitialPartition()), math.MaxInt, DefaultOptions())
		}},
	}
	for _, f := range fits {
		res, err := f.fit()
		if err != nil {
			t.Fatalf("%s: %v", f.name, err)
		}
		if res.Rounds != 0 || res.Error != 0 || len(res.Partition) != len(q) {
			t.Fatalf("%s: %d rounds, error %v, %d pieces; want the exact I₀ (0 rounds, error 0, %d pieces)",
				f.name, res.Rounds, res.Error, len(res.Partition), len(q))
		}
	}
}

func TestConstructHistogramPieceBound(t *testing.T) {
	r := rng.New(5)
	for _, n := range []int{50, 500, 4096} {
		q := make([]float64, n)
		for i := range q {
			q[i] = r.NormFloat64()
		}
		sf := sparse.FromDense(q)
		for _, k := range []int{1, 3, 10} {
			for _, o := range []Options{DefaultOptions(), PaperOptions(), {Delta: 0.5, Gamma: 4}} {
				res, err := ConstructHistogram(sf, k, o)
				if err != nil {
					t.Fatal(err)
				}
				if got, max := res.Histogram.NumPieces(), o.TargetPieces(k); got > max {
					t.Fatalf("n=%d k=%d opts=%+v: %d pieces > bound %d", n, k, o, got, max)
				}
				if err := res.Partition.Validate(n); err != nil {
					t.Fatalf("invalid output partition: %v", err)
				}
			}
		}
	}
}

func TestConstructHistogramExactRecovery(t *testing.T) {
	// When q is itself a k-histogram, opt_k = 0, so Theorem 3.3 forces the
	// output error to be exactly 0.
	r := rng.New(7)
	for trial := 0; trial < 20; trial++ {
		n := 64 + r.Intn(400)
		k := 1 + r.Intn(8)
		q := randomKHistogram(r, n, k, 0)
		sf := sparse.FromDense(q)
		res, err := ConstructHistogram(sf, k, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		// Merged equal-value pairs carry ~1e-16 phantom SSE from prefix
		// cancellation; over hundreds of pieces that accumulates to ~1e-6
		// in the reported error. Anything below 1e-4 is exact recovery.
		if res.Error > 1e-4 {
			t.Fatalf("trial %d (n=%d k=%d): error %v on exact k-histogram", trial, n, k, res.Error)
		}
	}
}

func TestConstructHistogramApproximationGuarantee(t *testing.T) {
	// Theorem 3.3: ‖q̄_I − q‖₂ ≤ √(1+δ)·opt_k, verified against the exact DP
	// on noisy k-histograms and on pure noise.
	r := rng.New(11)
	for trial := 0; trial < 25; trial++ {
		n := 40 + r.Intn(120)
		k := 1 + r.Intn(5)
		var q []float64
		if trial%2 == 0 {
			q = randomKHistogram(r, n, k, 0.3)
		} else {
			q = make([]float64, n)
			for i := range q {
				q[i] = r.NormFloat64()
			}
		}
		opt := optK(q, k)
		sf := sparse.FromDense(q)
		// The theorem's case-(ii) argument needs ⌊(1+1/δ)k⌋ − k ≥ ⌈k/δ⌉ ≥ 1
		// kept intervals without jumps, so test δ values with k ≥ δ.
		deltas := []float64{0.5, 1}
		if k >= 4 {
			deltas = append(deltas, 4)
		}
		for _, delta := range deltas {
			o := Options{Delta: delta, Gamma: 1}
			res, err := ConstructHistogram(sf, k, o)
			if err != nil {
				t.Fatal(err)
			}
			bound := math.Sqrt(1+delta)*opt + 1e-9
			if res.Error > bound {
				t.Fatalf("trial %d (n=%d k=%d δ=%v): error %v > √(1+δ)·opt = %v",
					trial, n, k, delta, res.Error, bound)
			}
		}
	}
}

func TestConstructHistogramErrorFieldExact(t *testing.T) {
	r := rng.New(13)
	q := make([]float64, 300)
	for i := range q {
		q[i] = r.NormFloat64()
	}
	sf := sparse.FromDense(q)
	res, err := ConstructHistogram(sf, 7, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	want := res.Histogram.L2DistToDense(q)
	if !numeric.AlmostEqual(res.Error, want, 1e-9) {
		t.Fatalf("Error field %v, recomputed %v", res.Error, want)
	}
}

func TestConstructHistogramSparseInput(t *testing.T) {
	// Very sparse input over a huge domain: runtime must depend on s, not n,
	// and the result must still satisfy the piece bound.
	n := 10_000_000
	entries := []sparse.Entry{}
	r := rng.New(17)
	seen := map[int]bool{}
	for len(entries) < 100 {
		i := 1 + r.Intn(n)
		if !seen[i] {
			seen[i] = true
			entries = append(entries, sparse.Entry{Index: i, Value: 1 + r.Float64()})
		}
	}
	sf, err := sparse.New(n, entries)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ConstructHistogram(sf, 5, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Histogram.NumPieces() > DefaultOptions().TargetPieces(5) {
		t.Fatalf("pieces = %d", res.Histogram.NumPieces())
	}
	if got := res.Histogram.L2DistToSparse(sf); !numeric.AlmostEqual(got, res.Error, 1e-9) {
		t.Fatalf("sparse distance %v vs error %v", got, res.Error)
	}
}

func TestConstructHistogramZeroFunction(t *testing.T) {
	sf, err := sparse.New(1000, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ConstructHistogram(sf, 3, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Error != 0 || res.Histogram.NumPieces() != 1 {
		t.Fatalf("zero function: error %v pieces %d", res.Error, res.Histogram.NumPieces())
	}
	if res.Rounds != 0 {
		t.Fatalf("zero function should need 0 rounds, got %d", res.Rounds)
	}
}

func TestConstructHistogramKLargerThanSparsity(t *testing.T) {
	// If the initial partition is already at most the target size, the input
	// is returned exactly.
	sf := sparse.FromDense([]float64{0, 5, 0, 0, 3, 0})
	res, err := ConstructHistogram(sf, 10, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Error != 0 {
		t.Fatalf("error = %v, want exact representation", res.Error)
	}
}

func TestConstructHistogramDeterminism(t *testing.T) {
	r := rng.New(23)
	q := make([]float64, 777)
	for i := range q {
		q[i] = r.NormFloat64()
	}
	sf := sparse.FromDense(q)
	a, _ := ConstructHistogram(sf, 9, PaperOptions())
	b, _ := ConstructHistogram(sf, 9, PaperOptions())
	if a.Error != b.Error || a.Rounds != b.Rounds || len(a.Partition) != len(b.Partition) {
		t.Fatal("runs differ")
	}
	for i := range a.Partition {
		if a.Partition[i] != b.Partition[i] {
			t.Fatal("partitions differ")
		}
	}
}

// Property: on arbitrary random inputs the merging error is within
// √(1+δ)·opt_k for δ=1 and the piece bound holds.
func TestMergingGuaranteeProperty(t *testing.T) {
	f := func(seed uint32, kRaw uint8) bool {
		r := rng.New(uint64(seed))
		n := 30 + r.Intn(70)
		k := int(kRaw)%4 + 1
		q := make([]float64, n)
		for i := range q {
			q[i] = float64(r.Intn(6)) // ties stress the selection logic
		}
		sf := sparse.FromDense(q)
		res, err := ConstructHistogram(sf, k, DefaultOptions())
		if err != nil {
			return false
		}
		if res.Histogram.NumPieces() > DefaultOptions().TargetPieces(k) {
			return false
		}
		return res.Error <= math.Sqrt2*optK(q, k)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: merging error is monotone non-increasing in k on a fixed input.
func TestMergingMonotoneInK(t *testing.T) {
	r := rng.New(29)
	q := make([]float64, 500)
	for i := range q {
		q[i] = r.NormFloat64() + math.Sin(float64(i)/20)*3
	}
	sf := sparse.FromDense(q)
	prev := math.Inf(1)
	for k := 1; k <= 40; k *= 2 {
		res, err := ConstructHistogram(sf, k, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		// Not strictly guaranteed piecewise, but with doubling k the target
		// partition strictly refines in budget; allow tiny slack.
		if res.Error > prev+1e-9 {
			t.Fatalf("error increased from %v to %v at k=%d", prev, res.Error, k)
		}
		prev = res.Error
	}
}
