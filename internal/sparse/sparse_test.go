package sparse

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/interval"
	"repro/internal/numeric"
	"repro/internal/rng"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(0, nil); err == nil {
		t.Fatal("n=0 should error")
	}
	if _, err := New(5, []Entry{{Index: 0, Value: 1}}); err == nil {
		t.Fatal("index 0 should error")
	}
	if _, err := New(5, []Entry{{Index: 6, Value: 1}}); err == nil {
		t.Fatal("index > n should error")
	}
	if _, err := New(5, []Entry{{Index: 2, Value: 1}, {Index: 2, Value: 3}}); err == nil {
		t.Fatal("duplicate index should error")
	}
}

func TestNewSortsAndDropsZeros(t *testing.T) {
	f, err := New(10, []Entry{{Index: 7, Value: 2}, {Index: 3, Value: 0}, {Index: 1, Value: -1}})
	if err != nil {
		t.Fatal(err)
	}
	if f.Sparsity() != 2 {
		t.Fatalf("sparsity = %d, want 2 (zero dropped)", f.Sparsity())
	}
	es := f.Entries()
	if es[0].Index != 1 || es[1].Index != 7 {
		t.Fatalf("entries not sorted: %v", es)
	}
}

// TestFromSortedValidation: FromSorted refuses everything New would sort,
// drop or refuse, and keeps a valid slice as given.
func TestFromSortedValidation(t *testing.T) {
	for name, es := range map[string][]Entry{
		"index 0":      {{Index: 0, Value: 1}},
		"index past n": {{Index: 6, Value: 1}},
		"unsorted":     {{Index: 3, Value: 1}, {Index: 2, Value: 1}},
		"duplicate":    {{Index: 2, Value: 1}, {Index: 2, Value: 1}},
		"zero value":   {{Index: 2, Value: 0}},
	} {
		if _, err := FromSorted(5, es); err == nil {
			t.Fatalf("%s: accepted %v", name, es)
		}
	}
	if _, err := FromSorted(0, nil); err == nil {
		t.Fatal("n=0 should error")
	}
	es := []Entry{{Index: 1, Value: -2}, {Index: 5, Value: math.NaN()}}
	f, err := FromSorted(5, es)
	if err != nil {
		t.Fatal(err)
	}
	if &f.Entries()[0] != &es[0] || f.N() != 5 {
		t.Fatal("FromSorted did not keep the entries as given")
	}
}

func TestFromDenseRoundTrip(t *testing.T) {
	q := []float64{0, 1.5, 0, 0, -2, 3, 0}
	f := FromDense(q)
	if f.N() != 7 || f.Sparsity() != 3 {
		t.Fatalf("N=%d s=%d", f.N(), f.Sparsity())
	}
	back := f.ToDense()
	for i := range q {
		if back[i] != q[i] {
			t.Fatalf("round trip mismatch at %d: %v vs %v", i, back[i], q[i])
		}
	}
}

// TestFromDenseSpecialValues: −0 is a zero and is dropped, NaN and ±Inf
// are nonzeros and are kept, with their bits.
func TestFromDenseSpecialValues(t *testing.T) {
	negZero := math.Copysign(0, -1)
	nan := math.Float64frombits(0x7ff8000000000123)
	f := FromDense([]float64{negZero, nan, 0, math.Inf(-1), negZero, 4, 0})
	want := []Entry{{2, nan}, {4, math.Inf(-1)}, {6, 4}}
	es := f.Entries()
	if f.N() != 7 || len(es) != len(want) {
		t.Fatalf("N=%d entries %v, want %v", f.N(), es, want)
	}
	for i, e := range es {
		if e.Index != want[i].Index || math.Float64bits(e.Value) != math.Float64bits(want[i].Value) {
			t.Fatalf("entry %d is %v, want %v", i, e, want[i])
		}
	}
}

func TestAt(t *testing.T) {
	f := FromDense([]float64{0, 5, 0, 7})
	if f.At(1) != 0 || f.At(2) != 5 || f.At(3) != 0 || f.At(4) != 7 {
		t.Fatal("At returned wrong values")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("At out of range should panic")
		}
	}()
	f.At(5)
}

func TestSums(t *testing.T) {
	f := FromDense([]float64{1, 0, 2, 3})
	if f.Sum() != 6 {
		t.Fatalf("Sum = %v", f.Sum())
	}
	if f.SumSq() != 14 {
		t.Fatalf("SumSq = %v", f.SumSq())
	}
	if math.Abs(f.L2Norm()-math.Sqrt(14)) > 1e-12 {
		t.Fatalf("L2Norm = %v", f.L2Norm())
	}
}

func TestRelevantIndices(t *testing.T) {
	// Nonzeros at 1, 5, 6 in [1,10]: J = {1,2} ∪ {4,5,6} ∪ {5,6,7} = {1,2,4,5,6,7}.
	f, err := New(10, []Entry{{1, 1}, {5, 2}, {6, 3}})
	if err != nil {
		t.Fatal(err)
	}
	got := f.RelevantIndices()
	want := []int{1, 2, 4, 5, 6, 7}
	if len(got) != len(want) {
		t.Fatalf("J = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("J = %v, want %v", got, want)
		}
	}
}

func TestRelevantIndicesClipping(t *testing.T) {
	// Nonzero at n: i+1 is clipped.
	f, _ := New(3, []Entry{{3, 1}})
	got := f.RelevantIndices()
	if len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Fatalf("J = %v, want [2 3]", got)
	}
}

func TestInitialPartitionExactness(t *testing.T) {
	q := []float64{0, 0, 3, 0, 0, 0, -1, 2, 0, 0}
	f := FromDense(q)
	p := f.InitialPartition()
	if err := p.Validate(f.N()); err != nil {
		t.Fatal(err)
	}
	flat := f.Flatten(p)
	for i := range q {
		if flat[i] != q[i] {
			t.Fatalf("flattening over I0 not exact at %d: %v vs %v", i+1, flat[i], q[i])
		}
	}
	if got := f.FlattenError(p); got != 0 {
		t.Fatalf("FlattenError over I0 = %v, want 0", got)
	}
}

func TestInitialPartitionAllZero(t *testing.T) {
	f, _ := New(42, nil)
	p := f.InitialPartition()
	if len(p) != 1 || p[0].Lo != 1 || p[0].Hi != 42 {
		t.Fatalf("I0 for zero function = %v", p)
	}
}

func TestInitialPartitionSizeBound(t *testing.T) {
	// |I0| ≤ 4s + 1.
	r := rng.New(3)
	for trial := 0; trial < 50; trial++ {
		n := 50 + r.Intn(500)
		s := 1 + r.Intn(20)
		seen := map[int]bool{}
		var es []Entry
		for len(es) < s {
			i := 1 + r.Intn(n)
			if !seen[i] {
				seen[i] = true
				es = append(es, Entry{Index: i, Value: r.NormFloat64() + 2})
			}
		}
		f, err := New(n, es)
		if err != nil {
			t.Fatal(err)
		}
		p := f.InitialPartition()
		if err := p.Validate(n); err != nil {
			t.Fatal(err)
		}
		if len(p) > 4*s+1 {
			t.Fatalf("|I0| = %d > 4s+1 = %d", len(p), 4*s+1)
		}
	}
}

func TestStatSSEAndMean(t *testing.T) {
	// Interval of length 4 with values {2, 4} and two zeros:
	// mean = 6/4 = 1.5, SSE = (2-1.5)² + (4-1.5)² + 2·1.5² = 0.25+6.25+4.5 = 11.
	st := Stat{Len: 4, Sum: 6, SumSq: 4 + 16}
	if st.Mean() != 1.5 {
		t.Fatalf("Mean = %v", st.Mean())
	}
	if math.Abs(st.SSE()-11) > 1e-12 {
		t.Fatalf("SSE = %v, want 11", st.SSE())
	}
}

func TestNodeMerge(t *testing.T) {
	// [3, 4] and [5, 5] after a node ending at 2.
	a := Node{Hi: 4, Sum: 3, SumSq: 5}
	b := Node{Hi: 5, Sum: 4, SumSq: 16}
	c := a.Merge(b)
	if c.Hi != 5 || c.Sum != 7 || c.SumSq != 21 {
		t.Fatalf("Merge = %+v", c)
	}
	if st := c.Stat(2); st != (Stat{Len: 3, Sum: 7, SumSq: 21}) {
		t.Fatalf("Stat = %+v", st)
	}
}

func TestStatZero(t *testing.T) {
	var st Stat
	if st.Mean() != 0 || st.SSE() != 0 {
		t.Fatal("zero Stat should have zero mean and SSE")
	}
}

func TestStatsForMatchesPrefix(t *testing.T) {
	r := rng.New(7)
	n := 200
	q := make([]float64, n)
	for i := range q {
		if r.Float64() < 0.3 {
			q[i] = r.NormFloat64() * 5
		}
	}
	f := FromDense(q)
	pre := numeric.NewPrefixSSE(q)
	p := interval.Uniform(n, 17)
	stats := f.StatsFor(p)
	for i, iv := range p {
		if got, want := stats[i].SSE(), pre.SSE(iv.Lo, iv.Hi); !numeric.AlmostEqual(got, want, 1e-9) {
			t.Fatalf("piece %d: SSE %v vs prefix %v", i, got, want)
		}
		if got, want := stats[i].Mean(), pre.Mean(iv.Lo, iv.Hi); !numeric.AlmostEqual(got, want, 1e-9) {
			t.Fatalf("piece %d: Mean %v vs prefix %v", i, got, want)
		}
	}
}

func TestFlattenMassPreserving(t *testing.T) {
	// Flattening preserves the total mass Σq on every partition.
	r := rng.New(11)
	q := make([]float64, 300)
	for i := range q {
		q[i] = math.Abs(r.NormFloat64())
	}
	f := FromDense(q)
	for _, k := range []int{1, 3, 10, 100, 300} {
		p := interval.Uniform(300, k)
		flat := f.Flatten(p)
		if !numeric.AlmostEqual(numeric.Sum(flat), numeric.Sum(q), 1e-9) {
			t.Fatalf("k=%d: flattening changed total mass", k)
		}
	}
}

func TestFlattenErrorMatchesDense(t *testing.T) {
	r := rng.New(13)
	q := make([]float64, 128)
	for i := range q {
		q[i] = r.NormFloat64()
	}
	f := FromDense(q)
	p := interval.Uniform(128, 9)
	flat := f.Flatten(p)
	want := numeric.L2Dist(flat, q)
	got := f.FlattenError(p)
	if !numeric.AlmostEqual(got, want, 1e-9) {
		t.Fatalf("FlattenError = %v, dense = %v", got, want)
	}
}

// Property: the flattening over any partition is the best piecewise-constant
// approximation with those pieces — perturbing any piece value increases the
// ℓ2 error.
func TestFlattenOptimalityProperty(t *testing.T) {
	f := func(seed uint32, kRaw uint8) bool {
		r := rng.New(uint64(seed))
		n := 64
		q := make([]float64, n)
		for i := range q {
			q[i] = r.NormFloat64()
		}
		sf := FromDense(q)
		k := int(kRaw)%n + 1
		p := interval.Uniform(n, k)
		base := sf.FlattenError(p)
		flat := sf.Flatten(p)
		// Perturb one piece by ±0.1 and check error does not decrease.
		pi := int(seed) % len(p)
		for _, d := range []float64{0.1, -0.1} {
			mod := append([]float64(nil), flat...)
			for x := p[pi].Lo; x <= p[pi].Hi; x++ {
				mod[x-1] += d
			}
			if numeric.L2Dist(mod, q) < base-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: FlattenError is monotone under refinement — finer partitions
// never have larger error.
func TestFlattenErrorRefinementProperty(t *testing.T) {
	f := func(seed uint32) bool {
		r := rng.New(uint64(seed))
		n := 96
		q := make([]float64, n)
		for i := range q {
			q[i] = r.NormFloat64()
		}
		sf := FromDense(q)
		coarse := interval.Uniform(n, 4)
		fine := interval.Uniform(n, 16) // 16 = 4·4 pieces refine 4 uniform pieces of 96
		if !fine.Refines(coarse) {
			return true // only test when refinement holds structurally
		}
		return sf.FlattenError(fine) <= sf.FlattenError(coarse)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// The hot-path accessors must not allocate: Sum/SumSq stream over the
// entries with a compensated accumulator instead of materializing a slice.
func TestHotPathAllocations(t *testing.T) {
	q := make([]float64, 5000)
	r := rng.New(23)
	for i := range q {
		q[i] = r.NormFloat64()
	}
	f := FromDense(q)
	if allocs := testing.AllocsPerRun(10, func() { f.Sum() }); allocs > 0 {
		t.Fatalf("Sum allocates %v per call", allocs)
	}
	if allocs := testing.AllocsPerRun(10, func() { f.SumSq() }); allocs > 0 {
		t.Fatalf("SumSq allocates %v per call", allocs)
	}
	if allocs := testing.AllocsPerRun(10, func() { f.L2Norm() }); allocs > 0 {
		t.Fatalf("L2Norm allocates %v per call", allocs)
	}
}

// The streaming sums must agree bit for bit with the historical slice-based
// implementation (numeric.Sum over the materialized values).
func TestStreamingSumsMatchSliceSums(t *testing.T) {
	r := rng.New(29)
	q := make([]float64, 10000)
	for i := range q {
		q[i] = r.NormFloat64() * 1e6
	}
	f := FromDense(q)
	vals := make([]float64, 0, len(q))
	sqs := make([]float64, 0, len(q))
	for _, e := range f.Entries() {
		vals = append(vals, e.Value)
		sqs = append(sqs, e.Value*e.Value)
	}
	if got, want := f.Sum(), numeric.Sum(vals); got != want {
		t.Fatalf("Sum = %v, slice-based %v", got, want)
	}
	if got, want := f.SumSq(), numeric.Sum(sqs); got != want {
		t.Fatalf("SumSq = %v, slice-based %v", got, want)
	}
}
