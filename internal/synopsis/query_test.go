package synopsis

import (
	"fmt"
	"math"
	"os"
	"testing"

	"repro/internal/rng"
)

// queryTestFreq builds a deterministic skewed frequency vector with enough
// structure that a k-piece synopsis has k distinct buckets.
func queryTestFreq(n, steps int) []float64 {
	r := rng.New(uint64(n)*31 + uint64(steps))
	freq := make([]float64, n)
	level := 5.0
	stepLen := n/steps + 1
	for i := range freq {
		if i%stepLen == 0 {
			level = math.Abs(r.NormFloat64()) * 50
		}
		freq[i] = math.Floor(level + 3*r.Float64())
	}
	return freq
}

// estimateRangeLinear is the pre-index O(pieces) scan — clamp every piece
// to [a, b] and accumulate in piece order — kept as the reference oracle the
// indexed path is property-tested against (mathematically equal; the
// accumulation order differs, so the comparison is up to float rounding —
// the bit-identity oracle for the indexed semantics is core's linear replay
// in the query tests).
func (s histogramSynopsis) estimateRangeLinear(a, b int) (float64, error) {
	if err := checkRange(a, b, s.h.N()); err != nil {
		return 0, err
	}
	var total float64
	for _, pc := range s.h.Pieces() {
		lo, hi := max(pc.Lo, a), min(pc.Hi, b)
		if lo <= hi {
			total += float64(hi-lo+1) * pc.Value
		}
	}
	return total, nil
}

// buildSynopses returns every synopsis construction on the same vector, by
// name, so query properties are checked uniformly across estimators.
func buildSynopses(t *testing.T, freq []float64, k int) map[string]Synopsis {
	t.Helper()
	vopt, err := VOptimal(freq, k)
	if err != nil {
		t.Fatal(err)
	}
	ew, err := EquiWidth(freq, k)
	if err != nil {
		t.Fatal(err)
	}
	ed, err := EquiDepth(freq, k)
	if err != nil {
		t.Fatal(err)
	}
	wav, err := Wavelet(freq, 2*k)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Synopsis{"voptimal": vopt, "equiwidth": ew, "equidepth": ed, "wavelet": wav}
}

func testQuerySet(r *rng.RNG, n, count int) (as, bs []int) {
	as = make([]int, 0, count+3)
	bs = make([]int, 0, count+3)
	add := func(a, b int) { as = append(as, a); bs = append(bs, b) }
	add(1, n)
	add(1, 1)
	add(n, n)
	for i := 0; i < count; i++ {
		a := 1 + r.Intn(n)
		add(a, a+r.Intn(n-a+1))
	}
	return as, bs
}

func TestEstimateRangeMatchesLinearOracle(t *testing.T) {
	// The indexed EstimateRange must agree with the retained pre-index
	// linear scan on every histogram synopsis: bit-identical for ranges
	// inside one bucket, and up to accumulation-order rounding (scaled by
	// total mass) across buckets.
	freq := queryTestFreq(5000, 40)
	var mass float64
	for _, f := range freq {
		mass += f
	}
	r := rng.New(101)
	for name, s := range buildSynopses(t, freq, 16) {
		hs, ok := s.(histogramSynopsis)
		if !ok {
			continue // the wavelet estimator has no linear piece scan
		}
		as, bs := testQuerySet(r, s.N(), 400)
		for i := range as {
			got, err := s.EstimateRange(as[i], bs[i])
			if err != nil {
				t.Fatal(err)
			}
			want, err := hs.estimateRangeLinear(as[i], bs[i])
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(got-want) > 1e-12*(1+mass) {
				t.Fatalf("%s: EstimateRange(%d, %d) = %v, linear oracle %v",
					name, as[i], bs[i], got, want)
			}
			// Within a single bucket both paths compute the identical
			// product, so the agreement must be exact.
			if hs.h.PieceIndex(as[i]) == hs.h.PieceIndex(bs[i]) && got != want {
				t.Fatalf("%s: single-bucket EstimateRange(%d, %d) = %v not bit-identical to %v",
					name, as[i], bs[i], got, want)
			}
		}
	}
}

func TestEstimateRangeBatchBitIdenticalAcrossWorkers(t *testing.T) {
	freq := queryTestFreq(3000, 25)
	r := rng.New(103)
	for name, s := range buildSynopses(t, freq, 12) {
		as, bs := testQuerySet(r, s.N(), 2500)
		want := make([]float64, len(as))
		for i := range as {
			est, err := s.EstimateRange(as[i], bs[i])
			if err != nil {
				t.Fatal(err)
			}
			want[i] = est
		}
		for _, workers := range []int{1, 2, 8} {
			got, err := EstimateRangeBatch(s, as, bs, workers)
			if err != nil {
				t.Fatal(err)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s workers=%d: batch[%d] = %v, single = %v",
						name, workers, i, got[i], want[i])
				}
			}
		}
	}
}

func TestEstimateRangeBatchValidation(t *testing.T) {
	freq := queryTestFreq(100, 5)
	for name, s := range buildSynopses(t, freq, 4) {
		if _, err := EstimateRangeBatch(s, []int{1, 2}, []int{3}, 1); err == nil {
			t.Fatalf("%s: shape mismatch should error", name)
		}
		if _, err := EstimateRangeBatch(s, []int{0}, []int{3}, 1); err == nil {
			t.Fatalf("%s: out-of-domain batch query should error", name)
		}
		if _, err := EstimateRangeBatch(s, []int{5}, []int{4}, 1); err == nil {
			t.Fatalf("%s: reversed batch query should error", name)
		}
		out, err := EstimateRangeBatch(s, nil, nil, 1)
		if err != nil || len(out) != 0 {
			t.Fatalf("%s: empty batch should succeed, got %v, %v", name, out, err)
		}
	}
}

func TestEstimateRangeSteadyStateAllocs(t *testing.T) {
	// The acceptance bar for the serving path: zero allocations per query
	// once the index is warm, through the Synopsis interface.
	freq := queryTestFreq(20000, 60)
	var sink float64
	for name, s := range buildSynopses(t, freq, 32) {
		if _, err := s.EstimateRange(1, s.N()); err != nil { // warm the index
			t.Fatal(err)
		}
		if allocs := testing.AllocsPerRun(200, func() {
			est, err := s.EstimateRange(17, 19555)
			if err != nil {
				t.Fatal(err)
			}
			sink += est
		}); allocs != 0 {
			t.Fatalf("%s: EstimateRange allocates %v/op at steady state, want 0", name, allocs)
		}
	}
	_ = sink
}

// TestRangeQueryAsymptotics is the satellite check that the package doc's
// O(log pieces) claim is now real: at k = 1000 the indexed EstimateRange
// must beat the retained O(pieces) linear scan by a wide margin. The true
// ratio is ~two orders of magnitude; the 3× assertion bar leaves headroom
// for CI noise. Set REPRO_SKIP_TIMING=1 to skip on wildly loaded machines.
func TestRangeQueryAsymptotics(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison skipped in -short mode")
	}
	if os.Getenv("REPRO_SKIP_TIMING") != "" {
		t.Skip("REPRO_SKIP_TIMING set")
	}
	freq := queryTestFreq(100000, 4000)
	s, err := VOptimal(freq, 1000)
	if err != nil {
		t.Fatal(err)
	}
	hs := s.(histogramSynopsis)
	k := s.Pieces()
	if k < 1000 {
		t.Fatalf("fixture too small: %d pieces", k)
	}
	r := rng.New(107)
	as, bs := testQuerySet(r, s.N(), 512)
	if _, err := s.EstimateRange(1, s.N()); err != nil {
		t.Fatal(err)
	}
	indexed := testing.Benchmark(func(b *testing.B) {
		var acc float64
		for i := 0; i < b.N; i++ {
			q := i % len(as)
			est, _ := s.EstimateRange(as[q], bs[q])
			acc += est
		}
		_ = acc
	})
	linear := testing.Benchmark(func(b *testing.B) {
		var acc float64
		for i := 0; i < b.N; i++ {
			q := i % len(as)
			est, _ := hs.estimateRangeLinear(as[q], bs[q])
			acc += est
		}
		_ = acc
	})
	ratio := float64(linear.NsPerOp()) / float64(indexed.NsPerOp())
	t.Logf("k = %d: indexed %d ns/op, linear %d ns/op, ratio %.1fx",
		k, indexed.NsPerOp(), linear.NsPerOp(), ratio)
	if ratio < 3 {
		t.Fatalf("indexed EstimateRange only %.2fx faster than the linear scan at k = %d; "+
			"the O(log pieces) documentation claim is not being delivered", ratio, k)
	}
}

func BenchmarkEstimateRange(b *testing.B) {
	for _, k := range []int{10, 100, 1000} {
		freq := queryTestFreq(100000, 4*k)
		s, err := VOptimal(freq, k)
		if err != nil {
			b.Fatal(err)
		}
		hs := s.(histogramSynopsis)
		r := rng.New(109)
		as, bs := testQuerySet(r, s.N(), 512)
		if _, err := s.EstimateRange(1, s.N()); err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("indexed/k=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			var acc float64
			for i := 0; i < b.N; i++ {
				q := i % len(as)
				est, _ := s.EstimateRange(as[q], bs[q])
				acc += est
			}
			_ = acc
		})
		b.Run(fmt.Sprintf("linear/k=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			var acc float64
			for i := 0; i < b.N; i++ {
				q := i % len(as)
				est, _ := hs.estimateRangeLinear(as[q], bs[q])
				acc += est
			}
			_ = acc
		})
	}
}
