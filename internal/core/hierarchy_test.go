package core

import (
	"math"
	"slices"
	"testing"

	"repro/internal/numeric"
	"repro/internal/rng"
	"repro/internal/sparse"
)

func TestHierarchyLevelSizesDecrease(t *testing.T) {
	r := rng.New(59)
	q := make([]float64, 5000)
	for i := range q {
		q[i] = r.NormFloat64()
	}
	sf := sparse.FromDense(q)
	h := ConstructHierarchicalHistogram(sf)
	levels := h.Levels()
	if len(levels) < 2 {
		t.Fatalf("only %d levels", len(levels))
	}
	for i := 1; i < len(levels); i++ {
		if len(levels[i].Partition) >= len(levels[i-1].Partition) {
			t.Fatalf("level %d size %d did not decrease from %d",
				i, len(levels[i].Partition), len(levels[i-1].Partition))
		}
	}
	if last := len(levels[len(levels)-1].Partition); last >= 8 {
		t.Fatalf("final level has %d ≥ 8 pieces", last)
	}
	// Level errors are monotone non-decreasing as partitions coarsen.
	for i := 1; i < len(levels); i++ {
		if levels[i].Error < levels[i-1].Error-1e-9 {
			t.Fatalf("error decreased while coarsening at level %d", i)
		}
	}
	// The finest level is exact.
	if levels[0].Error != 0 {
		t.Fatalf("I0 error = %v, want 0", levels[0].Error)
	}
}

func TestHierarchyTheorem35(t *testing.T) {
	// For every k: pieces ≤ 8k and error ≤ 2·opt_k.
	r := rng.New(61)
	for trial := 0; trial < 10; trial++ {
		n := 60 + r.Intn(120)
		q := make([]float64, n)
		for i := range q {
			q[i] = r.NormFloat64() * 3
		}
		sf := sparse.FromDense(q)
		h := ConstructHierarchicalHistogram(sf)
		for k := 1; k <= 10; k++ {
			res, err := h.ForK(k)
			if err != nil {
				t.Fatal(err)
			}
			if res.Histogram.NumPieces() > 8*k {
				t.Fatalf("k=%d: %d pieces > 8k", k, res.Histogram.NumPieces())
			}
			opt := optK(q, k)
			if res.Error > 2*opt+1e-9 {
				t.Fatalf("trial %d k=%d: error %v > 2·opt = %v", trial, k, res.Error, 2*opt)
			}
		}
	}
}

func TestHierarchyExactRecovery(t *testing.T) {
	r := rng.New(67)
	for trial := 0; trial < 10; trial++ {
		n := 100 + r.Intn(400)
		k := 1 + r.Intn(6)
		q := randomKHistogram(r, n, k, 0)
		sf := sparse.FromDense(q)
		h := ConstructHierarchicalHistogram(sf)
		res, err := h.ForK(k)
		if err != nil {
			t.Fatal(err)
		}
		if res.Error > 1e-9 {
			t.Fatalf("trial %d: error %v on exact %d-histogram", trial, res.Error, k)
		}
	}
}

func TestHierarchyErrorEstimateMatchesFlattening(t *testing.T) {
	r := rng.New(71)
	q := make([]float64, 1000)
	for i := range q {
		q[i] = r.NormFloat64()
	}
	sf := sparse.FromDense(q)
	h := ConstructHierarchicalHistogram(sf)
	for k := 1; k <= 20; k += 3 {
		res, err := h.ForK(k)
		if err != nil {
			t.Fatal(err)
		}
		est, err := h.ErrorEstimate(k)
		if err != nil {
			t.Fatal(err)
		}
		want := res.Histogram.L2DistToDense(q)
		if !numeric.AlmostEqual(est, want, 1e-9) {
			t.Fatalf("k=%d: estimate %v, actual %v", k, est, want)
		}
	}
}

func TestHierarchyForKValidation(t *testing.T) {
	sf := sparse.FromDense([]float64{1, 2, 3})
	h := ConstructHierarchicalHistogram(sf)
	if _, err := h.ForK(0); err == nil {
		t.Fatal("k=0 should error")
	}
	if _, err := h.ErrorEstimate(-1); err == nil {
		t.Fatal("k<0 should error")
	}
}

func TestHierarchyLargeKReturnsExact(t *testing.T) {
	// If 8k exceeds |I0| the finest level is selected and the error is 0.
	q := []float64{5, 5, 1, 1, 9, 9, 9, 2}
	sf := sparse.FromDense(q)
	h := ConstructHierarchicalHistogram(sf)
	res, err := h.ForK(len(q))
	if err != nil {
		t.Fatal(err)
	}
	if res.Error != 0 {
		t.Fatalf("error = %v, want 0 for huge k", res.Error)
	}
}

// TestHierarchyForKHugeK: every k whose 8k overflows int still serves the
// finest level, which has at most 8k pieces.
func TestHierarchyForKHugeK(t *testing.T) {
	r := rng.New(71)
	q := make([]float64, 4000)
	for i := range q {
		q[i] = r.NormFloat64()
	}
	h := ConstructHierarchicalHistogram(sparse.FromDense(q))
	for _, k := range []int{1 << 59, 1 << 60, 1 << 62, math.MaxInt} {
		res, err := h.ForK(k)
		if err != nil {
			t.Fatal(err)
		}
		if res.Rounds != 0 || res.Error != 0 || len(res.Partition) != len(q) {
			t.Fatalf("ForK(%d): level %d with %d pieces, error %v; want the finest level", k, res.Rounds, len(res.Partition), res.Error)
		}
		if e, err := h.ErrorEstimate(k); err != nil || e != 0 {
			t.Fatalf("ErrorEstimate(%d) = %v, %v; want 0", k, e, err)
		}
		pieces, _, err := h.ParetoCurve([]int{k})
		if err != nil || pieces[0] != len(q) {
			t.Fatalf("ParetoCurve(%d) = %v, %v; want %d pieces", k, pieces, err, len(q))
		}
	}
}

func TestHierarchyParetoCurve(t *testing.T) {
	r := rng.New(73)
	q := make([]float64, 2000)
	for i := range q {
		q[i] = math.Sin(float64(i)/50)*5 + r.NormFloat64()
	}
	sf := sparse.FromDense(q)
	h := ConstructHierarchicalHistogram(sf)
	ks := []int{1, 2, 4, 8, 16, 32}
	pieces, errs, err := h.ParetoCurve(ks)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ks {
		if pieces[i] > 8*ks[i] {
			t.Fatalf("k=%d: %d pieces", ks[i], pieces[i])
		}
	}
	// Errors along the Pareto curve are non-increasing in k.
	for i := 1; i < len(errs); i++ {
		if errs[i] > errs[i-1]+1e-9 {
			t.Fatalf("Pareto error increased at k=%d: %v -> %v", ks[i], errs[i-1], errs[i])
		}
	}
}

func TestHierarchyZeroInput(t *testing.T) {
	sf, err := sparse.New(500, nil)
	if err != nil {
		t.Fatal(err)
	}
	h := ConstructHierarchicalHistogram(sf)
	res, err := h.ForK(1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Error != 0 || res.Histogram.NumPieces() != 1 {
		t.Fatal("zero function should be represented exactly by one piece")
	}
}

func TestHierarchySingleRunServesAllK(t *testing.T) {
	// One construction, many queries — the multi-scale promise. Verify the
	// queried levels are internally consistent: pieces(k) non-decreasing,
	// err(k) non-increasing.
	r := rng.New(79)
	q := make([]float64, 3000)
	for i := range q {
		q[i] = r.NormFloat64() * float64(1+i/500)
	}
	sf := sparse.FromDense(q)
	h := ConstructHierarchicalHistogram(sf)
	prevPieces, prevErr := 0, math.Inf(1)
	for k := 1; k <= 64; k *= 2 {
		res, err := h.ForK(k)
		if err != nil {
			t.Fatal(err)
		}
		if res.Histogram.NumPieces() < prevPieces {
			t.Fatalf("pieces decreased at k=%d", k)
		}
		if res.Error > prevErr+1e-9 {
			t.Fatalf("error increased at k=%d", k)
		}
		prevPieces, prevErr = res.Histogram.NumPieces(), res.Error
	}
}

// TestHierarchyForKPartitionMatchesLevels: for every level of several
// hierarchies, the partition ForK builds from the death bytes, a word of
// eight at a time, equals Levels()[li].Partition, which eachLevel builds
// by filtering I₀ level by level, and ForK serves it for the k that
// selects the level. The hierarchies cover I₀ lengths that are not a
// multiple of 8, live runs that cross a word, and a hand-built one of 200
// levels whose levels from 128 on are read byte by byte.
func TestHierarchyForKPartitionMatchesLevels(t *testing.T) {
	var hs []*Hierarchy
	for _, n := range []int{1, 7, 9, 15, 17, 100, 1001, 5003} {
		r := rng.New(uint64(n))
		q := make([]float64, n)
		for i := range q {
			q[i] = r.NormFloat64()
			if i%3 == 1 {
				q[i] = 0 // zero runs make I₀ lengths other than n
			}
		}
		hs = append(hs, ConstructHierarchicalHistogram(sparse.FromDense(q)))
	}
	hs = append(hs, deepHierarchy(200, 1003))

	var oddLength, crossesWord bool
	for _, h := range hs {
		oddLength = oddLength || len(h.ends)%8 != 0
		n := h.q.N()
		for li, lv := range h.Levels() {
			for i := 7; i+1 < len(h.death); i += 8 {
				crossesWord = crossesWord || int(h.death[i]) > li && int(h.death[i+1]) > li
			}
			p := h.partition(li)
			if !slices.Equal(p, lv.Partition) {
				t.Fatalf("|I₀| = %d, level %d of %d: partition %v, Levels %v",
					len(h.ends), li, h.NumLevels(), p, lv.Partition)
			}
			if p[len(p)-1].Hi != n {
				t.Fatalf("|I₀| = %d, level %d ends at %d, not n = %d", len(h.ends), li, p[len(p)-1].Hi, n)
			}
			k := (len(p) + 7) / 8
			if got, _ := h.LevelFor(k); got != li {
				continue // an earlier level already has at most 8k pieces
			}
			res, err := h.ForK(k)
			if err != nil || !slices.Equal(res.Partition, lv.Partition) || res.Error != lv.Error {
				t.Fatalf("|I₀| = %d: ForK(%d) = %v, %v, %v; level %d is %v, %v",
					len(h.ends), k, res.Partition, res.Error, err, li, lv.Partition, lv.Error)
			}
		}
	}
	if !oddLength || !crossesWord {
		t.Fatalf("coverage: an I₀ length not a multiple of 8 %v, a live run across a word %v", oddLength, crossesWord)
	}
}

// deepHierarchy hand-builds a hierarchy of the given number of levels over
// an I₀ of s unit intervals: each endpoint but the last dies at a random
// level, so a level can keep any subset of the one above it.
func deepHierarchy(levels, s int) *Hierarchy {
	r := rng.New(uint64(levels))
	q := make([]float64, s)
	for i := range q {
		q[i] = 1 + r.Float64()
	}
	h, _ := newHierarchy(sparse.FromDense(q), make([]int, s))
	for i := range h.ends {
		h.ends[i] = i + 1
		if i < s-1 {
			h.death[i] = uint8(1 + r.Intn(levels-1))
		}
	}
	for li := range levels {
		pieces := 0
		for _, d := range h.death {
			if int(d) > li {
				pieces++
			}
		}
		h.addLevel(pieces, float64(li))
	}
	return h
}
