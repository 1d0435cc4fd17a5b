package main

import (
	"math"
	"math/rand/v2"
	"slices"
)

// Input generation. Everything here is generator work: it runs outside
// every timed span and every metric, and it depends only on the seed.

// newRand returns the generator for one named input stream of a seed, so
// inputs do not shift when another stream draws more or fewer numbers.
func newRand(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// Column families: a planted truth plus Gaussian noise. The truths are made
// of many random parts, so the error of a k-piece fit concentrates and
// err_ratio moves little from seed to seed.
const (
	famHist = iota // piecewise constant
	famPoly        // piecewise quadratic
	famZipf        // Zipf frequencies over a shuffled domain
	numFamilies
)

// column returns a column of n values of the given family and the ℓ2 norm
// of the noise planted in it. noise scales the Gaussian noise; clip makes
// every value non-negative (frequency columns), after which the planted
// noise is the clipped difference.
func column(r *rand.Rand, family, n int, noise float64, clip bool) ([]float64, float64) {
	truth := make([]float64, n)
	switch family {
	case famHist:
		cuts := randomCuts(r, n, max(2, n/256))
		for i := range len(cuts) - 1 {
			v := 10 * r.Float64()
			for x := cuts[i]; x < cuts[i+1]; x++ {
				truth[x] = v
			}
		}
	case famPoly:
		cuts := randomCuts(r, n, max(2, n/4096))
		for i := range len(cuts) - 1 {
			a, b, c := 5+5*r.Float64(), 10*r.Float64()-5, 10*r.Float64()-5
			w := float64(cuts[i+1] - cuts[i])
			for x := cuts[i]; x < cuts[i+1]; x++ {
				t := float64(x-cuts[i]) / w
				truth[x] = a + b*t + c*t*t
			}
		}
	case famZipf:
		perm := r.Perm(n)
		for rank, x := range perm {
			truth[x] = 1000 * math.Pow(float64(rank+1), -1.1)
		}
	}
	data := make([]float64, n)
	var ss float64
	for i, t := range truth {
		v := t + noise*r.NormFloat64()
		if clip && v < 0 {
			v = 0
		}
		data[i] = v
		ss += (v - t) * (v - t)
	}
	return data, math.Sqrt(ss)
}

// randomCuts returns pieces+1 sorted distinct cut positions from 0 to n.
func randomCuts(r *rand.Rand, n, pieces int) []int {
	pieces = min(pieces, n)
	seen := map[int]bool{0: true, n: true}
	cuts := []int{0, n}
	for len(cuts) < pieces+1 {
		x := 1 + r.IntN(n-1)
		if !seen[x] {
			seen[x] = true
			cuts = append(cuts, x)
		}
	}
	slices.Sort(cuts)
	return cuts
}

// newZipf draws Zipf(1.1) ranks in [0, n).
func newZipf(r *rand.Rand, n int) *rand.Zipf { return rand.NewZipf(r, 1.1, 1, uint64(n-1)) }

// logUniformRange returns a range [a, b] of [1, n] whose width is
// log-uniform in [1, n].
func logUniformRange(r *rand.Rand, n int) (int, int) {
	w := int(math.Exp(r.Float64() * math.Log(float64(n))))
	w = min(max(w, 1), n)
	a := 1 + r.IntN(n-w+1)
	return a, a + w - 1
}

// prefixSums returns p with p[i] = data[0] + … + data[i-1].
func prefixSums(data []float64) []float64 {
	p := make([]float64, len(data)+1)
	for i, v := range data {
		p[i+1] = p[i] + v
	}
	return p
}

// relClose reports whether got matches want to within a relative tolerance
// scaled by scale (the magnitude the answers are computed from).
func relClose(got, want, scale float64) bool {
	return math.Abs(got-want) <= 1e-9*math.Max(1, scale)
}
