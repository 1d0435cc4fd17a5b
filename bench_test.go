// Benchmarks regenerating every table and figure of the paper, plus
// ablations for the design choices called out in DESIGN.md. Run with:
//
//	go test -bench=. -benchmem            # everything but the slowest DP
//	REPRO_FULL=1 go test -bench=Table1    # include exactdp on dow (minutes)
//
// Table 1 rows map to BenchmarkTable1_<algorithm>_<dataset>; Figure 2 cells
// map to BenchmarkFigure2_<algorithm>_<dataset>; Figure 1 to
// BenchmarkFigure1Generate. EXPERIMENTS.md records the measured outputs.
package histapprox

import (
	"os"
	"strconv"
	"testing"

	"repro/internal/baseline"
	"repro/internal/cheby"
	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/dist"
	"repro/internal/learn"
	"repro/internal/piecewise"
	"repro/internal/rng"
	"repro/internal/sparse"
)

// ---------------------------------------------------------------- Table 1

type table1Case struct {
	name string
	data func() []float64
	k    int
}

var table1Cases = []table1Case{
	{"Hist", datasets.Hist, datasets.HistK},
	{"Poly", datasets.Poly, datasets.PolyK},
	{"Dow", datasets.Dow, datasets.DowK},
}

func benchMerging(b *testing.B, fast bool, halveK bool) {
	for _, c := range table1Cases {
		b.Run(c.name, func(b *testing.B) {
			q := c.data()
			sf := sparse.FromDense(q)
			k := c.k
			if halveK {
				k = max(1, k/2)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var err error
				if fast {
					_, err = core.ConstructHistogramFast(sf, k, core.PaperOptions())
				} else {
					_, err = core.ConstructHistogram(sf, k, core.PaperOptions())
				}
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkTable1_Merging(b *testing.B)      { benchMerging(b, false, false) }
func BenchmarkTable1_Merging2(b *testing.B)     { benchMerging(b, false, true) }
func BenchmarkTable1_Fastmerging(b *testing.B)  { benchMerging(b, true, false) }
func BenchmarkTable1_Fastmerging2(b *testing.B) { benchMerging(b, true, true) }

func BenchmarkTable1_Dual(b *testing.B) {
	for _, c := range table1Cases {
		b.Run(c.name, func(b *testing.B) {
			q := c.data()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := baseline.Dual(q, c.k); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkTable1_GKS(b *testing.B) {
	for _, c := range table1Cases {
		if c.name == "Dow" && os.Getenv("REPRO_FULL") == "" {
			continue // several seconds per iteration; REPRO_FULL enables it
		}
		b.Run(c.name, func(b *testing.B) {
			q := c.data()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := baseline.GKSApprox(q, c.k, 0.1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkTable1_ExactDP(b *testing.B) {
	for _, c := range table1Cases {
		if c.name != "Hist" && os.Getenv("REPRO_FULL") == "" {
			continue // poly ≈ 0.5 s/op, dow ≈ minutes; REPRO_FULL enables
		}
		b.Run(c.name, func(b *testing.B) {
			q := c.data()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := baseline.ExactDP(q, c.k); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --------------------------------------------------------------- Figure 1

func BenchmarkFigure1Generate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = datasets.Hist()
		_ = datasets.Poly()
		_ = datasets.Dow()
	}
}

// --------------------------------------------------------------- Figure 2

type figure2Case struct {
	name string
	p    func() dist.Dist
	k    int
}

var figure2Cases = []figure2Case{
	{"HistPrime", datasets.HistPrime, datasets.HistK},
	{"PolyPrime", datasets.PolyPrime, datasets.PolyK},
	{"DowPrime", datasets.DowPrime, datasets.DowK},
}

// BenchmarkFigure2_Sampling isolates the first stage: drawing m = 10000
// samples.
func BenchmarkFigure2_Sampling(b *testing.B) {
	for _, c := range figure2Cases {
		b.Run(c.name, func(b *testing.B) {
			p := c.p()
			r := rng.New(1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dist.Draw(p, 10000, r)
			}
		})
	}
}

// BenchmarkFigure2_Merging measures one Figure 2 cell end to end: sample
// m = 10000 points and learn the merging hypothesis.
func BenchmarkFigure2_Merging(b *testing.B) {
	for _, c := range figure2Cases {
		b.Run(c.name, func(b *testing.B) {
			p := c.p()
			r := rng.New(1)
			samples := dist.Draw(p, 10000, r)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := learn.HistogramFromSamples(p.N(), samples, c.k, core.PaperOptions()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFigure2_ExactDP is the exactdp learner on the empirical
// distribution — the over-fitting-prone, much slower alternative in Fig. 2.
func BenchmarkFigure2_ExactDP(b *testing.B) {
	for _, c := range figure2Cases {
		if c.name == "DowPrime" && os.Getenv("REPRO_FULL") == "" {
			continue
		}
		b.Run(c.name, func(b *testing.B) {
			p := c.p()
			r := rng.New(1)
			emp, err := dist.Empirical(p.N(), dist.Draw(p, 10000, r))
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := baseline.ExactDP(emp.P, c.k); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ------------------------------------------------- Theorems 2.2 and 2.3

func BenchmarkMultiscale(b *testing.B) {
	q := datasets.Dow()
	sf := sparse.FromDense(q)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.ConstructHierarchicalHistogram(sf)
	}
}

func BenchmarkFitPoly(b *testing.B) {
	q := datasets.Poly()
	sf := sparse.FromDense(q)
	for _, d := range []int{1, 2, 5} {
		b.Run(string(rune('0'+d))+"degree", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := piecewise.FitPiecewisePoly(sf, datasets.PolyK, d, core.PaperOptions()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLearnScaling shows sample-linear learning: time vs m.
func BenchmarkLearnScaling(b *testing.B) {
	p := datasets.HistPrime()
	r := rng.New(1)
	for _, m := range []int{1000, 10000, 100000} {
		samples := dist.Draw(p, m, r)
		b.Run(itoa(m), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := learn.HistogramFromSamples(p.N(), samples, datasets.HistK, core.PaperOptions()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// -------------------------------------------------------------- Ablations

// BenchmarkAblationDelta: δ trades pieces for accuracy; the running time
// dependence is mild (Theorem 3.4).
func BenchmarkAblationDelta(b *testing.B) {
	q := datasets.Dow()
	sf := sparse.FromDense(q)
	for _, delta := range []float64{0.1, 1, 10, 1000} {
		b.Run(ftoa(delta), func(b *testing.B) {
			o := core.Options{Delta: delta, Gamma: 1}
			for i := 0; i < b.N; i++ {
				if _, err := core.ConstructHistogram(sf, datasets.DowK, o); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationGamma: γ = c(2+2/δ)k buys the O(s) bound of
// Corollary 3.1; γ = 1 pays an extra log factor on the tail rounds.
func BenchmarkAblationGamma(b *testing.B) {
	q := datasets.Dow()
	sf := sparse.FromDense(q)
	target := (2 + 2/1000.0) * float64(datasets.DowK)
	for _, gamma := range []float64{1, target, 4 * target} {
		b.Run(ftoa(gamma), func(b *testing.B) {
			o := core.Options{Delta: 1000, Gamma: gamma}
			for i := 0; i < b.N; i++ {
				if _, err := core.ConstructHistogram(sf, datasets.DowK, o); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationGramEvaluator: recurrence (production) vs the paper's
// explicit formula (cross-check oracle) for evaluating the Gram basis.
func BenchmarkAblationGramEvaluator(b *testing.B) {
	const n, d = 4096, 5
	b.Run("recurrence", func(b *testing.B) {
		basis, err := cheby.NewBasis(n, d)
		if err != nil {
			b.Fatal(err)
		}
		out := make([]float64, d+1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			basis.Eval(float64(i%n), out)
		}
	})
	b.Run("explicit", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := cheby.EvaluateGram(i%n, d, n); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ----------------------------------------------------------------- util

func itoa(x int) string { return strconv.Itoa(x) }

func ftoa(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }
