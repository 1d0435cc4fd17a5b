// Benchmarks for the parallel merging engine: serial vs multi-worker
// Fit/FitFast/Hierarchy/Learn at large n. Run with:
//
//	go test -bench=Parallel -benchmem
//	REPRO_FULL=1 go test -bench=Parallel    # include n = 10⁶ cells
//
// Diff two commits cell by cell with benchstat over -count=10 runs. The
// end-to-end fit measurement is perfbench's fit workload (perfbench/README.md).
package histapprox

import (
	"os"
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/learn"
	"repro/internal/rng"
	"repro/internal/sparse"
)

// parallelBenchSizes keeps the default `go test -bench .` run fast; the
// full acceptance sweep at n = 10⁶ is enabled by REPRO_FULL=1.
func parallelBenchSizes() []int {
	if os.Getenv("REPRO_FULL") != "" {
		return []int{100_000, 1_000_000}
	}
	return []int{100_000}
}

var parallelWorkerCounts = []int{1, 2, 4, 0}

// parallelBenchData builds a deterministic dense input with 4k underlying
// steps plus noise — enough structure that the merging loop runs a
// realistic number of rounds, enough noise that no round degenerates. The
// series is strictly positive so it doubles as a weight vector for the
// learning benchmarks.
func parallelBenchData(n, k int) []float64 {
	r := rng.New(uint64(n) + 1)
	q := make([]float64, n)
	pieceLen := n/(4*k) + 1
	level := 0.0
	for i := range q {
		if i%pieceLen == 0 {
			level = r.NormFloat64() * 10
		}
		q[i] = 100 + level + 0.1*r.NormFloat64()
	}
	return q
}

func workersName(w int) string {
	if w == 0 {
		return "allcores"
	}
	return itoa(w) + "workers"
}

func BenchmarkParallelFit(b *testing.B) {
	for _, n := range parallelBenchSizes() {
		q := parallelBenchData(n, 50)
		sf := sparse.FromDense(q)
		for _, w := range parallelWorkerCounts {
			o := core.PaperOptions()
			o.Workers = w
			b.Run(itoa(n)+"/"+workersName(w), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := core.ConstructHistogram(sf, 50, o); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func BenchmarkParallelFitFast(b *testing.B) {
	for _, n := range parallelBenchSizes() {
		q := parallelBenchData(n, 50)
		sf := sparse.FromDense(q)
		for _, w := range parallelWorkerCounts {
			o := core.PaperOptions()
			o.Workers = w
			b.Run(itoa(n)+"/"+workersName(w), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := core.ConstructHistogramFast(sf, 50, o); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func BenchmarkParallelHierarchy(b *testing.B) {
	for _, n := range parallelBenchSizes() {
		q := parallelBenchData(n, 50)
		sf := sparse.FromDense(q)
		for _, w := range parallelWorkerCounts {
			b.Run(itoa(n)+"/"+workersName(w), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					core.ConstructHierarchicalHistogramWorkers(sf, w)
				}
			})
		}
	}
}

func BenchmarkParallelLearn(b *testing.B) {
	for _, n := range parallelBenchSizes() {
		q := parallelBenchData(n, 50)
		p, err := dist.FromWeights(q)
		if err != nil {
			b.Fatal(err)
		}
		samples := dist.DrawWorkers(p, 2*n, rng.New(7), 4) // fixed count: machine-independent input
		for _, w := range parallelWorkerCounts {
			o := core.PaperOptions()
			o.Workers = w
			b.Run(itoa(n)+"/"+workersName(w), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, _, err := learn.HistogramFromSamples(n, samples, 50, o); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func BenchmarkParallelDraw(b *testing.B) {
	p := dist.Uniform(100_000)
	for _, w := range parallelWorkerCounts {
		b.Run(workersName(w), func(b *testing.B) {
			r := rng.New(3)
			for i := 0; i < b.N; i++ {
				dist.DrawWorkers(p, 1_000_000, r, w)
			}
		})
	}
}

func BenchmarkParallelEmpirical(b *testing.B) {
	p := dist.Uniform(100_000)
	samples := dist.Draw(p, 2_000_000, rng.New(3))
	for _, w := range parallelWorkerCounts {
		b.Run(workersName(w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := dist.EmpiricalWorkers(100_000, samples, w); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
