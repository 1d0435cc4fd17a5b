package core

import (
	"testing"

	"repro/internal/datasets"
	"repro/internal/parallel"
	"repro/internal/rng"
	"repro/internal/sparse"
)

// BenchmarkFitStages times the stages of a merging fit one at a time, on a
// dense 2^20-point noisy step column and on the paper's dow dataset, with
// DefaultOptions (every core): FromDense; the count pass that lays I₀ out
// in blocks; round one, streamed from the entries; and a whole fit at
// k = 100, FromDense then ConstructHistogram as perfbench's fit workload
// runs them, whose B/op is everything one fit allocates.
//
//	go test -bench='^BenchmarkFitStages$' -run='^$' ./internal/core
func BenchmarkFitStages(b *testing.B) {
	const k = 100
	opts := DefaultOptions()
	for _, in := range []struct {
		name string
		q    []float64
	}{
		{"dense2^20", noisySteps(1<<20, 16, 7)},
		{"dow", datasets.Dow()},
	} {
		sf := sparse.FromDense(in.q)
		b.Run(in.name+"/fromDense", func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				sparse.FromDense(in.q)
			}
		})
		b.Run(in.name+"/count", func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				sf.Blocks(opts.Workers)
			}
		})
		b.Run(in.name+"/roundOne", func(b *testing.B) {
			bl := sf.Blocks(opts.Workers)
			b.ReportAllocs()
			for b.Loop() {
				m := &mergeState{workers: parallel.Resolve(opts.Workers)}
				m.initPasses()
				m.firstRound(bl, opts.KeepBudget(k))
			}
		})
		b.Run(in.name+"/fit_k100", func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := ConstructHistogram(sparse.FromDense(in.q), k, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// noisySteps returns n points of a step function with the given number of
// equal-width steps, levels in [0, 10), plus unit Gaussian noise.
func noisySteps(n, steps int, seed uint64) []float64 {
	r := rng.New(seed)
	q := make([]float64, n)
	level := 0.0
	for i := range q {
		if i%(n/steps) == 0 {
			level = 10 * r.Float64()
		}
		q[i] = level + r.NormFloat64()
	}
	return q
}
