package core

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"testing"
	"testing/iotest"

	"repro/internal/interval"
	"repro/internal/rng"
	"repro/internal/sparse"
)

// The BenchmarkDecode* cells time one envelope decode over a plain
// bytes.Reader and over a source that returns one byte per Read, where a
// decoder that pulls its input a byte at a time would show.
//
//	go test -bench='^BenchmarkDecode' -run='^$' ./internal/core ./internal/wal

func benchmarkDecode(b *testing.B, blob []byte, decode func(io.Reader) error) {
	sources := []struct {
		name string
		wrap func(io.Reader) io.Reader
	}{
		{"bytes", func(r io.Reader) io.Reader { return r }},
		{"onebyte", iotest.OneByteReader},
	}
	for _, src := range sources {
		b.Run(src.name, func(b *testing.B) {
			b.SetBytes(int64(len(blob)))
			b.ReportAllocs()
			for range b.N {
				if err := decode(src.wrap(bytes.NewReader(blob))); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDecodeHistogram decodes histograms of 41, 401 and 4,001 pieces
// over a 200,000-point domain.
func BenchmarkDecodeHistogram(b *testing.B) {
	const n = 200_000
	for _, pieces := range []int{41, 401, 4001} {
		r := rng.New(uint64(pieces))
		ends := make([]int, pieces)
		values := make([]float64, pieces)
		for i := range ends {
			ends[i] = (i + 1) * n / pieces
			values[i] = (1 + 0.5*r.Float64()) / n
		}
		part, err := interval.FromBoundaries(n, ends)
		if err != nil {
			b.Fatal(err)
		}
		var blob bytes.Buffer
		if _, err := NewHistogram(n, part, values).WriteTo(&blob); err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("pieces=%d", pieces), func(b *testing.B) {
			benchmarkDecode(b, blob.Bytes(), func(r io.Reader) error {
				_, err := DecodeHistogram(r)
				return err
			})
		})
	}
}

// hierarchyServeInput is a 2^20-point column like the hierarchies
// perfbench's serve_read hosts: piecewise constant over n/256 pieces of
// random length, levels uniform in [0, 10), plus unit Gaussian noise,
// clipped at 0.
func hierarchyServeInput() *sparse.Func {
	const n = 1 << 20
	r := rng.New(n)
	q := make([]float64, n)
	level := 0.0
	for i := range q {
		if i == 0 || r.Intn(256) == 0 {
			level = 10 * r.Float64()
		}
		q[i] = max(0, level+r.NormFloat64())
	}
	return sparse.FromDense(q)
}

// BenchmarkDecodeHierarchy decodes the hierarchy of a 2^16-point noisy
// column and of hierarchyServeInput: the sparse input plus every level's
// boundaries. The 2^20-point cell also reports live-B, the heap one
// decoded hierarchy keeps reachable.
func BenchmarkDecodeHierarchy(b *testing.B) {
	r := rng.New(16)
	q := make([]float64, 1<<16)
	for i := range q {
		q[i] = 1 + r.NormFloat64()
	}
	for _, in := range []*sparse.Func{sparse.FromDense(q), hierarchyServeInput()} {
		var blob bytes.Buffer
		if _, err := ConstructHierarchicalHistogram(in).WriteTo(&blob); err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("points=%d", in.N()), func(b *testing.B) {
			benchmarkDecode(b, blob.Bytes(), func(r io.Reader) error {
				_, err := DecodeHierarchy(r)
				return err
			})
			if in.N() < 1<<20 {
				return
			}
			b.Run("live", func(b *testing.B) {
				var live uint64
				for range b.N {
					live = liveBytes(b, blob.Bytes())
				}
				b.ReportMetric(float64(live), "live-B")
			})
		})
	}
}

// liveBytes returns the heap a hierarchy decoded from blob keeps reachable.
func liveBytes(b *testing.B, blob []byte) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	h, err := DecodeHierarchy(bytes.NewReader(blob))
	if err != nil {
		b.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(h)
	return after.HeapAlloc - before.HeapAlloc
}

// BenchmarkEncodeHierarchy encodes the hierarchy of hierarchyServeInput
// into a reused buffer.
func BenchmarkEncodeHierarchy(b *testing.B) {
	h := ConstructHierarchicalHistogram(hierarchyServeInput())
	var blob bytes.Buffer
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		blob.Reset()
		if _, err := h.WriteTo(&blob); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(blob.Len()))
}

// BenchmarkConstructHierarchy builds the hierarchy of hierarchyServeInput
// serially and on all cores.
func BenchmarkConstructHierarchy(b *testing.B) {
	q := hierarchyServeInput()
	for _, w := range []int{1, 0} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				ConstructHierarchicalHistogramWorkers(q, w)
			}
		})
	}
}

// BenchmarkHierarchyForK resolves k = 10, 100 and 1000 on the hierarchy
// of hierarchyServeInput: the level's partition and its flattened
// histogram, as a server pays once per served level.
func BenchmarkHierarchyForK(b *testing.B) {
	h := ConstructHierarchicalHistogram(hierarchyServeInput())
	for _, k := range []int{10, 100, 1000} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				if _, err := h.ForK(k); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
