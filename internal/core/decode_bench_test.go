package core

import (
	"bytes"
	"fmt"
	"io"
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

// BenchmarkDecodeHierarchy decodes the hierarchy of a 2^16-point dense
// input: its sparse function plus every level's boundaries.
func BenchmarkDecodeHierarchy(b *testing.B) {
	r := rng.New(16)
	q := make([]float64, 1<<16)
	for i := range q {
		q[i] = 1 + r.NormFloat64()
	}
	var blob bytes.Buffer
	if _, err := ConstructHierarchicalHistogram(sparse.FromDense(q)).WriteTo(&blob); err != nil {
		b.Fatal(err)
	}
	benchmarkDecode(b, blob.Bytes(), func(r io.Reader) error {
		_, err := DecodeHierarchy(r)
		return err
	})
}
