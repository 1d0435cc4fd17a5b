package bench

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/sparse"
	"repro/internal/stream"
)

// codecHistogram builds the codec size bar's k-piece synopsis: a learned-
// style summary of a non-negative frequency vector normalized to total mass
// 1, so piece values are full-precision small doubles. It draws the same
// vector as internal/core's codecBenchHistogram.
func codecHistogram(t *testing.T, n, k int) *core.Histogram {
	t.Helper()
	r := rng.New(uint64(n)*7 + uint64(k))
	q := make([]float64, n)
	var total float64
	for i := range q {
		q[i] = math.Abs(1 + 0.5*r.NormFloat64())
		total += q[i]
	}
	for i := range q {
		q[i] /= total
	}
	res, err := core.ConstructHistogram(sparse.FromDense(q), k, core.PaperOptions())
	if err != nil {
		t.Fatal(err)
	}
	return res.Histogram
}

// histogramSizes returns the binary envelope's and the JSON form's byte
// counts for h, after checking that both decode.
func histogramSizes(t *testing.T, h *core.Histogram) (binary, jsonBytes int) {
	t.Helper()
	jsonBlob, err := json.Marshal(h)
	if err != nil {
		t.Fatal(err)
	}
	var back core.Histogram
	if err := json.Unmarshal(jsonBlob, &back); err != nil {
		t.Fatalf("JSON form does not decode: %v", err)
	}
	var buf bytes.Buffer
	if _, err := h.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := core.DecodeHistogram(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("binary envelope does not decode: %v", err)
	}
	return buf.Len(), len(jsonBlob)
}

// TestCodecSizeAcceptanceK1000 pins the codec's size bar on the
// 200,000-point mass-1 histogram: at k = 1000 the binary envelope must be at
// most 1/3 the bytes of the JSON form.
func TestCodecSizeAcceptanceK1000(t *testing.T) {
	h := codecHistogram(t, 200_000, 1000)
	bin, js := histogramSizes(t, h)
	if 3*bin > js {
		t.Fatalf("binary = %d bytes, JSON = %d bytes (ratio %.3f): want ≤ 1/3",
			bin, js, float64(bin)/float64(js))
	}
	t.Logf("k=1000: binary %d bytes (%.1f/piece), JSON %d bytes, ratio %.3f",
		bin, float64(bin)/float64(h.NumPieces()), js, float64(bin)/float64(js))
}

// TestCodecBenchQuickRuns runs the quick codec grid (n = 20,000, k ∈ {10,
// 100}, 20,000 stream updates): every histogram and maintainer checkpoint
// encodes to non-empty bytes and decodes, and the binary histogram is
// smaller than its JSON form at every k.
func TestCodecBenchQuickRuns(t *testing.T) {
	const n, updates = 20_000, 20_000
	for _, k := range []int{10, 100} {
		bin, js := histogramSizes(t, codecHistogram(t, n, k))
		if bin <= 0 || js <= 0 {
			t.Fatalf("k=%d: empty encoding: binary %d bytes, JSON %d bytes", k, bin, js)
		}
		if bin >= js {
			t.Fatalf("binary not smaller than JSON at k=%d: ratio %.3f", k, float64(bin)/float64(js))
		}

		m, err := stream.NewMaintainer(n, k, 0, core.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		r := rng.New(uint64(k) + 99)
		for i := 0; i < updates; i++ {
			if err := m.Add(1+r.Intn(n), 1+r.NormFloat64()/8); err != nil {
				t.Fatal(err)
			}
		}
		var buf bytes.Buffer
		if err := m.Snapshot(&buf); err != nil {
			t.Fatal(err)
		}
		if buf.Len() == 0 {
			t.Fatalf("k=%d: empty maintainer checkpoint", k)
		}
		if _, err := stream.RestoreMaintainer(bytes.NewReader(buf.Bytes())); err != nil {
			t.Fatalf("k=%d: maintainer checkpoint does not restore: %v", k, err)
		}
	}
}
