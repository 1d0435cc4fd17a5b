package histapprox

import (
	"bytes"
	"math"
	"testing"
)

// FuzzHistogramCodec throws arbitrary bytes at the binary decoder. The
// contract under fuzzing: never panic, never allocate absurdly, and any
// envelope that decodes successfully must re-encode canonically — the
// encode→decode→encode fixed point that pins the wire format.
func FuzzHistogramCodec(f *testing.F) {
	opts := DefaultOptions()
	opts.Workers = 1
	// Seed with valid envelopes of several shapes plus near-miss mutations.
	for _, k := range []int{1, 4, 40} {
		h, _, err := Fit(codecData(257), k, &opts)
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := h.WriteTo(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
		mutated := append([]byte{}, buf.Bytes()...)
		mutated[len(mutated)/2] ^= 0x55
		f.Add(mutated)
	}
	hier, err := FitMultiscaleWorkers(codecData(257), 1)
	if err != nil {
		f.Fatal(err)
	}
	var hierBuf bytes.Buffer
	if _, err := hier.WriteTo(&hierBuf); err != nil {
		f.Fatal(err)
	}
	f.Add(hierBuf.Bytes())
	if cdf, err := NewCDF(mustFit(f, codecData(64), 3, &opts)); err == nil {
		var buf bytes.Buffer
		if _, err := cdf.WriteTo(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte("HSYN"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := Decode(bytes.NewReader(data))
		if err != nil {
			return // malformed input must be rejected, and was
		}
		var first bytes.Buffer
		if err := Encode(&first, v); err != nil {
			t.Fatalf("decoded object failed to re-encode: %v", err)
		}
		v2, err := Decode(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded envelope failed to decode: %v", err)
		}
		var second bytes.Buffer
		if err := Encode(&second, v2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatal("encode→decode→encode is not a fixed point")
		}
	})
}

// FuzzWindowedSnapshot is FuzzSummarySnapshot's sliding-window twin: a
// windowed maintainer advances through fuzz-chosen epoch seals, snapshots at
// a fuzz-chosen cut (a TagWindowed envelope carrying the epoch ring), and the
// restored engine must be indistinguishable — identical re-snapshot bytes,
// bit-identical windowed and decayed answers, and a bit-identical final
// summary after both see the same remaining stream and seals.
func FuzzWindowedSnapshot(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 250, 0, 9, 9, 77}, uint8(4), uint8(3))
	f.Add([]byte{}, uint8(0), uint8(0))
	f.Add(bytes.Repeat([]byte{128, 255, 7}, 60), uint8(33), uint8(11))

	f.Fuzz(func(t *testing.T, data []byte, cutByte, periodByte uint8) {
		const n, W = 300, 3
		period := 1 + int(periodByte)%40
		opts := DefaultOptions()
		opts.Workers = 1
		straight, err := NewWindowedStreamingHistogram(n, 3, W, 16, &opts)
		if err != nil {
			t.Fatal(err)
		}
		crashy, err := NewWindowedStreamingHistogram(n, 3, W, 16, &opts)
		if err != nil {
			t.Fatal(err)
		}
		step := func(m *StreamingHistogram, i int) {
			point := 1 + (int(data[i])*7+i)%n
			w := float64(i%17) + 0.5
			if i%5 == 0 {
				w = -w
			}
			if err := m.Add(point, w); err != nil {
				t.Fatal(err)
			}
			if (i+1)%period == 0 {
				if err := m.Advance(); err != nil {
					t.Fatal(err)
				}
			}
		}
		cut := 0
		if len(data) > 0 {
			cut = int(cutByte) % (len(data) + 1)
		}
		for i := 0; i < cut; i++ {
			step(straight, i)
			step(crashy, i)
		}
		var ckpt bytes.Buffer
		if err := crashy.Snapshot(&ckpt); err != nil {
			t.Fatal(err)
		}
		restored, err := RestoreStreamingHistogram(bytes.NewReader(ckpt.Bytes()))
		if err != nil {
			t.Fatalf("own windowed snapshot failed to restore: %v", err)
		}
		if !restored.Windowed() || restored.WindowEpochs() != W || restored.Tick() != crashy.Tick() {
			t.Fatalf("restored windowed=%v epochs=%d tick=%d, want true/%d/%d",
				restored.Windowed(), restored.WindowEpochs(), restored.Tick(), W, crashy.Tick())
		}
		var again bytes.Buffer
		if err := restored.Snapshot(&again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ckpt.Bytes(), again.Bytes()) {
			t.Fatal("windowed snapshot → restore → snapshot bytes differ")
		}
		for w := 0; w <= W; w++ {
			for _, hl := range []float64{0, 1.25} {
				want, err1 := crashy.EstimateRangeOver(1, n, w, hl)
				got, err2 := restored.EstimateRangeOver(1, n, w, hl)
				if err1 != nil || err2 != nil || math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("EstimateRangeOver(1, n, %d, %g): %v vs %v (%v, %v)", w, hl, got, want, err1, err2)
				}
			}
		}
		for i := cut; i < len(data); i++ {
			step(straight, i)
			step(restored, i)
		}
		hw, err := straight.SummaryOver(0, 0)
		if err != nil {
			t.Fatal(err)
		}
		hg, err := restored.SummaryOver(0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if hw.NumPieces() != hg.NumPieces() {
			t.Fatalf("restored run: %d pieces, uninterrupted: %d", hg.NumPieces(), hw.NumPieces())
		}
		for i, pc := range hw.Pieces() {
			gpc := hg.Pieces()[i]
			if gpc.Interval != pc.Interval || math.Float64bits(gpc.Value) != math.Float64bits(pc.Value) {
				t.Fatalf("piece %d differs between restored and uninterrupted runs", i)
			}
		}
	})
}

func mustFit(f *testing.F, q []float64, k int, opts *Options) *Histogram {
	h, _, err := Fit(q, k, opts)
	if err != nil {
		f.Fatal(err)
	}
	return h
}

// FuzzSummarySnapshot drives a streaming maintainer with a fuzz-derived
// update stream, checkpoints it at a fuzz-chosen cut, and verifies the
// restored maintainer is indistinguishable from the original: identical
// snapshot bytes, EstimateRange answers, and final summaries after both see
// the same remaining stream.
func FuzzSummarySnapshot(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 250, 0, 9, 9, 77}, uint8(4))
	f.Add([]byte{}, uint8(0))
	f.Add(bytes.Repeat([]byte{128, 255, 7}, 60), uint8(33))

	f.Fuzz(func(t *testing.T, data []byte, cutByte uint8) {
		const n = 300
		opts := DefaultOptions()
		opts.Workers = 1
		straight, err := NewStreamingHistogram(n, 3, 16, &opts)
		if err != nil {
			t.Fatal(err)
		}
		crashy, err := NewStreamingHistogram(n, 3, 16, &opts)
		if err != nil {
			t.Fatal(err)
		}
		// Each input byte is one update: point from the byte, weight from its
		// position (negative every fifth update to cover deletions).
		update := func(m *StreamingHistogram, i int) {
			point := 1 + (int(data[i])*7+i)%n
			w := float64(i%17) + 0.5
			if i%5 == 0 {
				w = -w
			}
			if err := m.Add(point, w); err != nil {
				t.Fatal(err)
			}
		}
		cut := 0
		if len(data) > 0 {
			cut = int(cutByte) % (len(data) + 1)
		}
		for i := 0; i < cut; i++ {
			update(straight, i)
			update(crashy, i)
		}
		var ckpt bytes.Buffer
		if err := crashy.Snapshot(&ckpt); err != nil {
			t.Fatal(err)
		}
		restored, err := RestoreStreamingHistogram(bytes.NewReader(ckpt.Bytes()))
		if err != nil {
			t.Fatalf("own snapshot failed to restore: %v", err)
		}
		var again bytes.Buffer
		if err := restored.Snapshot(&again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ckpt.Bytes(), again.Bytes()) {
			t.Fatal("snapshot → restore → snapshot bytes differ")
		}
		for _, r := range [][2]int{{1, n}, {n / 3, 2 * n / 3}, {5, 5}} {
			want, err1 := crashy.EstimateRange(r[0], r[1])
			got, err2 := restored.EstimateRange(r[0], r[1])
			if err1 != nil || err2 != nil || math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("EstimateRange(%d, %d): %v vs %v", r[0], r[1], got, want)
			}
		}
		for i := cut; i < len(data); i++ {
			update(straight, i)
			update(restored, i)
		}
		hw, err := straight.Summary()
		if err != nil {
			t.Fatal(err)
		}
		hg, err := restored.Summary()
		if err != nil {
			t.Fatal(err)
		}
		if hw.NumPieces() != hg.NumPieces() {
			t.Fatalf("restored run: %d pieces, uninterrupted: %d", hg.NumPieces(), hw.NumPieces())
		}
		for i, pc := range hw.Pieces() {
			gpc := hg.Pieces()[i]
			if gpc.Interval != pc.Interval || math.Float64bits(gpc.Value) != math.Float64bits(pc.Value) {
				t.Fatalf("piece %d differs between restored and uninterrupted runs", i)
			}
		}
	})
}
