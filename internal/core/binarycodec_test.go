package core

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"runtime"
	"testing"

	"repro/internal/codec"
	"repro/internal/interval"
	"repro/internal/rng"
	"repro/internal/sparse"
)

// adversarialVectors are the shared fixtures of the codec property tests:
// shapes that stress boundary deltas (single piece, all-singleton pieces),
// float values (negatives, denormal-scale magnitudes, exact zeros), and
// domain sizes around the index fast paths.
func adversarialVectors(t *testing.T) map[string][]float64 {
	t.Helper()
	r := rng.New(1315)
	noisy := make([]float64, 700)
	for i := range noisy {
		noisy[i] = r.NormFloat64() * math.Pow(10, float64(i%7-3))
	}
	step := make([]float64, 256)
	for i := range step {
		step[i] = float64(i / 64)
	}
	spiky := make([]float64, 300)
	for i := 0; i < len(spiky); i += 37 {
		spiky[i] = float64(i) * 1e-9
	}
	return map[string][]float64{
		"single point": {42.5},
		"two points":   {-1, 1},
		"constant":     {3, 3, 3, 3, 3, 3, 3, 3},
		"step":         step,
		"noisy":        noisy,
		"spiky sparse": spiky,
	}
}

func encodeHistogram(t *testing.T, h *Histogram) []byte {
	t.Helper()
	var buf bytes.Buffer
	if n, err := h.WriteTo(&buf); err != nil || n != int64(buf.Len()) {
		t.Fatalf("WriteTo = %d, %v (buffer %d)", n, err, buf.Len())
	}
	return buf.Bytes()
}

func TestHistogramBinaryRoundTripBitIdentical(t *testing.T) {
	for name, q := range adversarialVectors(t) {
		for _, k := range []int{1, 3, 17} {
			res, err := ConstructHistogram(sparse.FromDense(q), k, DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			h := res.Histogram
			blob := encodeHistogram(t, h)
			back, err := DecodeHistogram(bytes.NewReader(blob))
			if err != nil {
				t.Fatalf("%s k=%d: decode: %v", name, k, err)
			}
			if back.N() != h.N() || back.NumPieces() != h.NumPieces() {
				t.Fatalf("%s k=%d: shape n=%d pieces=%d", name, k, back.N(), back.NumPieces())
			}
			for i, pc := range h.Pieces() {
				bpc := back.Pieces()[i]
				if bpc.Interval != pc.Interval || math.Float64bits(bpc.Value) != math.Float64bits(pc.Value) {
					t.Fatalf("%s k=%d: piece %d differs: %+v vs %+v", name, k, i, bpc, pc)
				}
			}
			// encode→decode→encode must produce identical bytes.
			if !bytes.Equal(blob, encodeHistogram(t, back)) {
				t.Fatalf("%s k=%d: re-encoded bytes differ", name, k)
			}
			// Every query must answer identically.
			for i := 1; i <= h.N(); i++ {
				if math.Float64bits(back.At(i)) != math.Float64bits(h.At(i)) {
					t.Fatalf("%s k=%d: At(%d) differs", name, k, i)
				}
			}
			if math.Float64bits(back.RangeSum(1, h.N())) != math.Float64bits(h.RangeSum(1, h.N())) {
				t.Fatalf("%s k=%d: RangeSum differs", name, k)
			}
		}
	}
}

func TestHistogramBinaryIsCompactVsJSON(t *testing.T) {
	// A learned-distribution summary: non-negative frequencies normalized to
	// mass 1, so piece values are full-precision small doubles — the shape
	// the paper's synopses actually ship.
	r := rng.New(23)
	q := make([]float64, 100000)
	var total float64
	for i := range q {
		q[i] = math.Abs(1 + 0.5*r.NormFloat64())
		total += q[i]
	}
	for i := range q {
		q[i] /= total
	}
	res, err := ConstructHistogram(sparse.FromDense(q), 100, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	jsonBlob, err := json.Marshal(res.Histogram)
	if err != nil {
		t.Fatal(err)
	}
	binBlob := encodeHistogram(t, res.Histogram)
	if 3*len(binBlob) > len(jsonBlob) {
		t.Fatalf("binary %d bytes vs JSON %d bytes: want ≤ 1/3", len(binBlob), len(jsonBlob))
	}
}

// codecBenchHistogram builds the size gate's k-piece synopsis: a learned-
// style summary of a non-negative frequency vector normalized to total mass
// 1, so piece values are full-precision small doubles — the shape the
// paper's synopses actually ship (and the shape the acceptance ratio is
// defined on).
func codecBenchHistogram(t *testing.T, n, k int) *Histogram {
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
	res, err := ConstructHistogram(sparse.FromDense(q), k, PaperOptions())
	if err != nil {
		t.Fatal(err)
	}
	return res.Histogram
}

// TestHistogramBinarySizeVsJSON is the codec's size gate on the
// 200,000-point mass-1 histogram: the binary envelope is smaller than the
// JSON form at every k, and at most 1/3 of it at k = 1000.
func TestHistogramBinarySizeVsJSON(t *testing.T) {
	for _, k := range []int{10, 100, 1000} {
		h := codecBenchHistogram(t, 200_000, k)
		jsonBlob, err := json.Marshal(h)
		if err != nil {
			t.Fatal(err)
		}
		binBlob := encodeHistogram(t, h)
		ratio := float64(len(binBlob)) / float64(len(jsonBlob))
		if len(binBlob) >= len(jsonBlob) {
			t.Errorf("k=%d: binary %d bytes, JSON %d bytes (ratio %.3f): want binary smaller",
				k, len(binBlob), len(jsonBlob), ratio)
		}
		if k == 1000 && 3*len(binBlob) > len(jsonBlob) {
			t.Errorf("k=%d: binary %d bytes, JSON %d bytes (ratio %.3f): want ≤ 1/3",
				k, len(binBlob), len(jsonBlob), ratio)
		}
		t.Logf("k=%d: binary %d bytes (%.1f/piece), JSON %d bytes, ratio %.3f",
			k, len(binBlob), float64(len(binBlob))/float64(h.NumPieces()), len(jsonBlob), ratio)
	}
}

// TestHistogramBinaryLargeDomain is the regression test for the decoder's
// length-sanity bound leaking onto value integers: a synopsis of a huge
// domain is tiny on the wire (that is the whole point) and must round-trip
// even when n itself is far above any sane element count.
func TestHistogramBinaryLargeDomain(t *testing.T) {
	const n = 300_000_000
	h := NewHistogram(n,
		interval.Partition{interval.New(1, 1_000_000), interval.New(1_000_001, n)},
		[]float64{2.5, 0.125})
	blob := encodeHistogram(t, h)
	back, err := DecodeHistogram(bytes.NewReader(blob))
	if err != nil {
		t.Fatalf("large-domain histogram failed to decode: %v", err)
	}
	if back.N() != n || back.At(n) != 0.125 {
		t.Fatalf("large-domain round trip mangled the histogram: n=%d", back.N())
	}
}

// mutate flips or truncates encoded bytes; decoding must error, never panic
// or return a malformed histogram.
func TestHistogramBinaryRejectsMalformed(t *testing.T) {
	h := NewHistogram(10, interval.Partition{interval.New(1, 4), interval.New(5, 10)}, []float64{1, -2})
	good := encodeHistogram(t, h)

	// Wrong tag.
	var buf bytes.Buffer
	w := codec.NewWriter(&buf, codec.TagHierarchy)
	EncodeHistogramPayload(w, h)
	w.Close()
	if _, err := DecodeHistogram(bytes.NewReader(buf.Bytes())); err == nil {
		t.Error("accepted a hierarchy-tagged envelope")
	}

	// NaN value.
	buf.Reset()
	w = codec.NewWriter(&buf, codec.TagHistogram)
	w.Int(10)
	w.DeltaInts([]int{4, 10})
	w.PackedFloat64s([]float64{math.NaN(), 1})
	w.Close()
	if _, err := DecodeHistogram(bytes.NewReader(buf.Bytes())); err == nil {
		t.Error("accepted a NaN piece value")
	}

	// Partition not ending at n.
	buf.Reset()
	w = codec.NewWriter(&buf, codec.TagHistogram)
	w.Int(10)
	w.DeltaInts([]int{4, 9})
	w.PackedFloat64s([]float64{1, 2})
	w.Close()
	if _, err := DecodeHistogram(bytes.NewReader(buf.Bytes())); err == nil {
		t.Error("accepted a short partition")
	}

	// Truncations at every byte must error.
	for cut := 0; cut < len(good); cut++ {
		if _, err := DecodeHistogram(bytes.NewReader(good[:cut])); err == nil {
			t.Fatalf("accepted truncation at %d/%d bytes", cut, len(good))
		}
	}

	// Single-bit corruption must never round-trip silently to different
	// pieces: either decoding errors (payload validation or CRC) or — never —
	// succeeds with altered content.
	for pos := 6; pos < len(good)-1; pos++ {
		bad := append([]byte{}, good...)
		bad[pos] ^= 0x10
		if got, err := DecodeHistogram(bytes.NewReader(bad)); err == nil {
			t.Fatalf("corruption at byte %d decoded silently to %v", pos, got)
		}
	}
}

// TestDecodeResetsQueryIndex is the regression test for the stale-index bug
// class: decoding into an already-queried histogram must drop the lazily
// built Eytzinger index, for the JSON and the binary path alike — otherwise
// At would keep serving the old partition.
func TestDecodeResetsQueryIndex(t *testing.T) {
	mkHist := func(v float64) *Histogram {
		return NewHistogram(100,
			interval.Partition{interval.New(1, 50), interval.New(51, 100)},
			[]float64{v, -v})
	}
	oldH := mkHist(1)
	newH := NewHistogram(100,
		interval.Partition{interval.New(1, 10), interval.New(11, 100)},
		[]float64{7, 9})

	t.Run("binary", func(t *testing.T) {
		h := mkHist(1)
		_ = h.At(60) // force the index to build on the old partition
		if _, err := h.ReadFrom(bytes.NewReader(encodeHistogram(t, newH))); err != nil {
			t.Fatal(err)
		}
		for i := 1; i <= 100; i++ {
			if got, want := h.At(i), newH.At(i); got != want {
				t.Fatalf("At(%d) = %v after ReadFrom, want %v (stale index?)", i, got, want)
			}
		}
		if got, want := h.RangeSum(1, 100), newH.RangeSum(1, 100); got != want {
			t.Fatalf("RangeSum = %v after ReadFrom, want %v", got, want)
		}
	})

	t.Run("json", func(t *testing.T) {
		h := mkHist(1)
		_ = h.At(60)
		blob, err := json.Marshal(newH)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(blob, h); err != nil {
			t.Fatal(err)
		}
		for i := 1; i <= 100; i++ {
			if got, want := h.At(i), newH.At(i); got != want {
				t.Fatalf("At(%d) = %v after UnmarshalJSON, want %v (stale index?)", i, got, want)
			}
		}
	})

	// A failed decode must leave the receiver (and its index) untouched.
	t.Run("failed decode keeps receiver", func(t *testing.T) {
		h := mkHist(3)
		_ = h.At(60)
		bad := encodeHistogram(t, newH)
		bad[len(bad)-1] ^= 0xff // corrupt the CRC footer
		if _, err := h.ReadFrom(bytes.NewReader(bad)); err == nil {
			t.Fatal("corrupted envelope decoded")
		}
		if got, want := h.At(60), oldH.At(60)*3; got != want {
			t.Fatalf("receiver changed by failed decode: At(60) = %v, want %v", got, want)
		}
	})
}

func TestHierarchyBinaryRoundTrip(t *testing.T) {
	for name, q := range adversarialVectors(t) {
		sf := sparse.FromDense(q)
		h := ConstructHierarchicalHistogram(sf)
		var buf bytes.Buffer
		if _, err := h.WriteTo(&buf); err != nil {
			t.Fatalf("%s: encode: %v", name, err)
		}
		blob := append([]byte{}, buf.Bytes()...)
		back, err := DecodeHierarchy(bytes.NewReader(blob))
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		// encode→decode→encode bit-identity.
		buf.Reset()
		if _, err := back.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(blob, buf.Bytes()) {
			t.Fatalf("%s: re-encoded bytes differ", name)
		}
		if back.NumLevels() != h.NumLevels() {
			t.Fatalf("%s: %d levels, want %d", name, back.NumLevels(), h.NumLevels())
		}
		for _, k := range []int{1, 2, 5, 40} {
			want, err := h.ForK(k)
			if err != nil {
				t.Fatal(err)
			}
			got, err := back.ForK(k)
			if err != nil {
				t.Fatalf("%s: restored ForK(%d): %v", name, k, err)
			}
			if math.Float64bits(got.Error) != math.Float64bits(want.Error) || got.Rounds != want.Rounds {
				t.Fatalf("%s: ForK(%d) meta differs", name, k)
			}
			for i := 1; i <= sf.N(); i++ {
				if math.Float64bits(got.Histogram.At(i)) != math.Float64bits(want.Histogram.At(i)) {
					t.Fatalf("%s: ForK(%d).At(%d) differs", name, k, i)
				}
			}
		}
		we, _ := h.ErrorEstimate(3)
		ge, err := back.ErrorEstimate(3)
		if err != nil || math.Float64bits(ge) != math.Float64bits(we) {
			t.Fatalf("%s: ErrorEstimate differs: %v vs %v (%v)", name, ge, we, err)
		}
	}
}

func TestHierarchyBinaryRejectsMalformed(t *testing.T) {
	q := make([]float64, 64)
	for i := range q {
		q[i] = float64(i % 9)
	}
	h := ConstructHierarchicalHistogram(sparse.FromDense(q))
	var buf bytes.Buffer
	if _, err := h.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	for cut := 0; cut < len(good); cut += 3 {
		if _, err := DecodeHierarchy(bytes.NewReader(good[:cut])); err == nil {
			t.Fatalf("accepted truncation at %d/%d bytes", cut, len(good))
		}
	}

	// Non-nested levels must be rejected: level 1 is not a coarsening of
	// level 0 here.
	var bad bytes.Buffer
	w := codec.NewWriter(&bad, codec.TagHierarchy)
	EncodeSparsePayload(w, sparse.FromDense([]float64{1, 2, 3, 4, 5, 6}))
	w.Int(2)
	w.DeltaInts([]int{2, 4, 6})
	w.Float64(0)
	w.DeltaInts([]int{3, 6})
	w.Float64(1)
	w.Close()
	if _, err := DecodeHierarchy(bytes.NewReader(bad.Bytes())); err == nil {
		t.Error("accepted non-nested hierarchy levels")
	}
}

// TestHierarchyDeclaredLevelsAllocateNothing declares 2^22 and then 2^28
// levels in an envelope of a few bytes. The decoder must fail without
// sizing anything by the declaration, from a bytes.Reader and from a
// stream that cannot tell how much is left.
func TestHierarchyDeclaredLevelsAllocateNothing(t *testing.T) {
	q, err := sparse.New(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	opaque := func(b []byte) io.Reader { return struct{ io.Reader }{bytes.NewReader(b)} }
	for _, declared := range []int{1 << 22, 1 << 28} {
		var buf bytes.Buffer
		w := codec.NewWriter(&buf, codec.TagHierarchy)
		EncodeSparsePayload(w, q)
		w.Int(declared)
		w.DeltaInts([]int{1})
		w.Float64(0)
		w.Close()
		for name, src := range map[string]io.Reader{
			"bytes":  bytes.NewReader(buf.Bytes()),
			"stream": opaque(buf.Bytes()),
		} {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := DecodeHierarchy(src)
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Fatalf("%d-byte envelope declaring %d levels decoded from %s", buf.Len(), declared, name)
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
				t.Fatalf("%d declared levels from %s allocated %d bytes", declared, name, grew)
			}
		}
	}
}

// TestHierarchyLevelCountLimit: a well-formed hierarchy of maxLevels levels
// decodes and re-encodes byte for byte; one more level is refused.
func TestHierarchyLevelCountLimit(t *testing.T) {
	const n = 300
	q, err := sparse.New(n, []sparse.Entry{{Index: 7, Value: 1.5}, {Index: 200, Value: -2}})
	if err != nil {
		t.Fatal(err)
	}
	// Level li keeps 1, …, pieces−1 and n: one endpoint fewer per level,
	// down to 7 pieces.
	levels := func(count int) [][]int {
		var out [][]int
		for pieces := count + 6; pieces >= 7; pieces-- {
			ends := make([]int, pieces)
			for i := range ends {
				ends[i] = i + 1
			}
			ends[pieces-1] = n
			out = append(out, ends)
		}
		return out
	}
	blob := hierarchyEnvelope(q, levels(maxLevels)...)
	h, err := DecodeHierarchy(bytes.NewReader(blob))
	if err != nil {
		t.Fatalf("%d levels: %v", maxLevels, err)
	}
	var re bytes.Buffer
	if _, err := h.WriteTo(&re); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(re.Bytes(), blob) {
		t.Fatalf("%d levels: re-encoded bytes differ", maxLevels)
	}
	if last := h.Levels()[maxLevels-1].Partition; len(last) != 7 || last[5].Hi != 6 || last[6].Lo != 7 {
		t.Fatalf("final level %v, want six singletons and [7, %d]", last, n)
	}
	if _, err := DecodeHierarchy(bytes.NewReader(hierarchyEnvelope(q, levels(maxLevels+1)...))); err == nil {
		t.Fatalf("%d levels decoded", maxLevels+1)
	}
}

// TestHierarchyRoundsFitDeathByte: a round over s ≥ 8 intervals merges
// ⌊s/2⌋ − ⌊s/4⌋ pairs, and the count it leaves grows with s, so the
// largest I₀ an int can index bounds the number of levels Algorithm 2 can
// record. It stays below maxLevels, so a death byte always suffices.
func TestHierarchyRoundsFitDeathByte(t *testing.T) {
	for _, tc := range []struct{ s, rounds int }{{1 << 20, 41}, {1 << 62, 142}, {math.MaxInt, 145}} {
		s, rounds := tc.s, 0
		for s >= 8 {
			s -= s/2 - s/4
			rounds++
		}
		if rounds != tc.rounds || rounds+1 > maxLevels {
			t.Fatalf("|I₀| = %d: %d rounds, want %d and at most %d levels", tc.s, rounds, tc.rounds, maxLevels)
		}
	}
}
