package codec

import (
	"bytes"
	"errors"
	"io"
	"math"
	"reflect"
	"runtime"
	"testing"
	"testing/iotest"
)

// roundTrip frames a payload written by fill and hands the bytes to a fresh
// Reader positioned after the header.
func roundTrip(t *testing.T, tag byte, fill func(*Writer)) (*Reader, []byte) {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf, tag)
	fill(w)
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if got := w.Len(); got != int64(buf.Len()) {
		t.Fatalf("Writer.Len() = %d, wrote %d bytes", got, buf.Len())
	}
	r := NewReader(bytes.NewReader(buf.Bytes()))
	got, err := r.Header()
	if err != nil {
		t.Fatalf("Header: %v", err)
	}
	if got != tag {
		t.Fatalf("tag = %d, want %d", got, tag)
	}
	return r, buf.Bytes()
}

func TestScalarRoundTrip(t *testing.T) {
	ints := []int{0, 1, 127, 128, 1 << 20, maxElems}
	varints := []int64{0, -1, 1, -(1 << 40), 1 << 40}
	floats := []float64{0, -0.0, 1.5, math.Pi, -math.MaxFloat64, math.SmallestNonzeroFloat64}
	r, _ := roundTrip(t, TagHistogram, func(w *Writer) {
		for _, v := range ints {
			w.Int(v)
		}
		for _, v := range varints {
			w.Varint(v)
		}
		for _, v := range floats {
			w.Float64(v)
		}
		w.Byte(0xab)
	})
	for _, want := range ints {
		got, err := r.Int()
		if err != nil || got != want {
			t.Fatalf("Int = %d, %v; want %d", got, err, want)
		}
	}
	for _, want := range varints {
		got, err := r.Varint()
		if err != nil || got != want {
			t.Fatalf("Varint = %d, %v; want %d", got, err, want)
		}
	}
	for _, want := range floats {
		got, err := r.Float64()
		if err != nil || math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("Float64 = %v, %v; want %v (bit-identical)", got, err, want)
		}
	}
	b, err := r.ReadByte()
	if err != nil || b != 0xab {
		t.Fatalf("ReadByte = %x, %v", b, err)
	}
	if err := r.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func TestDeltaIntsRoundTrip(t *testing.T) {
	seqs := [][]int{
		{},
		{1},
		{-5, 0, 3},
		{1, 2, 3, 1000, 1_000_000},
		{1, 600, MaxInt},
		{-MaxInt, 0, MaxInt},
	}
	for _, want := range seqs {
		r, _ := roundTrip(t, TagHistogram, func(w *Writer) { w.DeltaInts(want) })
		got, err := r.DeltaInts(nil)
		if err != nil {
			t.Fatalf("DeltaInts(%v): %v", want, err)
		}
		if len(got) != len(want) {
			t.Fatalf("DeltaInts(%v) = %v", want, got)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("DeltaInts(%v) = %v", want, got)
			}
		}
		if err := r.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
	}
}

// TestDeltaIntsRefusesPastMaxInt: a start or a gap above MaxInt is refused,
// as Int refuses such a value.
func TestDeltaIntsRefusesPastMaxInt(t *testing.T) {
	for _, xs := range [][]int{{MaxInt + 1}, {-MaxInt - 1, 0}, {0, MaxInt + 1}} {
		r, _ := roundTrip(t, TagHistogram, func(w *Writer) { w.DeltaInts(xs) })
		if got, err := r.DeltaInts(nil); err == nil {
			t.Fatalf("DeltaInts(%v) decoded as %v", xs, got)
		}
	}
}

func TestDeltaIntsRejectsNonIncreasing(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("DeltaInts accepted a non-increasing sequence")
		}
	}()
	w := NewWriter(io.Discard, TagHistogram)
	w.DeltaInts([]int{3, 3})
}

func TestPackedFloat64sRoundTrip(t *testing.T) {
	seqs := [][]float64{
		{},
		{0},
		{-0.0},
		{math.Pi},
		{1, 1, 1},
		{1e-300, -1e300, 0.5, 0.5000001},
		{-1, 2, -3, 4, -5},
	}
	r := rngLike(99)
	random := make([]float64, 257)
	for i := range random {
		random[i] = float64(r()) / float64(1<<63)
	}
	seqs = append(seqs, random)
	for _, want := range seqs {
		rd, _ := roundTrip(t, TagHistogram, func(w *Writer) { w.PackedFloat64s(want) })
		got, err := rd.PackedFloat64s(nil)
		if err != nil {
			t.Fatalf("PackedFloat64s(%v): %v", want, err)
		}
		if len(got) != len(want) {
			t.Fatalf("len = %d, want %d", len(got), len(want))
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("element %d: %v (bits %x), want %v (bits %x)",
					i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
			}
		}
		if err := rd.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
	}
}

// rngLike is a tiny splitmix so the test does not depend on internal/rng
// (codec must stay a leaf package).
func rngLike(seed uint64) func() int64 {
	return func() int64 {
		seed += 0x9e3779b97f4a7c15
		z := seed
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return int64((z ^ (z >> 31)) >> 1)
	}
}

func TestPackedFloat64sRejects(t *testing.T) {
	// Non-finite values are rejected on decode.
	for _, bad := range []float64{math.NaN(), math.Inf(1)} {
		r, _ := roundTrip(t, TagHistogram, func(w *Writer) { w.PackedFloat64s([]float64{1, bad}) })
		if _, err := r.PackedFloat64s(nil); err == nil {
			t.Fatalf("PackedFloat64s accepted %v", bad)
		}
	}
	// A control nibble above 8 is malformed.
	r, _ := roundTrip(t, TagHistogram, func(w *Writer) {
		w.Int(1)
		w.Byte(0x90)
	})
	if _, err := r.PackedFloat64s(nil); err == nil {
		t.Fatal("PackedFloat64s accepted control nibble 9")
	}
}

func TestFiniteFloat64Rejects(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		r, _ := roundTrip(t, TagHistogram, func(w *Writer) { w.Float64(bad) })
		if _, err := r.FiniteFloat64(); err == nil {
			t.Fatalf("FiniteFloat64 accepted %v", bad)
		}
	}
}

func TestHeaderRejectsBadEnvelope(t *testing.T) {
	good := func() []byte {
		var buf bytes.Buffer
		w := NewWriter(&buf, TagHistogram)
		w.Int(7)
		w.Close()
		return buf.Bytes()
	}()

	cases := map[string][]byte{
		"empty":       {},
		"short":       good[:3],
		"bad magic":   append([]byte("XXXX"), good[4:]...),
		"bad version": append(append([]byte{}, good[:4]...), append([]byte{99}, good[5:]...)...),
	}
	for name, data := range cases {
		r := NewReader(bytes.NewReader(data))
		if _, err := r.Header(); err == nil {
			t.Errorf("%s: Header accepted %v", name, data)
		}
	}
}

func TestCloseDetectsCorruption(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, TagHistogram)
	w.Float64s([]float64{1, 2, 3})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	// Flip one payload byte: Close must fail with ErrChecksum.
	corrupt := append([]byte{}, data...)
	corrupt[8] ^= 0x40
	r := NewReader(bytes.NewReader(corrupt))
	if _, err := r.Header(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Float64s(); err != nil {
		// Corruption may already trip payload validation; that is fine too.
		return
	}
	if err := r.Close(); !errors.Is(err, ErrChecksum) {
		t.Fatalf("Close on corrupted envelope = %v, want ErrChecksum", err)
	}

	// Truncation before the footer must error, not succeed.
	r = NewReader(bytes.NewReader(data[:len(data)-2]))
	if _, err := r.Header(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Float64s(); err != nil {
		return
	}
	if err := r.Close(); err == nil {
		t.Fatal("Close accepted a truncated envelope")
	}
}

func TestConcatenatedEnvelopes(t *testing.T) {
	var buf bytes.Buffer
	for i := 0; i < 3; i++ {
		w := NewWriter(&buf, byte(i+1))
		w.Int(i * 100)
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	stream := bytes.NewReader(buf.Bytes())
	for i := 0; i < 3; i++ {
		r := NewReader(stream)
		tag, err := r.Header()
		if err != nil {
			t.Fatalf("envelope %d: %v", i, err)
		}
		if tag != byte(i+1) {
			t.Fatalf("envelope %d: tag %d", i, tag)
		}
		v, err := r.Int()
		if err != nil || v != i*100 {
			t.Fatalf("envelope %d: Int = %d, %v", i, v, err)
		}
		if err := r.Close(); err != nil {
			t.Fatalf("envelope %d: Close: %v", i, err)
		}
	}
	if stream.Len() != 0 {
		t.Fatalf("%d bytes left over after three envelopes", stream.Len())
	}
}

// TestReaderResetMatchesFreshReaders: one Reader, Reset before each
// envelope, decodes consecutive envelopes on one stream exactly as a fresh
// Reader per envelope does: the same tags, values, lengths and CRC
// verdicts, with the window grown by a large envelope reused for a small
// one and the other way round, over whole and one-byte reads.
func TestReaderResetMatchesFreshReaders(t *testing.T) {
	var buf bytes.Buffer
	for i, size := range []int{5000, 3, 70000, 1} {
		w := NewWriter(&buf, byte(i+1))
		ints := make([]int, size)
		floats := make([]float64, size)
		for j := range ints {
			ints[j] = 3*j + i
			floats[j] = float64(j) / 7
		}
		w.Int(size)
		w.DeltaInts(ints)
		w.PackedFloat64s(floats)
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	type envelope struct {
		tag    byte
		size   int
		ints   []int
		floats []float64
		n      int64
	}
	decode := func(r *Reader) (envelope, error) {
		var e envelope
		var err error
		if e.tag, err = r.Header(); err != nil {
			return e, err
		}
		if e.size, err = r.Int(); err != nil {
			return e, err
		}
		if e.ints, err = r.DeltaInts(nil); err != nil {
			return e, err
		}
		if e.floats, err = r.PackedFloat64s(nil); err != nil {
			return e, err
		}
		err = r.Close()
		e.n = r.Len()
		return e, err
	}
	for _, wrap := range []func(io.Reader) io.Reader{
		func(r io.Reader) io.Reader { return r },
		iotest.OneByteReader,
	} {
		fresh, reset := wrap(bytes.NewReader(buf.Bytes())), wrap(bytes.NewReader(buf.Bytes()))
		r := NewReader(nil)
		for i := range 4 {
			want, werr := decode(NewReader(fresh))
			r.Reset(reset)
			got, gerr := decode(r)
			if werr != nil || gerr != nil {
				t.Fatalf("envelope %d: fresh reader %v, reset reader %v", i, werr, gerr)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("envelope %d: reset reader read tag %d, %d values, %d bytes; fresh reader tag %d, %d values, %d bytes",
					i, got.tag, len(got.ints), got.n, want.tag, len(want.ints), want.n)
			}
		}
		if _, err := NewReader(fresh).Header(); !errors.Is(err, io.EOF) {
			t.Fatalf("fresh readers left bytes: %v", err)
		}
		r.Reset(reset)
		if _, err := r.Header(); !errors.Is(err, io.EOF) {
			t.Fatalf("the reset reader left bytes: %v", err)
		}
	}
}

// TestDeclaredLengthsAllocateNothing declares the largest length SliceLen
// accepts (2^28 elements, 2 GiB as ints or floats) in a few-byte payload.
// Every sequence decoder must fail without allocating for the declaration.
// A decoder sizes its result by the bytes in its window, not by the
// declared length. A Reader refills that window by at most 64 KiB of
// promised bytes at a time, so a short source ends in a short read first.
// FramePayload's window is the whole payload.
func TestDeclaredLengthsAllocateNothing(t *testing.T) {
	payload := AppendUvarint(nil, maxElems)
	payload = append(payload, 1, 2, 3)
	frame := FinishFrame(append(AppendFrameHeader(nil, TagHistogram), payload...), 0)
	opaque := func(b []byte) io.Reader { return struct{ io.Reader }{bytes.NewReader(b)} }
	decoders := map[string]func(Source) error{
		"DeltaInts":      func(s Source) error { _, err := s.DeltaInts(nil); return err },
		"PackedFloat64s": func(s Source) error { _, err := s.PackedFloat64s(nil); return err },
	}
	for name, decode := range decoders {
		sources := map[string]func() Source{
			"Reader over bytes": func() Source {
				r := NewReader(bytes.NewReader(frame))
				r.Header()
				return r
			},
			"Reader over a stream": func() Source {
				r := NewReader(opaque(frame))
				r.Header()
				return r
			},
			"FramePayload": func() Source { p := NewFramePayload(payload); return &p },
		}
		for src, open := range sources {
			s := open()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := decode(s)
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Fatalf("%s from %s accepted 2^28 declared elements", name, src)
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
				t.Errorf("%s from %s allocated %d bytes for a declared length", name, src, grew)
			}
		}
	}
	r := NewReader(bytes.NewReader(frame))
	r.Header()
	if _, err := r.Float64s(); err == nil {
		t.Fatal("Float64s accepted 2^28 declared elements")
	}
}
