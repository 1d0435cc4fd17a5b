package codec

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"slices"
	"testing"
	"testing/iotest"
)

// vocab is the payload vocabulary both decoders speak, Source plus the raw
// float methods.
type vocab interface {
	Source
	Float64() (float64, error)
	Float64s() ([]float64, error)
}

// fuzzOps is the script alphabet: script byte b runs fuzzOps[b%len(fuzzOps)].
var fuzzOps = []func(vocab) (any, error){
	func(s vocab) (any, error) { return s.ReadByte() },
	func(s vocab) (any, error) { return s.Uvarint() },
	func(s vocab) (any, error) { return s.Varint() },
	func(s vocab) (any, error) { return s.Int() },
	func(s vocab) (any, error) { return s.SliceLen() },
	func(s vocab) (any, error) { return s.Float64() },
	func(s vocab) (any, error) { return s.FiniteFloat64() },
	func(s vocab) (any, error) { return s.Float64s() },
	func(s vocab) (any, error) { return s.DeltaInts(nil) },
	func(s vocab) (any, error) { return s.PackedFloat64s(nil) },
	func(s vocab) (any, error) { return s.Ints(nil) },
}

// Script bytes naming each op, in fuzzOps order.
const (
	opByte byte = iota
	opUvarint
	opVarint
	opInt
	opSliceLen
	opFloat64
	opFiniteFloat64
	opFloat64s
	opDeltaInts
	opPackedFloat64s
	opInts
)

// runScript decodes script from s and returns one rendering per value read,
// stopping at the first error; ok reports whether every op succeeded.
// Floats render as their bits, so -0 and NaN payloads compare exactly.
func runScript(s vocab, script []byte) (out []string, ok bool) {
	for _, b := range script {
		v, err := fuzzOps[int(b)%len(fuzzOps)](s)
		if err != nil {
			return out, false
		}
		switch v := v.(type) {
		case float64:
			out = append(out, fmt.Sprintf("f%x", math.Float64bits(v)))
		case []float64:
			bits := make([]uint64, len(v))
			for i, f := range v {
				bits[i] = math.Float64bits(f)
			}
			out = append(out, fmt.Sprintf("fs%x", bits))
		default:
			out = append(out, fmt.Sprintf("%T%v", v, v))
		}
	}
	return out, true
}

// FuzzReaderMatchesFrame decodes one scripted payload through both
// decoders: ParseFrame plus FramePayload, and Reader over a plain
// bytes.Reader and over sources that return one byte, half the request, or
// the final error together with the last bytes. Every decode must agree on
// every value and on success or failure, and a successful Reader must leave
// the stream positioned at the envelope that follows.
func FuzzReaderMatchesFrame(f *testing.F) {
	seed := func(script []byte, parts ...[]byte) {
		f.Add(script, bytes.Join(parts, nil))
	}
	seed([]byte{opByte}, []byte{0xab})
	seed([]byte{opUvarint, opUvarint}, AppendUvarint(nil, 0), AppendUvarint(nil, math.MaxUint64))
	seed([]byte{opVarint, opVarint}, AppendVarint(nil, -1), AppendVarint(nil, math.MinInt64))
	seed([]byte{opInt, opInt}, AppendUvarint(nil, 1<<40), AppendUvarint(nil, 1<<62))
	seed([]byte{opSliceLen, opSliceLen}, AppendUvarint(nil, maxElems), AppendUvarint(nil, maxElems+1))
	seed([]byte{opFloat64, opFloat64}, AppendFloat64(nil, -0.0), AppendFloat64(nil, math.NaN()))
	seed([]byte{opFiniteFloat64, opFiniteFloat64}, AppendFloat64(nil, math.Pi), AppendFloat64(nil, math.Inf(-1)))
	seed([]byte{opFloat64s}, AppendUvarint(nil, 3), AppendFloat64(nil, 1), AppendFloat64(nil, 2), AppendFloat64(nil, 3))
	seed([]byte{opDeltaInts}, AppendDeltaInts(nil, []int{-5, 0, 3, 1000, 1 << 40}))
	seed([]byte{opPackedFloat64s}, AppendPackedFloat64s(nil, []float64{1e-300, -1e300, 0.5, 0.5000001, 7}))
	seed([]byte{opInts, opInts}, AppendInts(nil, []int{0, 7, 1 << 40, MaxInt}), AppendInts(nil, []int{0, MaxInt + 1}))
	seed([]byte{opInt, opDeltaInts, opPackedFloat64s, opByte, opVarint},
		AppendUvarint(nil, 4), AppendDeltaInts(nil, []int{1, 2, 9, 80}),
		AppendPackedFloat64s(nil, []float64{3.25, 3.25, -1, 0}), []byte{7}, AppendVarint(nil, -300))
	// Declared lengths of 2^28 elements over a few payload bytes.
	for _, op := range []byte{opFloat64s, opDeltaInts, opPackedFloat64s, opInts} {
		seed([]byte{op}, AppendUvarint(nil, maxElems), []byte{1, 2, 3})
	}

	sentinel := FinishFrame(AppendUvarint(AppendFrameHeader(nil, TagCDF), 12345), 0)
	sources := map[string]func(io.Reader) io.Reader{
		"bytes":    func(r io.Reader) io.Reader { return r },
		"one byte": iotest.OneByteReader,
		"half":     iotest.HalfReader,
		"data err": iotest.DataErrReader,
	}
	f.Fuzz(func(t *testing.T, script, payload []byte) {
		if len(script) > 64 {
			script = script[:64]
		}
		frame := FinishFrame(append(AppendFrameHeader(nil, TagHistogram), payload...), 0)
		_, body, err := ParseFrame(frame)
		if err != nil {
			t.Fatalf("ParseFrame rejected a finished frame: %v", err)
		}
		p := NewFramePayload(body)
		want, wantOK := runScript(&p, script)
		wantOK = wantOK && p.Done() == nil

		stream := append(slices.Clip(frame), sentinel...)
		for name, wrap := range sources {
			src := wrap(bytes.NewReader(stream))
			r := NewReader(src)
			if tag, err := r.Header(); err != nil || tag != TagHistogram {
				t.Fatalf("%s: Header = %d, %v", name, tag, err)
			}
			got, gotOK := runScript(r, script)
			gotOK = gotOK && r.Close() == nil
			if gotOK != wantOK {
				t.Fatalf("%s: Reader ok=%v, FramePayload ok=%v (script %x)", name, gotOK, wantOK, script)
			}
			// Values read inside the payload agree; a failed Reader may read
			// on past the payload where FramePayload stopped.
			if len(got) < len(want) || !slices.Equal(got[:len(want)], want) ||
				(wantOK && len(got) != len(want)) {
				t.Fatalf("%s: Reader read %v, FramePayload %v", name, got, want)
			}
			if !gotOK {
				continue
			}
			next := NewReader(src)
			if tag, err := next.Header(); err != nil || tag != TagCDF {
				t.Fatalf("%s: envelope after the frame: Header = %d, %v", name, tag, err)
			}
			if v, err := next.Int(); err != nil || v != 12345 {
				t.Fatalf("%s: envelope after the frame: Int = %d, %v", name, v, err)
			}
			if err := next.Close(); err != nil {
				t.Fatalf("%s: envelope after the frame: Close: %v", name, err)
			}
		}
	})
}
