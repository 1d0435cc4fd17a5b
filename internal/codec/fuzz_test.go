package codec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"testing"
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
	// The sequences again, into a buffer with room to spare.
	func(s vocab) (any, error) { return s.DeltaInts(make([]int, 0, 64)) },
	func(s vocab) (any, error) { return s.PackedFloat64s(make([]float64, 0, 65)) },
	func(s vocab) (any, error) { return s.Ints(make([]int, 0, 64)) },
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
	opDeltaIntsInto
	opPackedFloat64sInto
	opIntsInto
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
// every value and on success or failure with refDecoder, which reads the
// payload a byte at a time without the cursor, and a successful Reader
// must leave the stream positioned at the envelope that follows.
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
	seed([]byte{opDeltaIntsInto, opPackedFloat64sInto, opIntsInto, opInts},
		AppendDeltaInts(nil, []int{5, 6, 7}), AppendPackedFloat64s(nil, []float64{1, 2, 3}),
		AppendInts(nil, []int{9}), AppendInts(nil, make([]int, 40)))
	// Declared lengths of 2^28 elements over a few payload bytes.
	for _, op := range []byte{opFloat64s, opDeltaInts, opPackedFloat64s, opInts} {
		seed([]byte{op}, AppendUvarint(nil, maxElems), []byte{1, 2, 3})
	}

	sentinel := FinishFrame(AppendUvarint(AppendFrameHeader(nil, TagCDF), 12345), 0)
	f.Fuzz(func(t *testing.T, script, payload []byte) {
		if len(script) > 64 {
			script = script[:64]
		}
		frame := FinishFrame(append(AppendFrameHeader(nil, TagHistogram), payload...), 0)
		_, body, err := ParseFrame(frame)
		if err != nil {
			t.Fatalf("ParseFrame rejected a finished frame: %v", err)
		}
		ref := newRefDecoder(payload)
		want, wantOK := runScript(ref, script)
		wantOK = wantOK && ref.done()
		p := NewFramePayload(body)
		got, gotOK := runScript(&p, script)
		gotOK = gotOK && p.Done() == nil
		if gotOK != wantOK || !slices.Equal(got, want) {
			t.Fatalf("FramePayload read %v (ok=%v), the reference decoder %v (ok=%v) (script %x)",
				got, gotOK, want, wantOK, script)
		}

		stream := append(slices.Clip(frame), sentinel...)
		for name, wrap := range readerSources {
			src := wrap(bytes.NewReader(stream))
			r := NewReader(src)
			if tag, err := r.Header(); err != nil || tag != TagHistogram {
				t.Fatalf("%s: Header = %d, %v", name, tag, err)
			}
			got, gotOK := runScript(r, script)
			gotOK = gotOK && r.Close() == nil
			if gotOK != wantOK {
				t.Fatalf("%s: Reader ok=%v, the reference decoder ok=%v (script %x)", name, gotOK, wantOK, script)
			}
			// Values read inside the payload agree; a failed Reader may read
			// on past the payload where the reference stopped.
			if len(got) < len(want) || !slices.Equal(got[:len(want)], want) ||
				(wantOK && len(got) != len(want)) {
				t.Fatalf("%s: Reader read %v, the reference decoder %v", name, got, want)
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

// refDecoder is the payload vocabulary decoded a byte at a time, apart
// from cursor: varints through encoding/binary's ReadUvarint, floats and
// packed values assembled byte by byte, every sequence element checked as
// it is read. The cursor's window loops must match it on every value and
// on every failure. Each failure is a refFail naming its kind, which
// failKind reads off a cursor error.
type refDecoder struct{ r *bytes.Reader }

func newRefDecoder(payload []byte) *refDecoder { return &refDecoder{bytes.NewReader(payload)} }

// done reports whether every payload byte was read.
func (d *refDecoder) done() bool { return d.r.Len() == 0 }

// refFail is a reference decoding failure, named by kind.
type refFail string

func (f refFail) Error() string { return string(f) }

const (
	failShort    refFail = "short"
	failVarint   refFail = "varint overflow"
	failRange    refFail = "out of range"
	failLength   refFail = "length"
	failGap      refFail = "gap"
	failOverflow refFail = "sequence overflow"
	failNibble   refFail = "nibble"
	failFinite   refFail = "non-finite"
)

// failKind names the failure a cursor error reports, in refFail's terms.
func failKind(err error) refFail {
	for _, k := range []struct {
		phrase string
		kind   refFail
	}{
		{"short read", failShort},
		{"payload ends", failShort},
		{"overflows 64 bits", failVarint},
		{"out of range", failRange},
		{"exceeds sanity bound", failLength},
		{"bad sequence gap", failGap},
		{"sequence overflow", failOverflow},
		{"bad float control nibble", failNibble},
		{"non-finite value", failFinite},
	} {
		if bytes.Contains([]byte(err.Error()), []byte(k.phrase)) {
			return k.kind
		}
	}
	return refFail("unknown: " + err.Error())
}

func (d *refDecoder) ReadByte() (byte, error) {
	b, err := d.r.ReadByte()
	if err != nil {
		return 0, failShort
	}
	return b, nil
}

func (d *refDecoder) Uvarint() (uint64, error) {
	u, err := binary.ReadUvarint(d.r)
	switch {
	case err == nil:
		return u, nil
	case errors.Is(err, io.EOF), errors.Is(err, io.ErrUnexpectedEOF):
		return 0, failShort
	default:
		return 0, failVarint
	}
}

func (d *refDecoder) Varint() (int64, error) {
	u, err := d.Uvarint()
	return int64(u>>1) ^ -int64(u&1), err
}

func (d *refDecoder) Int() (int, error) {
	u, err := d.Uvarint()
	if err != nil {
		return 0, err
	}
	if u > MaxInt {
		return 0, failRange
	}
	return int(u), nil
}

func (d *refDecoder) SliceLen() (int, error) {
	u, err := d.Uvarint()
	if err != nil {
		return 0, err
	}
	if u > maxElems {
		return 0, failLength
	}
	return int(u), nil
}

// bigEndian assembles nb bytes, most significant first.
func (d *refDecoder) bigEndian(nb int) (uint64, error) {
	var x uint64
	for range nb {
		b, err := d.ReadByte()
		if err != nil {
			return 0, err
		}
		x = x<<8 | uint64(b)
	}
	return x, nil
}

func (d *refDecoder) Float64() (float64, error) {
	var x uint64
	for j := range 8 {
		b, err := d.ReadByte()
		if err != nil {
			return 0, err
		}
		x |= uint64(b) << (8 * j)
	}
	return math.Float64frombits(x), nil
}

func refFinite(f float64) error {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return failFinite
	}
	return nil
}

func (d *refDecoder) FiniteFloat64() (float64, error) {
	f, err := d.Float64()
	if err != nil {
		return 0, err
	}
	return f, refFinite(f)
}

func (d *refDecoder) Float64s() ([]float64, error) {
	k, err := d.SliceLen()
	if err != nil {
		return nil, err
	}
	var fs []float64
	for range k {
		f, err := d.FiniteFloat64()
		if err != nil {
			return nil, err
		}
		fs = append(fs, f)
	}
	return fs, nil
}

func (d *refDecoder) Ints([]int) ([]int, error) {
	k, err := d.SliceLen()
	if err != nil {
		return nil, err
	}
	var xs []int
	for range k {
		x, err := d.Int()
		if err != nil {
			return nil, err
		}
		xs = append(xs, x)
	}
	return xs, nil
}

func (d *refDecoder) DeltaInts([]int) ([]int, error) {
	k, err := d.SliceLen()
	if err != nil || k == 0 {
		return nil, err
	}
	start, err := d.Varint()
	if err != nil {
		return nil, err
	}
	if start < -MaxInt || start > MaxInt {
		return nil, failRange
	}
	xs := []int{int(start)}
	for len(xs) < k {
		gap, err := d.Uvarint()
		if err != nil {
			return nil, err
		}
		if gap == 0 || gap > MaxInt {
			return nil, failGap
		}
		prev := xs[len(xs)-1]
		if prev > math.MaxInt-int(gap) {
			return nil, failOverflow
		}
		xs = append(xs, prev+int(gap))
	}
	return xs, nil
}

func (d *refDecoder) PackedFloat64s([]float64) ([]float64, error) {
	k, err := d.SliceLen()
	if err != nil {
		return nil, err
	}
	var fs []float64
	var prev uint64
	for len(fs) < k {
		ctrl, err := d.ReadByte()
		if err != nil {
			return nil, err
		}
		lz := []int{int(ctrl >> 4), int(ctrl & 0x0f)}
		if lz[0] > 8 || lz[1] > 8 {
			return nil, failNibble
		}
		n := min(2, k-len(fs))
		var vals [2]uint64
		for j := range n {
			x, err := d.bigEndian(8 - lz[j])
			if err != nil {
				return nil, err
			}
			prev ^= x
			vals[j] = prev
		}
		for j := range n {
			f := math.Float64frombits(vals[j])
			if err := refFinite(f); err != nil {
				return nil, err
			}
			fs = append(fs, f)
		}
	}
	return fs, nil
}
