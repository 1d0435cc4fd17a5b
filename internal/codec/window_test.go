package codec

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"reflect"
	"runtime"
	"sort"
	"testing"
	"testing/iotest"
)

// readerSources are the byte sources a Reader decodes from in the window
// tests and FuzzReaderMatchesFrame: whole reads, one byte per Read, half
// the request, and the final error together with the last bytes.
var readerSources = map[string]func(io.Reader) io.Reader{
	"bytes":    func(r io.Reader) io.Reader { return r },
	"one byte": iotest.OneByteReader,
	"half":     iotest.HalfReader,
	"data err": iotest.DataErrReader,
}

// seqBody is one length-prefixed sequence as its prefix and each
// element's bytes (a packed sequence's elements are its pairs), decoded by
// fuzzOps[op].
type seqBody struct {
	name   string
	op     byte
	prefix []byte
	elems  [][]byte
}

func (s seqBody) payload() []byte {
	return bytes.Join(append([][]byte{s.prefix}, s.elems...), nil)
}

// withElem returns s with element e's bytes replaced.
func (s seqBody) withElem(e int, b []byte) seqBody {
	s.elems = append([][]byte(nil), s.elems...)
	s.elems[e] = b
	return s
}

// paddedUvarint returns u as a uvarint of exactly w bytes, w at least its
// shortest width: continuation bytes that add nothing pad it out, and the
// decoders accept them.
func paddedUvarint(u uint64, w int) []byte {
	b := binary.AppendUvarint(nil, u)
	if len(b) > w {
		panic(fmt.Sprintf("uvarint %d takes %d bytes, more than %d", u, len(b), w))
	}
	for len(b) < w {
		b[len(b)-1] |= 0x80
		b = append(b, 0)
	}
	return b
}

// varintWidth returns a varint width: 1 byte half the time, the common
// width, and otherwise 2 to 10.
func varintWidth(r func() int64) int {
	if r()%2 == 0 {
		return 1
	}
	return 2 + int(r()%9)
}

// overlongVarint is eleven bytes, one more than any uvarint may take.
var overlongVarint = append(bytes.Repeat([]byte{0xff}, 10), 1)

// seqElems is how many elements each window test sequence holds: at least
// three Reader windows even at one byte each.
const seqElems = 200_003

func intsBody(r func() int64) seqBody {
	s := seqBody{name: "Ints", op: opInts, prefix: AppendUvarint(nil, seqElems)}
	for range seqElems {
		w := varintWidth(r)
		u := uint64(r()) & MaxInt
		if w < 9 {
			u &= 1<<(7*w) - 1
		}
		s.elems = append(s.elems, paddedUvarint(u, w))
	}
	return s
}

// deltaBody starts at MaxInt, so a gap of MaxInt after the second element
// overflows.
func deltaBody(r func() int64) seqBody {
	s := seqBody{name: "DeltaInts", op: opDeltaInts,
		prefix: AppendVarint(AppendUvarint(nil, seqElems), MaxInt)}
	for range seqElems - 1 {
		s.elems = append(s.elems, paddedUvarint(1+uint64(r()%100), varintWidth(r)))
	}
	return s
}

// packedValues returns seqElems finite values, each differing from the one
// before in 0 to 8 low bytes, so pairs take 1 to 17 bytes.
func packedValues(r func() int64) []float64 {
	fs := make([]float64, seqElems)
	var prev uint64
	for i := range fs {
		for {
			nb := int(r() % 9)
			var x uint64
			if nb > 0 {
				x = (uint64(r())<<1 | 1<<63) >> (64 - 8*nb)
			}
			if f := math.Float64frombits(prev ^ x); !math.IsNaN(f) && !math.IsInf(f, 0) {
				fs[i], prev = f, prev^x
				break
			}
		}
	}
	return fs
}

// packedBody splits AppendPackedFloat64s's bytes for fs into pairs.
func packedBody(fs []float64) seqBody {
	s := seqBody{name: "PackedFloat64s", op: opPackedFloat64s, prefix: AppendUvarint(nil, uint64(len(fs)))}
	b := AppendPackedFloat64s(nil, fs)[len(s.prefix):]
	for i := 0; i < len(fs); i += 2 {
		w := 1 + 8 - int(b[0]>>4) + 8 - int(b[0]&0x0f)
		s.elems, b = append(s.elems, b[:w]), b[w:]
	}
	return s
}

func floatsBody(r func() int64) seqBody {
	s := seqBody{name: "Float64s", op: opFloat64s, prefix: AppendUvarint(nil, seqElems)}
	for range seqElems {
		f := math.Float64frombits(uint64(r()) << 1)
		if math.IsNaN(f) || math.IsInf(f, 0) {
			f = 1
		}
		s.elems = append(s.elems, AppendFloat64(nil, f))
	}
	return s
}

// bitsOf renders a decoded value for comparison, floats as their bits.
func bitsOf(v any) any {
	if fs, ok := v.([]float64); ok {
		bits := make([]uint64, len(fs))
		for i, f := range fs {
			bits[i] = math.Float64bits(f)
		}
		return bits
	}
	return v
}

// decodeAll decodes s through the reference decoder, FramePayload and a
// Reader over every source. Each must return the reference's value, or
// fail with its kind; a Reader that succeeds must also verify the footer
// and leave the stream at the envelope after it.
func decodeAll(t *testing.T, s seqBody) (any, error) {
	t.Helper()
	payload := s.payload()
	op := fuzzOps[s.op]
	want, wantErr := op(newRefDecoder(payload))
	check := func(src string, got any, err error) {
		t.Helper()
		switch {
		case (err == nil) != (wantErr == nil):
			t.Fatalf("%s from %s: error %v, the reference decoder's %v", s.name, src, err, wantErr)
		case err != nil && failKind(err) != wantErr:
			t.Fatalf("%s from %s: %v, the reference decoder fails with %q", s.name, src, err, wantErr)
		case err == nil && !reflect.DeepEqual(bitsOf(got), bitsOf(want)):
			t.Fatalf("%s from %s: values differ from the reference decoder's", s.name, src)
		case err == nil && reflect.ValueOf(got).Cap() != reflect.ValueOf(got).Len():
			t.Fatalf("%s from %s: cap %d for len %d", s.name, src, reflect.ValueOf(got).Cap(), reflect.ValueOf(got).Len())
		}
	}
	p := NewFramePayload(payload)
	got, err := op(&p)
	if err == nil {
		err = p.Done()
	}
	check("FramePayload", got, err)

	frame := FinishFrame(append(AppendFrameHeader(nil, TagHistogram), payload...), 0)
	sentinel := FinishFrame(AppendUvarint(AppendFrameHeader(nil, TagCDF), 12345), 0)
	stream := append(frame, sentinel...)
	for name, wrap := range readerSources {
		src := wrap(bytes.NewReader(stream))
		r := NewReader(src)
		if _, err := r.Header(); err != nil {
			t.Fatal(err)
		}
		got, err := op(r)
		if err == nil {
			err = r.Close()
		}
		check("Reader over "+name, got, err)
		if err != nil {
			continue
		}
		next := NewReader(src)
		if _, err := next.Header(); err != nil {
			t.Fatalf("%s from Reader over %s: envelope after the frame: %v", s.name, name, err)
		}
		if v, err := next.Int(); err != nil || v != 12345 {
			t.Fatalf("%s from Reader over %s: envelope after the frame read %d, %v", s.name, name, v, err)
		}
	}
	return want, wantErr
}

// seamRecorder records the stream offset at which each Read starts. Over
// a bytes.Reader each refill is one Read, so these are the window seams.
type seamRecorder struct {
	r      io.Reader
	n      int
	starts []int
}

func (s *seamRecorder) Read(p []byte) (int, error) {
	s.starts = append(s.starts, s.n)
	n, err := s.r.Read(p)
	s.n += n
	return n, err
}

// seamElems returns, for the first three refill seams inside s's elements,
// the index of the element that holds the seam's first byte.
func seamElems(t *testing.T, s seqBody) []int {
	t.Helper()
	rec := &seamRecorder{r: bytes.NewReader(FinishFrame(append(AppendFrameHeader(nil, TagHistogram), s.payload()...), 0))}
	r := NewReader(rec)
	if _, err := r.Header(); err != nil {
		t.Fatal(err)
	}
	if _, err := fuzzOps[s.op](r); err != nil {
		t.Fatal(err)
	}
	starts := make([]int, len(s.elems)+1) // payload offset of each element, then of the end
	starts[0] = len(s.prefix)
	for e, b := range s.elems {
		starts[e+1] = starts[e] + len(b)
	}
	var at []int
	for _, seam := range rec.starts {
		seam -= 6 // the envelope header
		if seam > starts[1] && seam < starts[len(s.elems)] && len(at) < 3 {
			at = append(at, sort.SearchInts(starts, seam+1)-1)
		}
	}
	if len(at) < 3 {
		t.Fatalf("%s spans only %d refill seams", s.name, len(at))
	}
	return at
}

// TestSequencesAcrossSeams decodes sequences of at least three Reader
// windows, each element of a random width (varints of 1 to 10 bytes, the
// wider ones padded; packed pairs of 1 to 17 bytes; raw floats), so
// elements land across every refill seam, through FramePayload and a
// Reader over every source, and matches each against refDecoder. It then
// corrupts the element just before, on and just after each of three seams:
// a zero gap, a gap that overflows, a gap past MaxInt, a varint past 64
// bits, an int past MaxInt, control nibble 9 in either half, NaN in either
// half of a pair, and a NaN raw float. Every decoder must fail as the
// reference does.
func TestSequencesAcrossSeams(t *testing.T) {
	r := rngLike(25)
	values := packedValues(r)
	type corruption struct {
		name string
		want refFail
		bad  func(s seqBody, e int) seqBody
	}
	cases := []struct {
		body        seqBody
		corruptions []corruption
	}{
		{intsBody(r), []corruption{
			{"varint past 64 bits", failVarint, func(s seqBody, e int) seqBody { return s.withElem(e, overlongVarint) }},
			{"int past MaxInt", failRange, func(s seqBody, e int) seqBody { return s.withElem(e, AppendUvarint(nil, MaxInt+1)) }},
		}},
		{deltaBody(r), []corruption{
			{"zero gap", failGap, func(s seqBody, e int) seqBody { return s.withElem(e, paddedUvarint(0, len(s.elems[e]))) }},
			{"gap that overflows", failOverflow, func(s seqBody, e int) seqBody { return s.withElem(e, AppendUvarint(nil, MaxInt)) }},
			// From −MaxInt a gap past MaxInt does not overflow, so only
			// the gap's own bound rejects it.
			{"gap past MaxInt", failGap, func(s seqBody, e int) seqBody {
				s.prefix = AppendVarint(AppendUvarint(nil, seqElems), -MaxInt)
				return s.withElem(e, AppendUvarint(nil, MaxInt+1))
			}},
			{"varint past 64 bits", failVarint, func(s seqBody, e int) seqBody { return s.withElem(e, overlongVarint) }},
		}},
		{packedBody(values), []corruption{
			{"nibble 9 first", failNibble, func(s seqBody, e int) seqBody {
				b := append([]byte(nil), s.elems[e]...)
				b[0] = 0x90 | b[0]&0x0f
				return s.withElem(e, b)
			}},
			{"nibble 9 second", failNibble, func(s seqBody, e int) seqBody {
				b := append([]byte(nil), s.elems[e]...)
				b[0] = b[0]&0xf0 | 9
				return s.withElem(e, b)
			}},
			{"NaN first", failFinite, func(_ seqBody, e int) seqBody {
				fs := append([]float64(nil), values...)
				fs[2*e] = math.NaN()
				return packedBody(fs)
			}},
			{"NaN second", failFinite, func(_ seqBody, e int) seqBody {
				fs := append([]float64(nil), values...)
				fs[2*e+1] = math.NaN()
				return packedBody(fs)
			}},
		}},
		{floatsBody(r), []corruption{
			{"NaN", failFinite, func(s seqBody, e int) seqBody { return s.withElem(e, AppendFloat64(nil, math.NaN())) }},
		}},
	}
	for _, tc := range cases {
		if _, err := decodeAll(t, tc.body); err != nil {
			t.Fatalf("%s: the reference decoder rejects the valid sequence: %v", tc.body.name, err)
		}
		var at []int
		for _, on := range seamElems(t, tc.body) {
			at = append(at, on-1, on, on+1)
		}
		for _, e := range at {
			for _, c := range tc.corruptions {
				bad := c.bad(tc.body, e)
				if _, err := decodeAll(t, bad); err != c.want {
					t.Fatalf("%s, %s at element %d: the reference decoder fails with %v, want %q",
						tc.body.name, c.name, e, err, c.want)
				}
			}
		}
	}
}

// TestSequencesIntoSpareCapacity decodes each sequence into a buffer with
// room beyond its length, ahead of more payload: the decoder must stop at
// the declared length, in FramePayload, whose window runs on to the end of
// the payload, and in a Reader, and leave the next field unread.
func TestSequencesIntoSpareCapacity(t *testing.T) {
	ints := []int{3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377, 610, 987}
	floats := []float64{1, 0.5, -2, 3.25, 1e300, -0.0, 7, 7, 8, 9, 10, 11, 12}
	tail := AppendInts(nil, make([]int, 64)) // 64 one-byte zeros, a valid Ints
	for _, tc := range []struct {
		name    string
		payload []byte
		decode  func(vocab) (any, error)
		want    any
	}{
		{"Ints", AppendInts(nil, ints), func(s vocab) (any, error) { return s.Ints(make([]int, 0, 100)) }, ints},
		{"DeltaInts", AppendDeltaInts(nil, ints), func(s vocab) (any, error) { return s.DeltaInts(make([]int, 0, 100)) }, ints},
		{"PackedFloat64s odd", AppendPackedFloat64s(nil, floats), func(s vocab) (any, error) {
			return s.PackedFloat64s(make([]float64, 0, 100))
		}, floats},
		{"PackedFloat64s even", AppendPackedFloat64s(nil, floats[:12]), func(s vocab) (any, error) {
			return s.PackedFloat64s(make([]float64, 0, 101))
		}, floats[:12]},
	} {
		payload := append(tc.payload, tail...)
		frame := FinishFrame(append(AppendFrameHeader(nil, TagHistogram), payload...), 0)
		for src, open := range map[string]func() vocab{
			"Reader": func() vocab {
				r := NewReader(bytes.NewReader(frame))
				r.Header()
				return r
			},
			"FramePayload": func() vocab { p := NewFramePayload(payload); return &p },
		} {
			s := open()
			got, err := tc.decode(s)
			if err != nil || !reflect.DeepEqual(bitsOf(got), bitsOf(tc.want)) {
				t.Fatalf("%s from %s = %v, %v; want %v", tc.name, src, got, err, tc.want)
			}
			if zeros, err := s.Ints(nil); err != nil || len(zeros) != 64 {
				t.Fatalf("%s from %s: the field after it read %d ints, %v", tc.name, src, len(zeros), err)
			}
		}
	}
}

// TestSequencesAllocateTheirLength decodes valid 2^20-element sequences
// from an opaque stream, whose length no decoder can see ahead, and from
// FramePayload. Each result must come back exactly sized, cap == len, and
// cost at most 2.5 times its final size in allocations: it starts at what
// the first window backs and doubles, capped at the declared length.
func TestSequencesAllocateTheirLength(t *testing.T) {
	const k = 1 << 20
	r := rngLike(20)
	ints := make([]int, k)
	floats := make([]float64, k)
	for i := range ints {
		ints[i] = 3*i + int(r()%3)
		floats[i] = float64(r()%1000) / 8
	}
	for _, tc := range []struct {
		name    string
		payload []byte
		decode  func(vocab) (any, error)
	}{
		{"Ints", AppendInts(nil, ints), func(s vocab) (any, error) { return s.Ints(nil) }},
		{"DeltaInts", AppendDeltaInts(nil, ints), func(s vocab) (any, error) { return s.DeltaInts(nil) }},
		{"PackedFloat64s", AppendPackedFloat64s(nil, floats), func(s vocab) (any, error) { return s.PackedFloat64s(nil) }},
		{"Float64s", func() []byte {
			b := AppendUvarint(nil, k)
			for _, f := range floats {
				b = AppendFloat64(b, f)
			}
			return b
		}(), func(s vocab) (any, error) { return s.Float64s() }},
	} {
		frame := FinishFrame(append(AppendFrameHeader(nil, TagHistogram), tc.payload...), 0)
		for src, open := range map[string]func() vocab{
			"a stream": func() vocab {
				r := NewReader(struct{ io.Reader }{bytes.NewReader(frame)})
				r.Header()
				return r
			},
			"FramePayload": func() vocab { p := NewFramePayload(tc.payload); return &p },
		} {
			s := open()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			v, err := tc.decode(s)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatalf("%s from %s: %v", tc.name, src, err)
			}
			got := reflect.ValueOf(v)
			if got.Len() != k || got.Cap() != k {
				t.Errorf("%s from %s: len %d, cap %d; want both %d", tc.name, src, got.Len(), got.Cap(), k)
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew > 5*8*k/2 {
				t.Errorf("%s from %s allocated %d bytes for a %d-byte result", tc.name, src, grew, 8*k)
			}
		}
	}
}

// TestDeclaredLengthsAllocateWhatTheBytesBack declares 2^28 elements, the
// largest length SliceLen accepts, in an envelope whose payload holds the
// first 2^20 of them. A decoder grows its result only once the next
// element's first byte is in its window, and a Reader's refill asks for up
// to 64 KiB of promised bytes, which the 4-byte footer cannot supply, so
// each decoder must fail having allocated at most 2.5 times the 2^20
// elements the payload backs.
func TestDeclaredLengthsAllocateWhatTheBytesBack(t *testing.T) {
	const backed = 1 << 20
	for _, tc := range []struct {
		name   string
		elem   []byte // the bytes of one element (a pair for PackedFloat64s)
		per    int    // elements per elem
		decode func(vocab) error
	}{
		{"Ints", []byte{7}, 1, func(s vocab) error { _, err := s.Ints(nil); return err }},
		{"DeltaInts", []byte{1}, 1, func(s vocab) error { _, err := s.DeltaInts(nil); return err }},
		{"PackedFloat64s", []byte{0x88}, 2, func(s vocab) error { _, err := s.PackedFloat64s(nil); return err }},
		{"Float64s", AppendFloat64(nil, 1), 1, func(s vocab) error { _, err := s.Float64s(); return err }},
	} {
		payload := append(AppendUvarint(nil, maxElems), bytes.Repeat(tc.elem, backed/tc.per)...)
		frame := FinishFrame(append(AppendFrameHeader(nil, TagHistogram), payload...), 0)
		for src, open := range map[string]func() vocab{
			"Reader over bytes": func() vocab {
				r := NewReader(bytes.NewReader(frame))
				r.Header()
				return r
			},
			"Reader over a stream": func() vocab {
				r := NewReader(struct{ io.Reader }{bytes.NewReader(frame)})
				r.Header()
				return r
			},
			"FramePayload": func() vocab { p := NewFramePayload(payload); return &p },
		} {
			s := open()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := tc.decode(s)
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Fatalf("%s from %s accepted 2^28 declared elements over 2^20", tc.name, src)
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew > 5*8*backed/2 {
				t.Errorf("%s from %s allocated %d bytes for %d backed elements", tc.name, src, grew, backed)
			}
		}
	}
}
