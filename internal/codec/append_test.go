package codec

import (
	"bytes"
	"errors"
	"math"
	"testing"
)

// appendFloatCases covers the packing control paths: empty, odd length, long
// runs of equal values (zero XOR bytes), sign flips, extreme magnitudes.
var appendFloatCases = [][]float64{
	nil,
	{},
	{0},
	{1.5},
	{3.25, 3.25, 3.25, 3.25, 3.25},
	{0, -0.0, 1.5, math.Pi, -math.Pi, math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64},
	{1, 2, 4, 8, 16, 32, 64, 128, 256},
	{-1e300, 1e-300, 7},
}

func TestAppendedFrameBytesMatchWriter(t *testing.T) {
	// The append path must produce byte-identical envelopes to the streaming
	// Writer for the same payload — they share one wire format, not two
	// compatible ones.
	for _, fs := range appendFloatCases {
		var buf bytes.Buffer
		w := NewWriter(&buf, TagHistogram)
		w.Int(len(fs))
		w.PackedFloat64s(fs)
		w.Varint(-12345)
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}

		dst := AppendFrameHeader(nil, TagHistogram)
		dst = AppendUvarint(dst, uint64(len(fs)))
		dst = AppendPackedFloat64s(dst, fs)
		dst = AppendVarint(dst, -12345)
		dst = FinishFrame(dst, 0)

		if !bytes.Equal(dst, buf.Bytes()) {
			t.Fatalf("append path produced %x, Writer produced %x (case %v)", dst, buf.Bytes(), fs)
		}
	}
}

func TestAppendedFrameAtOffset(t *testing.T) {
	// Frames are appended into shared response buffers, so the frame start is
	// rarely 0; the CRC must cover only the frame's own bytes.
	prefix := []byte("junk-before-frame")
	dst := append([]byte{}, prefix...)
	start := len(dst)
	dst = AppendFrameHeader(dst, TagCDF)
	dst = AppendUvarint(dst, 3)
	dst = FinishFrame(dst, start)
	tag, payload, err := ParseFrame(dst[start:])
	if err != nil {
		t.Fatalf("ParseFrame: %v", err)
	}
	if tag != TagCDF {
		t.Fatalf("tag = %d, want %d", tag, TagCDF)
	}
	p := NewFramePayload(payload)
	if n, err := p.SliceLen(); err != nil || n != 3 {
		t.Fatalf("SliceLen = %d, %v", n, err)
	}
	if err := p.Done(); err != nil {
		t.Fatalf("Done: %v", err)
	}
}

func TestParseFrameRejectsCorruption(t *testing.T) {
	good := FinishFrame(AppendUvarint(AppendFrameHeader(nil, TagHistogram), 7), 0)
	if _, _, err := ParseFrame(good); err != nil {
		t.Fatalf("valid frame rejected: %v", err)
	}
	t.Run("short", func(t *testing.T) {
		if _, _, err := ParseFrame(good[:9]); err == nil {
			t.Fatal("truncated frame accepted")
		}
	})
	t.Run("magic", func(t *testing.T) {
		bad := append([]byte{}, good...)
		bad[0] ^= 0xFF
		if _, _, err := ParseFrame(bad); err == nil {
			t.Fatal("bad magic accepted")
		}
	})
	t.Run("version", func(t *testing.T) {
		bad := append([]byte{}, good...)
		bad[4] = Version + 1
		if _, _, err := ParseFrame(bad); err == nil {
			t.Fatal("future version accepted")
		}
	})
	t.Run("flipped payload bit", func(t *testing.T) {
		bad := append([]byte{}, good...)
		bad[6] ^= 0x01
		_, _, err := ParseFrame(bad)
		if !errors.Is(err, ErrChecksum) {
			t.Fatalf("corrupted payload: err = %v, want ErrChecksum", err)
		}
	})
	t.Run("flipped footer bit", func(t *testing.T) {
		bad := append([]byte{}, good...)
		bad[len(bad)-1] ^= 0x80
		if _, _, err := ParseFrame(bad); !errors.Is(err, ErrChecksum) {
			t.Fatal("corrupted footer accepted")
		}
	})
}

func TestFramePayloadCursor(t *testing.T) {
	dst := AppendFrameHeader(nil, TagHistogram)
	dst = AppendUvarint(dst, 2)
	dst = AppendVarint(dst, -9)
	dst = AppendVarint(dst, 1<<40)
	dst = FinishFrame(dst, 0)
	_, payload, err := ParseFrame(dst)
	if err != nil {
		t.Fatal(err)
	}
	p := NewFramePayload(payload)
	if n, err := p.SliceLen(); err != nil || n != 2 {
		t.Fatalf("SliceLen = %d, %v", n, err)
	}
	if v, err := p.Varint(); err != nil || v != -9 {
		t.Fatalf("Varint = %d, %v", v, err)
	}
	if v, err := p.Varint(); err != nil || v != 1<<40 {
		t.Fatalf("Varint = %d, %v", v, err)
	}
	if err := p.Done(); err != nil {
		t.Fatalf("Done on consumed payload: %v", err)
	}
	// Reading past the end must error, not panic.
	if _, err := p.Varint(); err == nil {
		t.Fatal("Varint past end succeeded")
	}
	// Trailing bytes inside a valid checksum are still a malformed body.
	q := NewFramePayload(payload)
	if _, err := q.SliceLen(); err != nil {
		t.Fatal(err)
	}
	if err := q.Done(); err == nil {
		t.Fatal("Done ignored trailing payload bytes")
	}
}

func TestFramePayloadSliceLenBound(t *testing.T) {
	dst := AppendFrameHeader(nil, TagHistogram)
	dst = AppendUvarint(dst, uint64(maxElems)+1)
	dst = FinishFrame(dst, 0)
	_, payload, err := ParseFrame(dst)
	if err != nil {
		t.Fatal(err)
	}
	p := NewFramePayload(payload)
	if _, err := p.SliceLen(); err == nil {
		t.Fatal("SliceLen accepted a length above the sanity bound")
	}
}

func TestAppendPackedFloat64sDecodableByReader(t *testing.T) {
	for _, fs := range appendFloatCases {
		dst := AppendFrameHeader(nil, TagHistogram)
		dst = AppendPackedFloat64s(dst, fs)
		dst = FinishFrame(dst, 0)
		r := NewReader(bytes.NewReader(dst))
		if _, err := r.Header(); err != nil {
			t.Fatal(err)
		}
		got, err := r.PackedFloat64s(nil)
		if err != nil {
			t.Fatalf("PackedFloat64s(%v): %v", fs, err)
		}
		if len(got) != len(fs) {
			t.Fatalf("decoded %d floats, wrote %d", len(got), len(fs))
		}
		for i := range fs {
			if math.Float64bits(got[i]) != math.Float64bits(fs[i]) {
				t.Fatalf("float %d: %v != %v (bits differ)", i, got[i], fs[i])
			}
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestAppendDeltaIntsAndFloat64MatchWriter(t *testing.T) {
	// The scalar/sequence helpers added for delta frames must stay
	// bit-identical to their Writer counterparts, round-trip through the
	// FramePayload cursor, and keep the Writer's panic-on-misuse contract.
	cases := [][]int{nil, {}, {1}, {-5, 0, 3, 4, 1000}, {7, 8, 9, 1 << 20}}
	for _, xs := range cases {
		var buf bytes.Buffer
		w := NewWriter(&buf, TagHistogram)
		w.DeltaInts(xs)
		w.Float64(-math.Pi)
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		dst := AppendFrameHeader(nil, TagHistogram)
		dst = AppendDeltaInts(dst, xs)
		dst = AppendFloat64(dst, -math.Pi)
		dst = FinishFrame(dst, 0)
		if !bytes.Equal(dst, buf.Bytes()) {
			t.Fatalf("append path produced %x, Writer produced %x (case %v)", dst, buf.Bytes(), xs)
		}
		_, payload, err := ParseFrame(dst)
		if err != nil {
			t.Fatal(err)
		}
		p := NewFramePayload(payload)
		got, err := p.DeltaInts(nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(xs) {
			t.Fatalf("DeltaInts read %v, wrote %v", got, xs)
		}
		for i := range xs {
			if got[i] != xs[i] {
				t.Fatalf("DeltaInts read %v, wrote %v", got, xs)
			}
		}
		f, err := p.Float64()
		if err != nil || f != -math.Pi {
			t.Fatalf("Float64 = %v, %v", f, err)
		}
		if err := p.Done(); err != nil {
			t.Fatal(err)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("AppendDeltaInts accepted a non-increasing sequence")
		}
	}()
	AppendDeltaInts(nil, []int{3, 3})
}
