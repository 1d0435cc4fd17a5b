package codec

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"math/bits"
)

// Append-into-frame helpers: the allocation-free face of the envelope
// format, used by the serving layer's zero-copy response path and by the
// stream engines' snapshots and deltas, which leave in a single write.
//
// The Writer/Reader pair streams through an io.Writer/io.Reader and feeds a
// running hash.Hash32 one small write at a time — the right shape for
// snapshot files, and the wrong one for a hot serving loop, where the
// interface calls and per-write CRC updates dominate the actual payload
// bytes. These helpers instead build one complete envelope in a caller-owned
// []byte (typically a pooled response buffer): header appended up front,
// payload appended in place, and the CRC-32C footer computed by one
// hardware-accelerated pass over the filled region. The Writer's sequence
// methods encode through these helpers, so both producers emit identical
// bytes for the same payload, and ParseFrame accepts either producer's
// envelopes.

// AppendFrameHeader appends the 6-byte envelope header (magic, version, tag)
// for a frame starting at len(dst) and returns the extended slice. Pair with
// FinishFrame, passing the pre-append length as the frame start.
func AppendFrameHeader(dst []byte, tag byte) []byte {
	return append(dst, Magic[0], Magic[1], Magic[2], Magic[3], Version, tag)
}

// AppendUvarint appends an unsigned varint.
func AppendUvarint(dst []byte, u uint64) []byte {
	return binary.AppendUvarint(dst, u)
}

// AppendVarint appends a zig-zag signed varint.
func AppendVarint(dst []byte, v int64) []byte {
	return binary.AppendVarint(dst, v)
}

// AppendFloat64 appends the raw IEEE-754 bits, little-endian — bit-identical
// to Writer.Float64.
func AppendFloat64(dst []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(f))
}

// AppendDeltaInts appends a strictly increasing integer sequence as a
// length prefix, the first element as a varint, and successive gaps as
// uvarints. It panics if the sequence is not strictly increasing — encoders
// only pass validated boundaries, and a silent wrap would corrupt the
// stream. Writer.DeltaInts writes the same bytes through this function.
func AppendDeltaInts(dst []byte, xs []int) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(xs)))
	prev := 0
	for i, x := range xs {
		if i == 0 {
			dst = binary.AppendVarint(dst, int64(x))
		} else {
			if x <= prev {
				panic(fmt.Sprintf("codec: DeltaInts not strictly increasing: %d after %d", x, prev))
			}
			dst = binary.AppendUvarint(dst, uint64(x-prev))
		}
		prev = x
	}
	return dst
}

// leadingZeroBytes returns how many of x's most significant bytes are zero,
// 0..8.
func leadingZeroBytes(x uint64) int { return bits.LeadingZeros64(x|1) / 8 }

// AppendPackedFloat64s appends a length prefix followed by the values
// XOR-delta compressed byte-aligned (the Gorilla idea, simplified): each
// value's bits are XORed with the previous value's, a 4-bit control records
// how many leading bytes of the XOR are zero, and only the remaining bytes
// are written big-endian. Neighboring histogram piece values share sign,
// exponent, and high mantissa bits, so this typically stores 6–7 bytes per
// value instead of 8 while remaining exactly bit-identical on decode.
// Control nibbles are packed two per byte ahead of their values' payloads.
// Writer.PackedFloat64s writes the same bytes through this function.
func AppendPackedFloat64s(dst []byte, fs []float64) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(fs)))
	var prev uint64
	for i := 0; i < len(fs); i += 2 {
		x1 := math.Float64bits(fs[i]) ^ prev
		prev = math.Float64bits(fs[i])
		lz1 := leadingZeroBytes(x1)
		var x2 uint64
		lz2 := 8
		if i+1 < len(fs) {
			x2 = math.Float64bits(fs[i+1]) ^ prev
			prev = math.Float64bits(fs[i+1])
			lz2 = leadingZeroBytes(x2)
		}
		dst = append(dst, byte(lz1<<4)|byte(lz2))
		dst = appendBigEndianTail(dst, x1, 8-lz1)
		if i+1 < len(fs) {
			dst = appendBigEndianTail(dst, x2, 8-lz2)
		}
	}
	return dst
}

// appendBigEndianTail appends the low nb bytes of x, most significant first.
func appendBigEndianTail(dst []byte, x uint64, nb int) []byte {
	for b := nb - 1; b >= 0; b-- {
		dst = append(dst, byte(x>>(8*b)))
	}
	return dst
}

// FinishFrame closes the envelope that starts at dst[frameStart:]: it
// computes the CRC-32C over the filled region (header through payload) in
// one pass and appends the 4-byte footer, returning the completed slice.
func FinishFrame(dst []byte, frameStart int) []byte {
	sum := crc32.Checksum(dst[frameStart:], castagnoli)
	return append(dst, byte(sum), byte(sum>>8), byte(sum>>16), byte(sum>>24))
}

// ParseFrame validates one complete envelope held in buf — magic, version,
// and the CRC-32C footer over everything before it — and returns the type
// tag plus the payload bytes between header and footer. The payload is a
// sub-slice of buf (no copy); callers decode it with FramePayload. Because
// the checksum is verified up front in one pass, payload decoding needs no
// incremental hashing at all.
func ParseFrame(buf []byte) (tag byte, payload []byte, err error) {
	if len(buf) < 10 { // 6-byte header + 4-byte footer
		return 0, nil, fmt.Errorf("codec: frame of %d bytes is shorter than an empty envelope", len(buf))
	}
	if [4]byte(buf[:4]) != Magic {
		return 0, nil, fmt.Errorf("codec: bad magic %q", buf[:4])
	}
	if buf[4] != Version {
		return 0, nil, fmt.Errorf("codec: unsupported format version %d (have %d)", buf[4], Version)
	}
	body, foot := buf[:len(buf)-4], buf[len(buf)-4:]
	if got, want := binary.LittleEndian.Uint32(foot), crc32.Checksum(body, castagnoli); got != want {
		return 0, nil, fmt.Errorf("%w: footer %08x, computed %08x", ErrChecksum, got, want)
	}
	return buf[5], body[6:], nil
}

// FramePayload is a cursor over a ParseFrame payload: the zero-allocation
// counterpart of Reader's payload methods. The checksum has already been
// verified by ParseFrame, so methods only validate shape. Methods return an
// error rather than panicking, whatever the bytes — decoding untrusted data
// is the point.
type FramePayload struct {
	buf []byte
	off int
}

// NewFramePayload wraps payload bytes returned by ParseFrame.
func NewFramePayload(payload []byte) FramePayload {
	return FramePayload{buf: payload}
}

// Uvarint reads an unsigned varint.
func (p *FramePayload) Uvarint() (uint64, error) {
	u, n := binary.Uvarint(p.buf[p.off:])
	if n <= 0 {
		return 0, fmt.Errorf("codec: reading uvarint at offset %d", p.off)
	}
	p.off += n
	return u, nil
}

// Varint reads a zig-zag signed varint.
func (p *FramePayload) Varint() (int64, error) {
	v, n := binary.Varint(p.buf[p.off:])
	if n <= 0 {
		return 0, fmt.Errorf("codec: reading varint at offset %d", p.off)
	}
	p.off += n
	return v, nil
}

// Int reads a non-negative int value under Reader.Int's bound.
func (p *FramePayload) Int() (int, error) {
	u, err := p.Uvarint()
	if err != nil {
		return 0, err
	}
	if u > math.MaxInt64/2 {
		return 0, fmt.Errorf("codec: integer %d out of range", u)
	}
	return int(u), nil
}

// SliceLen reads a length prefix under the same sanity bound Reader.SliceLen
// enforces.
func (p *FramePayload) SliceLen() (int, error) {
	u, err := p.Uvarint()
	if err != nil {
		return 0, err
	}
	if u > maxElems {
		return 0, fmt.Errorf("codec: length %d exceeds sanity bound", u)
	}
	return int(u), nil
}

// ReadByte reads one raw payload byte.
func (p *FramePayload) ReadByte() (byte, error) {
	if p.off >= len(p.buf) {
		return 0, fmt.Errorf("codec: reading byte at offset %d", p.off)
	}
	b := p.buf[p.off]
	p.off++
	return b, nil
}

// Float64 reads raw IEEE-754 bits, little-endian.
func (p *FramePayload) Float64() (float64, error) {
	if p.off+8 > len(p.buf) {
		return 0, fmt.Errorf("codec: reading float64 at offset %d", p.off)
	}
	f := math.Float64frombits(binary.LittleEndian.Uint64(p.buf[p.off:]))
	p.off += 8
	return f, nil
}

// FiniteFloat64 reads a float64 and rejects NaN and ±Inf, mirroring
// Reader.FiniteFloat64.
func (p *FramePayload) FiniteFloat64() (float64, error) {
	f, err := p.Float64()
	if err != nil {
		return 0, err
	}
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return 0, fmt.Errorf("codec: non-finite value %v", f)
	}
	return f, nil
}

// DeltaInts reads a strictly increasing integer sequence written by
// Writer.DeltaInts or AppendDeltaInts, with the same validation the Reader
// applies (no zero gaps, bounded elements, no overflow).
func (p *FramePayload) DeltaInts() ([]int, error) {
	k, err := p.SliceLen()
	if err != nil {
		return nil, err
	}
	// Every element takes at least one byte.
	if k > len(p.buf)-p.off {
		return nil, fmt.Errorf("codec: %d-element sequence in %d payload bytes", k, len(p.buf)-p.off)
	}
	const maxElem = int64(1) << 48
	xs := make([]int, k)
	for i := range xs {
		if i == 0 {
			v, err := p.Varint()
			if err != nil {
				return nil, err
			}
			if v < -maxElem || v > maxElem {
				return nil, fmt.Errorf("codec: sequence start %d out of range", v)
			}
			xs[0] = int(v)
			continue
		}
		gap, err := p.Uvarint()
		if err != nil {
			return nil, err
		}
		if gap == 0 || gap > uint64(maxElem) {
			return nil, fmt.Errorf("codec: bad sequence gap %d", gap)
		}
		next := xs[i-1] + int(gap)
		if next <= xs[i-1] {
			return nil, fmt.Errorf("codec: sequence overflow at element %d", i)
		}
		xs[i] = next
	}
	return xs, nil
}

// PackedFloat64s reads a sequence written by Writer.PackedFloat64s or
// AppendPackedFloat64s into dst, reallocating it only when too small: the
// zero-allocation counterpart of Reader.PackedFloat64s, with the same
// validation (control nibbles ≤ 8, finite values only).
func (p *FramePayload) PackedFloat64s(dst []float64) ([]float64, error) {
	k, err := p.SliceLen()
	if err != nil {
		return nil, err
	}
	// Every pair of values takes at least its control byte.
	if (k+1)/2 > len(p.buf)-p.off {
		return nil, fmt.Errorf("codec: %d packed values in %d payload bytes", k, len(p.buf)-p.off)
	}
	dst = growFloat64s(dst, k)
	var prev uint64
	for i := 0; i < k; i += 2 {
		ctrl, err := p.ReadByte()
		if err != nil {
			return nil, err
		}
		lz1, lz2 := int(ctrl>>4), int(ctrl&0x0f)
		if lz1 > 8 || lz2 > 8 {
			return nil, fmt.Errorf("codec: bad float control nibble %#02x", ctrl)
		}
		x, err := p.bigEndianTail(8 - lz1)
		if err != nil {
			return nil, err
		}
		prev ^= x
		if dst[i], err = finite(prev); err != nil {
			return nil, err
		}
		if i+1 < k {
			x, err := p.bigEndianTail(8 - lz2)
			if err != nil {
				return nil, err
			}
			prev ^= x
			if dst[i+1], err = finite(prev); err != nil {
				return nil, err
			}
		}
	}
	return dst, nil
}

// growFloat64s returns dst resliced to length k, reallocated only when its
// capacity is short.
func growFloat64s(dst []float64, k int) []float64 {
	if cap(dst) < k {
		return make([]float64, k)
	}
	return dst[:k]
}

// bigEndianTail reads nb big-endian bytes into the low bytes of a uint64.
func (p *FramePayload) bigEndianTail(nb int) (uint64, error) {
	if p.off+nb > len(p.buf) {
		return 0, fmt.Errorf("codec: reading %d float bytes at offset %d", nb, p.off)
	}
	var x uint64
	for _, b := range p.buf[p.off : p.off+nb] {
		x = x<<8 | uint64(b)
	}
	p.off += nb
	return x, nil
}

// Done reports whether the payload has been fully consumed; decoders call it
// last so trailing garbage inside a checksummed frame is still rejected.
func (p *FramePayload) Done() error {
	if p.off != len(p.buf) {
		return fmt.Errorf("codec: %d trailing payload bytes", len(p.buf)-p.off)
	}
	return nil
}
