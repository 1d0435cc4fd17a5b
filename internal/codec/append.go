package codec

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"math/bits"
)

// Append-into-frame helpers: the allocation-free face of the envelope
// format, used by the serving layer's zero-copy response path, by the WAL's
// records and by the stream engines' snapshots and deltas, which leave in a
// single write.
//
// The Writer streams through an io.Writer and hashes each small write as it
// goes — the right shape for snapshot files, and the wrong one for a hot
// serving loop, where the interface calls and per-write CRC updates
// dominate the actual payload bytes. These helpers instead build one
// complete envelope in a caller-owned []byte (typically a pooled response
// buffer): header appended up front, payload appended in place, and the
// CRC-32C footer computed by one hardware-accelerated pass over the filled
// region. The Writer's sequence methods encode through these helpers, so
// both producers emit identical bytes for the same payload, and ParseFrame
// accepts either producer's envelopes.

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

// AppendInts appends a length prefix followed by every element as a
// uvarint: the layout Ints reads. Elements must be non-negative.
func AppendInts(dst []byte, xs []int) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(xs)))
	for _, x := range xs {
		dst = binary.AppendUvarint(dst, uint64(x))
	}
	return dst
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

// FramePayload decodes a ParseFrame payload in place: the payload
// vocabulary of Reader over a slice that needs no refill. The checksum has
// already been verified by ParseFrame, so methods only validate shape, and
// they allocate only the sequences they return. Methods return an error
// rather than panicking, whatever the bytes — decoding untrusted data is
// the point.
type FramePayload struct{ cursor }

// NewFramePayload wraps payload bytes returned by ParseFrame.
func NewFramePayload(payload []byte) FramePayload {
	return FramePayload{cursor{buf: payload}}
}

// Done reports whether the payload has been fully consumed; decoders call it
// last so trailing garbage inside a checksummed frame is still rejected.
func (p *FramePayload) Done() error { return p.done() }
