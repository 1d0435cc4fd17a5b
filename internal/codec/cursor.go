package codec

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

// maxAhead caps how many promised bytes one refill reads beyond what the
// current read needs, so a corrupt length costs at most this much input
// before the stream runs dry.
const maxAhead = 64 << 10

// cursor is the payload vocabulary's one implementation, behind both
// FramePayload and Reader. It decodes from a window, buf[off:]. Over an
// in-memory payload the window is the whole payload, and reading past its
// end is an error. Over a stream (src non-nil) a short window is refilled
// by one io.ReadFull, and one CRC update covers the refilled span.
//
// A refill reads the larger of the shortfall and the bytes the payload has
// already promised, the latter capped at maxAhead. A k-element varint
// sequence promises k bytes, k packed floats ⌈k/2⌉ control bytes and k raw
// floats 8k bytes; a scalar promises only its own bytes. A valid envelope
// backs every promise with payload, so a refill never reads into its footer
// or the envelope after it.
type cursor struct {
	buf []byte
	off int
	src io.Reader // refills the window; nil over an in-memory payload
	crc uint32    // CRC-32C of every byte read from src
	n   int64     // bytes read from src
}

// avail returns the bytes left in the window.
func (c *cursor) avail() int { return len(c.buf) - c.off }

// need makes n bytes available at buf[off:]. promise is how many bytes from
// off the payload guarantees, n included.
func (c *cursor) need(n, promise int) error {
	if c.avail() >= n {
		return nil
	}
	return c.refill(n, promise)
}

// refill is need's slow path.
func (c *cursor) refill(n, promise int) error {
	avail := c.avail()
	if c.src == nil {
		return fmt.Errorf("codec: payload ends %d bytes short at offset %d", n-avail, c.off)
	}
	size := avail + max(n-avail, min(promise-avail, maxAhead))
	buf := c.buf
	if cap(buf) < size {
		buf = make([]byte, size, max(size, 2*cap(buf), 512))
	}
	buf = buf[:size]
	copy(buf, c.buf[c.off:])
	got, err := io.ReadFull(c.src, buf[avail:])
	c.crc = crc32.Update(c.crc, castagnoli, buf[avail:avail+got])
	c.n += int64(got)
	c.buf, c.off = buf[:avail+got], 0
	if err != nil {
		// Only an envelope's first read may meet a clean end of stream.
		if err == io.EOF && c.n > 0 {
			err = io.ErrUnexpectedEOF
		}
		return fmt.Errorf("codec: short read: %w", err)
	}
	return nil
}

// done rejects unread window bytes: inside a frame they are trailing
// garbage under its checksum, and in a Reader they were read as promised
// payload that the decoder never used.
func (c *cursor) done() error {
	if left := c.avail(); left > 0 {
		return fmt.Errorf("codec: %d trailing payload bytes", left)
	}
	return nil
}

// uvarint reads one unsigned varint; promise counts the bytes the payload
// guarantees from here, as need's does.
func (c *cursor) uvarint(promise int) (uint64, error) {
	for {
		u, w := binary.Uvarint(c.buf[c.off:])
		if w > 0 {
			c.off += w
			return u, nil
		}
		if w < 0 {
			return 0, fmt.Errorf("codec: varint at offset %d overflows 64 bits", c.off)
		}
		// The window ends inside the varint: one more byte is due.
		if err := c.refill(c.avail()+1, promise); err != nil {
			return 0, err
		}
	}
}

// int reads a uvarint under MaxInt.
func (c *cursor) int(promise int) (int, error) {
	u, err := c.uvarint(promise)
	if err != nil {
		return 0, err
	}
	if u > MaxInt {
		return 0, fmt.Errorf("codec: integer %d out of range", u)
	}
	return int(u), nil
}

// bits64 reads eight little-endian bytes.
func (c *cursor) bits64(promise int) (uint64, error) {
	if err := c.need(8, promise); err != nil {
		return 0, err
	}
	x := binary.LittleEndian.Uint64(c.buf[c.off:])
	c.off += 8
	return x, nil
}

func finite(bits uint64) (float64, error) {
	f := math.Float64frombits(bits)
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return 0, fmt.Errorf("codec: non-finite value %v", f)
	}
	return f, nil
}

// Uvarint reads an unsigned varint.
func (c *cursor) Uvarint() (uint64, error) { return c.uvarint(0) }

// Varint reads a zig-zag signed varint, undoing the zig-zag as
// binary.Varint does.
func (c *cursor) Varint() (int64, error) {
	u, err := c.uvarint(0)
	return int64(u>>1) ^ -int64(u&1), err
}

// Int reads a non-negative int value (a domain size, a counter), rejecting
// values above MaxInt. Length prefixes that drive allocations go through
// SliceLen instead.
func (c *cursor) Int() (int, error) { return c.int(0) }

// SliceLen reads a length prefix, additionally enforcing the maxElems
// sanity bound so a corrupt length cannot drive a huge allocation before
// payload validation gets a chance to reject it.
func (c *cursor) SliceLen() (int, error) {
	u, err := c.uvarint(0)
	if err != nil {
		return 0, err
	}
	if u > maxElems {
		return 0, fmt.Errorf("codec: length %d exceeds sanity bound", u)
	}
	return int(u), nil
}

// ReadByte reads one raw payload byte.
func (c *cursor) ReadByte() (byte, error) {
	if err := c.need(1, 1); err != nil {
		return 0, err
	}
	b := c.buf[c.off]
	c.off++
	return b, nil
}

// Float64 reads raw IEEE-754 bits, little-endian.
func (c *cursor) Float64() (float64, error) {
	x, err := c.bits64(8)
	return math.Float64frombits(x), err
}

// FiniteFloat64 reads a float64 and rejects NaN and ±Inf — the binary
// equivalent of the strictness JSON decoding gets for free (JSON cannot
// carry non-finite numbers).
func (c *cursor) FiniteFloat64() (float64, error) {
	x, err := c.bits64(8)
	if err != nil {
		return 0, err
	}
	return finite(x)
}

// Float64s reads a length-prefixed float slice, every element finite.
func (c *cursor) Float64s() ([]float64, error) {
	k, err := c.SliceLen()
	if err != nil {
		return nil, err
	}
	if err := c.need(min(8*k, maxAhead), 8*k); err != nil {
		return nil, err
	}
	fs := make([]float64, 0, min(k, c.avail()/8))
	for i := range k {
		x, err := c.bits64(8 * (k - i))
		if err != nil {
			return nil, err
		}
		f, err := finite(x)
		if err != nil {
			return nil, err
		}
		fs = append(fs, f)
	}
	return fs, nil
}

// Ints reads a sequence written by AppendInts into dst, reallocating it
// only when too small: a length prefix, then that many ints under Int's
// bound.
func (c *cursor) Ints(dst []int) ([]int, error) {
	k, err := c.SliceLen()
	if err != nil {
		return nil, err
	}
	// Every element takes at least one byte.
	if err := c.need(min(k, maxAhead), k); err != nil {
		return nil, err
	}
	xs := dst[:0]
	if cap(dst) < k {
		xs = make([]int, 0, min(k, c.avail()))
	}
	for i := range k {
		x, err := c.int(k - i)
		if err != nil {
			return nil, err
		}
		xs = append(xs, x)
	}
	return xs, nil
}

// DeltaInts reads a strictly increasing integer sequence written by
// AppendDeltaInts into dst, reallocating it only when too small, and
// rejects zero gaps and overflow.
func (c *cursor) DeltaInts(dst []int) ([]int, error) {
	k, err := c.SliceLen()
	if err != nil {
		return nil, err
	}
	// Every element takes at least one byte.
	if err := c.need(min(k, maxAhead), k); err != nil {
		return nil, err
	}
	xs := dst[:0]
	if cap(dst) < k {
		xs = make([]int, 0, min(k, c.avail()))
	}
	// The start and every gap are bounded by MaxInt, as Int values are: a
	// partition of any domain an engine accepts, [1, n] with n ≤ MaxInt,
	// has right endpoints within that bound, and the overflow check below
	// catches an accumulation that wraps.
	if k > 0 {
		// need above already read ahead what the sequence promised.
		v, err := c.Varint()
		if err != nil {
			return nil, err
		}
		if v < -MaxInt || v > MaxInt {
			return nil, fmt.Errorf("codec: sequence start %d out of range", v)
		}
		xs = append(xs, int(v))
	}
	for i := 1; i < k; i++ {
		gap, err := c.uvarint(k - i)
		if err != nil {
			return nil, err
		}
		if gap == 0 || gap > MaxInt {
			return nil, fmt.Errorf("codec: bad sequence gap %d", gap)
		}
		next := xs[i-1] + int(gap)
		if next <= xs[i-1] {
			return nil, fmt.Errorf("codec: sequence overflow at element %d", i)
		}
		xs = append(xs, next)
	}
	return xs, nil
}

// PackedFloat64s reads a sequence written by AppendPackedFloat64s into dst,
// reallocating it only when too small, and rejects malformed control
// nibbles and non-finite values.
func (c *cursor) PackedFloat64s(dst []float64) ([]float64, error) {
	k, err := c.SliceLen()
	if err != nil {
		return nil, err
	}
	// Every pair of values takes at least its control byte.
	pairs := (k + 1) / 2
	if err := c.need(min(pairs, maxAhead), pairs); err != nil {
		return nil, err
	}
	fs := dst[:0]
	if cap(dst) < k {
		fs = make([]float64, 0, min(k, 2*c.avail()))
	}
	var prev uint64
	for i := 0; i < k; i += 2 {
		pairs := (k - i + 1) / 2
		if err := c.need(1, pairs); err != nil {
			return nil, err
		}
		ctrl := c.buf[c.off]
		lz1, lz2 := int(ctrl>>4), int(ctrl&0x0f)
		if lz1 > 8 || lz2 > 8 {
			return nil, fmt.Errorf("codec: bad float control nibble %#02x", ctrl)
		}
		nb1, nb2 := 8-lz1, 0
		if i+1 < k {
			nb2 = 8 - lz2
		}
		if err := c.need(1+nb1+nb2, pairs+nb1+nb2); err != nil {
			return nil, err
		}
		tail := c.buf[c.off+1 : c.off+1+nb1+nb2]
		c.off += 1 + nb1 + nb2
		prev ^= bigEndian(tail[:nb1])
		f, err := finite(prev)
		if err != nil {
			return nil, err
		}
		fs = append(fs, f)
		if i+1 < k {
			prev ^= bigEndian(tail[nb1:])
			if f, err = finite(prev); err != nil {
				return nil, err
			}
			fs = append(fs, f)
		}
	}
	return fs, nil
}

// bigEndian reads the bytes appendBigEndianTail wrote.
func bigEndian(b []byte) uint64 {
	var x uint64
	for _, v := range b {
		x = x<<8 | uint64(v)
	}
	return x
}
