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

// The varint and packed sequence decoders below decode a window at a
// time. A tight loop runs while the window holds a whole worst-case element
// (10 bytes for a varint, 17 for a packed pair) and the result has room;
// the per-element path above, which refills, takes over until the window
// holds a few whole elements again. An element that fails a check in the
// tight loop is left unread for the per-element path, which reports it, so
// both paths accept and reject exactly the same bytes. Float64s, which
// carries a piece's few coefficients, reads element by element.
//
// A result is dst when dst holds the declared length, and otherwise starts
// at what the window backs and grows by doubling, capped at the declared
// length, once the next element's first byte is in the window: a valid
// sequence ends with cap == len, and a hostile length costs at most twice
// what the bytes read can back.

// resume is how many worst-case elements the window must hold before the
// per-element path hands back to the tight loop. A Reader's window can be
// as short as the promise of one byte per element, and a loop entered for
// an element or two costs more than it saves.
const resume = 4

// seqStart returns the slice a k-element sequence decodes into: dst when
// it holds k elements, else a new one sized to the backed elements that
// the window holds, at most k.
func seqStart[T any](dst []T, k, backed int) []T {
	if cap(dst) >= k {
		return dst[:0]
	}
	return make([]T, 0, min(k, backed))
}

// grow doubles a full xs's capacity, capped at k, once width bytes of its
// next element are in the window; promise is what the payload guarantees
// from here, as need's is. An even capacity stays even, so packed pairs
// never straddle a growth.
func grow[T any](c *cursor, xs []T, k, width, promise int) ([]T, error) {
	if err := c.need(width, promise); err != nil {
		return nil, err
	}
	bigger := make([]T, len(xs), min(k, max(2*cap(xs), 2)))
	copy(bigger, xs)
	return bigger, nil
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
	fs := seqStart[float64](nil, k, c.avail()/8)
	for len(fs) < k {
		if len(fs) == cap(fs) {
			if fs, err = grow(c, fs, k, 8, 8*(k-len(fs))); err != nil {
				return nil, err
			}
		}
		x, err := c.bits64(8 * (k - len(fs)))
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
	xs := seqStart(dst, k, c.avail())
	for len(xs) < k {
		if len(xs) == cap(xs) {
			if xs, err = grow(c, xs, k, 1, k-len(xs)); err != nil {
				return nil, err
			}
		}
		b, off := c.buf, c.off
		i, n := len(xs), min(k, cap(xs))
		xs = xs[:n]
		for ; i < n && off <= len(b)-binary.MaxVarintLen64; i++ {
			u, w := uint64(b[off]), 1
			if u >= 0x80 {
				if u, w = binary.Uvarint(b[off:]); w <= 0 || u > MaxInt {
					break
				}
			}
			xs[i] = int(u)
			off += w
		}
		c.off, xs = off, xs[:i]
		for ; i < n; i++ {
			x, err := c.int(k - i)
			if err != nil {
				return nil, err
			}
			xs = append(xs, x)
			if c.avail() >= resume*binary.MaxVarintLen64 {
				break
			}
		}
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
	xs := seqStart(dst, k, c.avail())
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
	for len(xs) < k {
		if len(xs) == cap(xs) {
			if xs, err = grow(c, xs, k, 1, k-len(xs)); err != nil {
				return nil, err
			}
		}
		b, off := c.buf, c.off
		i, n := len(xs), min(k, cap(xs))
		xs = xs[:n]
		prev := xs[i-1]
		for ; i < n && off <= len(b)-binary.MaxVarintLen64; i++ {
			gap, w := uint64(b[off]), 1
			if gap >= 0x80 {
				if gap, w = binary.Uvarint(b[off:]); w <= 0 || gap > MaxInt {
					break
				}
			}
			next := prev + int(gap)
			if next <= prev { // a zero gap, or overflow
				break
			}
			xs[i], prev = next, next
			off += w
		}
		c.off, xs = off, xs[:i]
		for ; i < n; i++ {
			gap, err := c.uvarint(k - i)
			if err != nil {
				return nil, err
			}
			if gap == 0 || gap > MaxInt {
				return nil, fmt.Errorf("codec: bad sequence gap %d", gap)
			}
			next := prev + int(gap)
			if next <= prev {
				return nil, fmt.Errorf("codec: sequence overflow at element %d", i)
			}
			xs, prev = append(xs, next), next
			if c.avail() >= resume*binary.MaxVarintLen64 {
				break
			}
		}
	}
	return xs, nil
}

// maxPairLen is the widest packed pair: a control byte and two whole
// values.
const maxPairLen = 1 + 2*8

// expBits masks a float64's exponent; all ones is NaN or ±Inf.
const expBits = 0x7ff << 52

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
	fs := seqStart(dst, k, 2*c.avail())
	var prev uint64
	for len(fs) < k {
		if len(fs) == cap(fs) {
			if fs, err = grow(c, fs, k, 1, (k-len(fs)+1)/2); err != nil {
				return nil, err
			}
		}
		// Whole pairs: each value is one 8-byte big-endian load shifted
		// down past the bytes that belong to what follows it.
		b, off := c.buf, c.off
		i, n := len(fs), min(k, cap(fs))
		fs = fs[:n]
		for ; i+1 < n && off <= len(b)-maxPairLen; i += 2 {
			ctrl := b[off]
			lz1, lz2 := uint(ctrl>>4), uint(ctrl&0x0f)
			if lz1 > 8 || lz2 > 8 {
				break
			}
			v1 := prev ^ binary.BigEndian.Uint64(b[off+1:])>>(8*lz1)
			v2 := v1 ^ binary.BigEndian.Uint64(b[off+9-int(lz1):])>>(8*lz2)
			if v1&expBits == expBits || v2&expBits == expBits {
				break
			}
			fs[i], fs[i+1] = math.Float64frombits(v1), math.Float64frombits(v2)
			prev = v2
			off += maxPairLen - int(lz1+lz2)
		}
		c.off, fs = off, fs[:i]
		// Pairs across the window's end, a lone last value, or a pair that
		// fails a check. An odd n is k, so both values of a pair fit.
		for ; i < n; i += 2 {
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
			if c.avail() >= resume*maxPairLen {
				break
			}
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
