package serve

import (
	"fmt"
	"io"

	"repro/internal/codec"
)

// Wire formats of the serving layer.
//
// Every endpoint speaks two body formats, negotiated by Content-Type:
//
//   - ContentJSON: the obvious JSON shapes ({"points": [...]},
//     {"as": [...], "bs": [...]}, {"values": [...]}). Go's JSON encoder
//     renders float64 with the shortest round-tripping representation, so
//     even JSON responses parse back bit-identically.
//   - ContentBatch: a binary frame on the same envelope machinery as the
//     synopsis codec (magic "HSYN", format version, type tag, CRC-32C
//     footer) with tags from the 0xF0 range reserved in internal/codec.
//     Integers are varints; float values are the codec's XOR-packed raw
//     IEEE-754 bits, so responses are bit-identical by construction and a
//     truncated or corrupted body is rejected by the checksum before any
//     result is trusted.
//
// Snapshot bodies (ContentSnapshot) are not defined here at all: they are
// the PR 4 synopsis envelopes verbatim, streamed by the handler and decoded
// by the same strict decoders the library uses.

// Content types spoken by the serving layer.
const (
	// ContentJSON marks JSON request and response bodies.
	ContentJSON = "application/json"
	// ContentBatch marks binary batch request and response bodies.
	ContentBatch = "application/x-hsyn-batch"
	// ContentSnapshot marks a synopsis envelope (the PR 4 binary codec).
	ContentSnapshot = "application/x-hsyn"
)

// Request/response body tags, from the 0xF0 range internal/codec reserves
// for the serving layer. Part of the wire format: never renumber.
const (
	tagPointsBody byte = 0xF0 // point-query batch: count, points as varints
	tagRangesBody byte = 0xF1 // range-query batch: count, (a, b) varint pairs
	tagAddBody    byte = 0xF2 // ingest batch: points + optional packed weights
	tagValuesBody byte = 0xF3 // response: packed float64 values
)

// EncodePointsBody frames a point-query batch. Points are written as signed
// varints with no validation: validation is the server's job, and a client
// must be able to send an out-of-range point and get a clean 4xx back.
func EncodePointsBody(w io.Writer, xs []int) error {
	enc := codec.NewWriter(w, tagPointsBody)
	enc.Int(len(xs))
	for _, x := range xs {
		enc.Varint(int64(x))
	}
	return enc.Close()
}

// EncodeRangesBody frames a range-query batch as (a, b) varint pairs.
func EncodeRangesBody(w io.Writer, as, bs []int) error {
	if len(as) != len(bs) {
		return fmt.Errorf("serve: %d starts for %d ends", len(as), len(bs))
	}
	enc := codec.NewWriter(w, tagRangesBody)
	enc.Int(len(as))
	for i := range as {
		enc.Varint(int64(as[i]))
		enc.Varint(int64(bs[i]))
	}
	return enc.Close()
}

// EncodeAddBody frames an ingest batch: points plus optional per-point
// weights (nil means unit weight, encoded as an absence flag rather than a
// materialized slice of ones).
func EncodeAddBody(w io.Writer, points []int, weights []float64) error {
	if weights != nil && len(weights) != len(points) {
		return fmt.Errorf("serve: %d weights for %d points", len(weights), len(points))
	}
	enc := codec.NewWriter(w, tagAddBody)
	enc.Int(len(points))
	for _, p := range points {
		enc.Varint(int64(p))
	}
	if weights == nil {
		enc.Byte(0)
	} else {
		enc.Byte(1)
		enc.PackedFloat64s(weights)
	}
	return enc.Close()
}

// EncodeValuesBody frames a response value vector with the codec's XOR-packed
// raw-bits encoding: bit-identical floats in fewer bytes than either JSON or
// plain little-endian.
func EncodeValuesBody(w io.Writer, values []float64) error {
	enc := codec.NewWriter(w, tagValuesBody)
	enc.PackedFloat64s(values)
	return enc.Close()
}

// DecodeValuesBody reads a response value vector.
func DecodeValuesBody(r io.Reader) ([]float64, error) {
	dec := codec.NewReader(r)
	tag, err := dec.Header()
	if err != nil {
		return nil, err
	}
	if tag != tagValuesBody {
		return nil, fmt.Errorf("serve: body holds tag %#02x, want values frame", tag)
	}
	values, err := dec.PackedFloat64s(nil)
	if err != nil {
		return nil, err
	}
	if err := dec.Close(); err != nil {
		return nil, err
	}
	return values, nil
}

// --- Zero-copy body codecs. ---
//
// The Encode* functions above (and DecodeValuesBody) stream through the
// codec's Writer/Reader — the right shape for clients and tests. The serving hot
// path instead uses the byte-slice forms below: the complete request body is
// read into a pooled buffer, checksum-verified in one pass, and parsed in
// place; the response is appended directly into the outgoing HSYN frame held
// in a pooled buffer (header reserved up front, CRC computed over the filled
// region), with no intermediate encode buffer. Both forms produce and accept
// identical bytes.

// AppendValuesBody appends one complete response value frame to dst (the
// frame starts at len(dst)) and returns the extended slice — the zero-copy
// counterpart of EncodeValuesBody.
func AppendValuesBody(dst []byte, values []float64) []byte {
	start := len(dst)
	dst = codec.AppendFrameHeader(dst, tagValuesBody)
	dst = codec.AppendPackedFloat64s(dst, values)
	return codec.FinishFrame(dst, start)
}

// parseBodyHeader verifies a complete request frame held in buf (checksum
// first, then tag and batch length) and returns the payload cursor.
func parseBodyHeader(buf []byte, wantTag byte, maxBatch int) (codec.FramePayload, int, error) {
	tag, payload, err := codec.ParseFrame(buf)
	if err != nil {
		return codec.FramePayload{}, 0, err
	}
	if tag != wantTag {
		return codec.FramePayload{}, 0, fmt.Errorf("serve: body holds tag %#02x, want %#02x", tag, wantTag)
	}
	p := codec.NewFramePayload(payload)
	n, err := p.SliceLen()
	if err != nil {
		return codec.FramePayload{}, 0, err
	}
	if n > maxBatch {
		return codec.FramePayload{}, 0, fmt.Errorf("serve: batch of %d exceeds the server's limit of %d", n, maxBatch)
	}
	return p, n, nil
}

// ParsePointsBody parses a complete point-query frame held in buf, writing
// the points into xs (grown only when too small), so a steady request
// stream allocates nothing.
func ParsePointsBody(buf []byte, maxBatch int, xs []int) ([]int, error) {
	p, n, err := parseBodyHeader(buf, tagPointsBody, maxBatch)
	if err != nil {
		return nil, err
	}
	xs = growInts(xs, n)
	for i := range xs {
		v, err := p.Varint()
		if err != nil {
			return nil, err
		}
		xs[i] = int(v)
	}
	if err := p.Done(); err != nil {
		return nil, err
	}
	return xs, nil
}

// ParseRangesBody parses a complete range-query frame held in buf into as
// and bs (each grown only when too small).
func ParseRangesBody(buf []byte, maxBatch int, as, bs []int) (outAs, outBs []int, err error) {
	p, n, err := parseBodyHeader(buf, tagRangesBody, maxBatch)
	if err != nil {
		return nil, nil, err
	}
	as = growInts(as, n)
	bs = growInts(bs, n)
	for i := range as {
		a, err := p.Varint()
		if err != nil {
			return nil, nil, err
		}
		b, err := p.Varint()
		if err != nil {
			return nil, nil, err
		}
		as[i], bs[i] = int(a), int(b)
	}
	if err := p.Done(); err != nil {
		return nil, nil, err
	}
	return as, bs, nil
}

// ParseAddBody parses a complete ingest frame held in buf into xs and ws
// (each grown only when too small). The returned weights slice is nil when
// the frame carries the no-weights flag, so callers keep their own buffer
// for reuse; when weights are present they go through the codec's
// packed-float parser, which rejects NaN and ±Inf — the binary body gets the
// same strictness JSON gets from its grammar.
func ParseAddBody(buf []byte, maxBatch int, xs []int, ws []float64) (points []int, weights []float64, err error) {
	p, n, err := parseBodyHeader(buf, tagAddBody, maxBatch)
	if err != nil {
		return nil, nil, err
	}
	xs = growInts(xs, n)
	for i := range xs {
		v, err := p.Varint()
		if err != nil {
			return nil, nil, err
		}
		xs[i] = int(v)
	}
	flag, err := p.ReadByte()
	if err != nil {
		return nil, nil, err
	}
	switch flag {
	case 0:
	case 1:
		if ws, err = p.PackedFloat64s(ws); err != nil {
			return nil, nil, err
		}
		if len(ws) != n {
			return nil, nil, fmt.Errorf("serve: %d weights for %d points", len(ws), n)
		}
		weights = ws
	default:
		return nil, nil, fmt.Errorf("serve: bad weights flag %d", flag)
	}
	if err := p.Done(); err != nil {
		return nil, nil, err
	}
	return xs, weights, nil
}

// growInts returns xs resized to n, reallocating only on a short capacity.
func growInts(xs []int, n int) []int {
	if cap(xs) < n {
		return make([]int, n)
	}
	return xs[:n]
}
