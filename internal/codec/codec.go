// Package codec is the versioned binary wire format shared by every
// synopsis type in the repository: histograms, hierarchies, piecewise
// polynomials, CDFs, wavelet synopses, and the streaming maintainer /
// sharded-intake checkpoints.
//
// The paper's point is that an O(k)-number summary is a portable object —
// cheap to ship, merge, and serve. This package is the shipping layer. One
// envelope frames every object:
//
//	magic "HSYN" (4 bytes) | format version (1) | type tag (1) | payload | CRC-32C (4)
//
// and one small vocabulary encodes every payload:
//
//   - integers as (u)varints;
//   - strictly increasing integer sequences (partition boundaries, wavelet
//     coefficient indices) delta-encoded, so k boundaries over a domain of n
//     cost ~k·log₂(n/k)/7 bytes instead of 8k;
//   - float64 values as raw IEEE-754 bits, little-endian — round-trips are
//     bit-identical by construction, unlike any decimal rendering.
//
// The CRC-32C footer covers everything from the magic onward, so truncation
// and corruption are detected before a decoded object is ever used.
//
// One cursor decodes that vocabulary for both decoders. FramePayload runs
// it over an in-memory payload whose CRC ParseFrame has already checked.
// Reader runs it over a window refilled from an io.Reader: one io.ReadFull
// and one CRC update per refill, sized by what the payload has already
// promised (a k-element sequence takes at least k bytes). A valid envelope
// backs every promise, so Reader consumes exactly one envelope and
// envelopes can be concatenated on one stream.
//
// Per-type payload encoders live next to their types (core, piecewise,
// quantile, wavelet, synopsis) as Encode*Payload / Decode*Payload functions
// over this package's Writer and Reader; stream and wal build their
// envelopes with the Append* helpers, and stream decodes through Source,
// which Reader and FramePayload both satisfy. The top-level package
// dispatches on the type tag. Version 1 is pinned by golden fixtures under
// testdata/ — future versions must keep decoding it.
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"math"
)

// Version is the current format version written by every encoder. Decoders
// accept exactly the versions they know how to parse (currently only 1).
const Version = 1

// Magic is the 4-byte envelope prefix.
var Magic = [4]byte{'H', 'S', 'Y', 'N'}

// Type tags identify the object inside an envelope. Values are part of the
// wire format: never renumber, only append. Tags 0xF0–0xFF are reserved for
// the HTTP serving layer's request/response body frames (internal/serve),
// which ride the same envelope machinery; synopsis tags must stay below
// that range so a query body can never be mistaken for a synopsis.
const (
	TagHistogram     byte = 1  // core.Histogram
	TagHierarchy     byte = 2  // core.Hierarchy
	TagPiecewisePoly byte = 3  // piecewise.PiecewiseFunc
	TagCDF           byte = 4  // quantile.CDF
	TagWavelet       byte = 5  // wavelet.Synopsis
	TagEstimator     byte = 6  // synopsis.Synopsis (range estimator state)
	TagMaintainer    byte = 7  // stream.Maintainer checkpoint
	TagSharded       byte = 8  // stream.Sharded checkpoint
	TagWALRecord     byte = 9  // internal/wal update-batch record (one ingest call)
	TagWALManifest   byte = 10 // internal/wal checkpoint manifest
	TagWindowed      byte = 11 // stream windowed-engine checkpoint (epoch ring; maintainer or sharded)

	// TagShardedDelta lives in the serving-reserved range on purpose: a
	// delta frame is a replication wire artifact (stream.Checkpoint deltas
	// shipped between servers), not a persistent synopsis, and must never be
	// decodable as one. internal/serve's body tags occupy 0xF0–0xF3.
	TagShardedDelta byte = 0xF4 // stream.Sharded delta checkpoint (changed shards only)
	// TagShardedDeltaW is the windowed-engine delta layout: TagShardedDelta
	// plus the window span in the header and each carried shard's epoch ring
	// after its state. It is a separate tag (not a field spliced into 0xF4)
	// so a mixed-version fleet fails loudly — an old binary rejects the
	// unknown tag instead of misparsing the extra fields, and plain engines
	// keep emitting byte-identical 0xF4 frames across the upgrade.
	TagShardedDeltaW byte = 0xF5 // stream.Sharded delta checkpoint, windowed engine
)

// castagnoli is the CRC-32C table (iSCSI polynomial), hardware-accelerated
// on amd64/arm64.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// maxElems bounds any single length prefix a decoder will honor. It exists
// purely to stop a corrupt or adversarial length from driving a huge
// allocation before validation can reject the payload; real synopses are
// O(k) with k orders of magnitude below this.
const maxElems = 1 << 28

// MaxInt is the largest value Int decodes, and the largest start and gap
// DeltaInts decodes, 2^62 − 1: a configuration field an engine checkpoints
// through Int must not exceed it.
const MaxInt = math.MaxInt64 / 2

// ErrChecksum is returned by Reader.Close when the footer CRC does not match
// the consumed envelope bytes.
var ErrChecksum = errors.New("codec: checksum mismatch")

// Source is the payload vocabulary both decoders speak: Reader over a
// streamed envelope (CRC checked at Close) and FramePayload over an
// in-memory frame (CRC checked up front by ParseFrame). Both run the same
// methods, so a payload decoder written against Source reads either byte
// source with the same validation.
type Source interface {
	ReadByte() (byte, error)
	Uvarint() (uint64, error)
	Varint() (int64, error)
	Int() (int, error)
	SliceLen() (int, error)
	FiniteFloat64() (float64, error)
	Ints(dst []int) ([]int, error)
	DeltaInts(dst []int) ([]int, error)
	PackedFloat64s(dst []float64) ([]float64, error)
}

var (
	_ Source = (*Reader)(nil)
	_ Source = (*FramePayload)(nil)
)

// A Writer frames one object: NewWriter emits the envelope header, the
// payload methods append to the running CRC, and Close appends the footer.
// Methods are no-ops after the first error; Close reports it.
type Writer struct {
	w   io.Writer
	crc hash.Hash32
	n   int64
	err error
	buf [binary.MaxVarintLen64]byte
	// scratch holds a sequence encoded by its Append* twin before one raw
	// write.
	scratch []byte
}

// NewWriter starts an envelope with the given type tag on w.
func NewWriter(w io.Writer, tag byte) *Writer {
	enc := &Writer{w: w, crc: crc32.New(castagnoli)}
	var hdr [6]byte
	copy(hdr[:4], Magic[:])
	hdr[4] = Version
	hdr[5] = tag
	enc.raw(hdr[:])
	return enc
}

// raw writes p, feeding the CRC.
func (e *Writer) raw(p []byte) {
	if e.err != nil {
		return
	}
	n, err := e.w.Write(p)
	e.n += int64(n)
	if err != nil {
		e.err = err
		return
	}
	e.crc.Write(p)
}

// Uvarint appends an unsigned varint.
func (e *Writer) Uvarint(u uint64) {
	n := binary.PutUvarint(e.buf[:], u)
	e.raw(e.buf[:n])
}

// Varint appends a zig-zag signed varint.
func (e *Writer) Varint(v int64) {
	n := binary.PutVarint(e.buf[:], v)
	e.raw(e.buf[:n])
}

// Int appends a non-negative int as a uvarint.
func (e *Writer) Int(v int) { e.Uvarint(uint64(v)) }

// Byte appends a single byte (via buf — no allocation).
func (e *Writer) Byte(b byte) {
	e.buf[0] = b
	e.raw(e.buf[:1])
}

// Float64 appends the raw IEEE-754 bits, little-endian.
func (e *Writer) Float64(f float64) {
	binary.LittleEndian.PutUint64(e.buf[:8], math.Float64bits(f))
	e.raw(e.buf[:8])
}

// Float64s appends a length prefix followed by the raw bits of every value.
func (e *Writer) Float64s(fs []float64) {
	e.Int(len(fs))
	for _, f := range fs {
		e.Float64(f)
	}
}

// PackedFloat64s appends values in AppendPackedFloat64s's XOR-packed
// layout.
func (e *Writer) PackedFloat64s(fs []float64) {
	e.scratch = AppendPackedFloat64s(e.scratch[:0], fs)
	e.raw(e.scratch)
}

// DeltaInts appends a strictly increasing integer sequence in
// AppendDeltaInts's layout, panicking like it on a non-increasing one.
func (e *Writer) DeltaInts(xs []int) {
	e.scratch = AppendDeltaInts(e.scratch[:0], xs)
	e.raw(e.scratch)
}

// Len returns the number of bytes written so far (header included; footer
// only after Close).
func (e *Writer) Len() int64 { return e.n }

// Close appends the CRC-32C footer and returns the first error encountered.
// It does not close the underlying writer.
func (e *Writer) Close() error {
	if e.err != nil {
		return e.err
	}
	var foot [4]byte
	binary.LittleEndian.PutUint32(foot[:], e.crc.Sum32())
	n, err := e.w.Write(foot[:])
	e.n += int64(n)
	if err != nil {
		e.err = err
	}
	return e.err
}

// A Reader consumes one envelope from r: Header validates the magic and
// version and returns the tag, the payload methods mirror the Writer's, and
// Close reads the footer and verifies the CRC. The payload methods are
// FramePayload's, run over a window that refills from r in bulk (see
// cursor), and read no byte past what the payload has promised, so a valid
// envelope is consumed exactly. Every method returns an error rather than
// panicking, whatever the input bytes — decoding untrusted data is the
// point.
type Reader struct{ cursor }

// NewReader wraps r for decoding one envelope.
func NewReader(r io.Reader) *Reader {
	return &Reader{cursor{src: r}}
}

// Reset readies d to decode the next envelope from r, as NewReader(r)
// would: the CRC and Len restart from zero, and any bytes left in the
// window are dropped. The window keeps its capacity, so a caller decoding
// envelope after envelope refills one buffer instead of allocating one
// per envelope.
func (d *Reader) Reset(r io.Reader) {
	d.cursor = cursor{buf: d.buf[:0], src: r}
}

// Header validates the envelope prefix and returns the type tag. An error
// wrapping io.EOF means r ended before the envelope's first byte; a partial
// header gives io.ErrUnexpectedEOF.
func (d *Reader) Header() (tag byte, err error) {
	if err := d.need(6, 6); err != nil {
		return 0, err
	}
	hdr := d.buf[d.off : d.off+6]
	d.off += 6
	if [4]byte(hdr[:4]) != Magic {
		return 0, fmt.Errorf("codec: bad magic %q", hdr[:4])
	}
	if hdr[4] != Version {
		return 0, fmt.Errorf("codec: unsupported format version %d (have %d)", hdr[4], Version)
	}
	return hdr[5], nil
}

// Len returns the number of bytes consumed so far (footer included only
// after Close).
func (d *Reader) Len() int64 { return d.n - int64(d.avail()) }

// Close reads the 4-byte footer and verifies the CRC over everything
// consumed since NewReader. It must be called after the payload is fully
// decoded: payload bytes left in the window are an error, and a mismatch
// (corruption, truncation, or a decoder that misread the payload shape)
// returns ErrChecksum.
func (d *Reader) Close() error {
	if err := d.done(); err != nil {
		return err
	}
	var foot [4]byte
	if _, err := io.ReadFull(d.src, foot[:]); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return fmt.Errorf("codec: reading checksum: %w", err)
	}
	d.n += 4
	if got := binary.LittleEndian.Uint32(foot[:]); got != d.crc {
		return fmt.Errorf("%w: footer %08x, computed %08x", ErrChecksum, got, d.crc)
	}
	return nil
}
