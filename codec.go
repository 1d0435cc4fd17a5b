package histapprox

import (
	"fmt"
	"io"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/piecewise"
	"repro/internal/quantile"
	"repro/internal/stream"
	"repro/internal/synopsis"
	"repro/internal/wavelet"
)

// Persistence & snapshots.
//
// Every synopsis type speaks one versioned binary wire format (see
// internal/codec): a 6-byte envelope header (magic "HSYN", format version,
// type tag), a payload of varint/delta-encoded boundaries and raw-bits
// IEEE-754 values, and a CRC-32C footer. Round trips are bit-identical —
// encode→decode→encode yields identical bytes and a decoded object answers
// every query with bit-identical results — and decoding validates as
// strictly as the JSON decoders (malformed partitions, non-finite values,
// corrupt or truncated envelopes are all rejected).
//
// Three ways in:
//
//   - io.WriterTo / io.ReaderFrom on the synopsis types themselves:
//     Histogram, Hierarchy, PiecewisePoly, CDF, and WaveletSynopsis all
//     implement both, so h.WriteTo(file) / h.ReadFrom(file) work directly.
//   - Snapshot / Restore on the streaming engines: a StreamingHistogram or
//     ShardedHistogram checkpoints its summary views plus the pending
//     (uncompacted) update logs, so a restored engine resumes mid-stream
//     bit-identically to the uninterrupted run — see examples/checkpoint.
//   - Encode / Decode here: tag-dispatched helpers when the caller does not
//     know (or care) which synopsis type a stream holds.
//
// Envelopes are self-delimiting, so any number of them can be concatenated
// on one stream and read back in order.

// Encode writes v as one binary envelope to w. Supported types: *Histogram,
// *Hierarchy, *PiecewisePoly, *CDF, *WaveletSynopsis, a SelectivityEstimator
// built by this package, *StreamingHistogram, and *ShardedHistogram.
func Encode(w io.Writer, v any) error {
	switch obj := v.(type) {
	case *Histogram:
		_, err := obj.WriteTo(w)
		return err
	case *Hierarchy:
		_, err := obj.WriteTo(w)
		return err
	case *PiecewisePoly:
		_, err := obj.WriteTo(w)
		return err
	case *CDF:
		_, err := obj.WriteTo(w)
		return err
	case *WaveletSynopsis:
		_, err := obj.WriteTo(w)
		return err
	case *StreamingHistogram:
		return obj.Snapshot(w)
	case *ShardedHistogram:
		return obj.Snapshot(w)
	default:
		if est, ok := v.(SelectivityEstimator); ok {
			return synopsis.EncodeEstimator(w, est)
		}
		return fmt.Errorf("histapprox: cannot encode %T", v)
	}
}

// Decode reads one binary envelope from r and returns the decoded object:
// *Histogram, *Hierarchy, *PiecewisePoly, *CDF, *WaveletSynopsis,
// SelectivityEstimator, *StreamingHistogram, or *ShardedHistogram depending
// on the envelope's type tag. The CRC footer is verified before the object
// is returned.
func Decode(r io.Reader) (any, error) {
	dec := codec.NewReader(r)
	tag, err := dec.Header()
	if err != nil {
		return nil, err
	}
	var v any
	switch tag {
	case codec.TagHistogram:
		v, err = core.DecodeHistogramPayload(dec)
	case codec.TagHierarchy:
		v, err = core.DecodeHierarchyPayload(dec)
	case codec.TagPiecewisePoly:
		v, err = piecewise.DecodePayload(dec)
	case codec.TagCDF:
		v, err = quantile.DecodePayload(dec)
	case codec.TagWavelet:
		v, err = wavelet.DecodePayload(dec)
	case codec.TagEstimator:
		v, err = synopsis.DecodeEstimatorPayload(dec)
	case codec.TagMaintainer, codec.TagSharded, codec.TagWindowed:
		v, err = stream.DecodePayload(dec, tag)
	default:
		return nil, fmt.Errorf("histapprox: unknown type tag %d", tag)
	}
	if err != nil {
		return nil, err
	}
	if err := dec.Close(); err != nil {
		return nil, err
	}
	return v, nil
}

// DecodeHistogram reads one histogram envelope from r.
func DecodeHistogram(r io.Reader) (*Histogram, error) { return core.DecodeHistogram(r) }

// DecodeHierarchy reads one hierarchy envelope from r.
func DecodeHierarchy(r io.Reader) (*Hierarchy, error) { return core.DecodeHierarchy(r) }

// DecodePiecewisePoly reads one piecewise-polynomial envelope from r.
func DecodePiecewisePoly(r io.Reader) (*PiecewisePoly, error) { return piecewise.Decode(r) }

// DecodeCDF reads one CDF envelope from r.
func DecodeCDF(r io.Reader) (*CDF, error) { return quantile.Decode(r) }

// DecodeWaveletSynopsis reads one wavelet-synopsis envelope from r.
func DecodeWaveletSynopsis(r io.Reader) (*WaveletSynopsis, error) { return wavelet.Decode(r) }

// EncodeSelectivityEstimator writes a range estimator's O(pieces) state as
// one binary envelope (histogram-backed estimators store their buckets;
// wavelet estimators store their coefficients — derived serving tables are
// rebuilt on decode).
func EncodeSelectivityEstimator(w io.Writer, est SelectivityEstimator) error {
	return synopsis.EncodeEstimator(w, est)
}

// DecodeSelectivityEstimator reads one estimator envelope from r. The
// restored estimator answers every EstimateRange bit-identically to the one
// encoded.
func DecodeSelectivityEstimator(r io.Reader) (SelectivityEstimator, error) {
	return synopsis.DecodeEstimator(r)
}

// RestoreStreamingHistogram reads a StreamingHistogram checkpoint written by
// its Snapshot method: the restored maintainer holds the same summary, the
// same pending buffered updates, and the same counters, and resumes the
// stream bit-identically to the uninterrupted run.
func RestoreStreamingHistogram(r io.Reader) (*StreamingHistogram, error) {
	return stream.RestoreMaintainer(r)
}

// RestoreShardedMaintainer reads a ShardedHistogram checkpoint written by
// its Snapshot method, rebuilding every shard's summary and pending update
// log with the original shard count (point routing depends on it).
func RestoreShardedMaintainer(r io.Reader) (*ShardedHistogram, error) {
	return stream.RestoreSharded(r)
}
