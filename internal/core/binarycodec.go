package core

import (
	"fmt"
	"io"

	"repro/internal/codec"
	"repro/internal/interval"
	"repro/internal/sparse"
)

// This file is core's half of the versioned binary codec (internal/codec):
// payload encoders for the two core synopsis types, plus the io.WriterTo /
// io.ReaderFrom envelope methods built on them. The payload functions are
// exported so composite types in other packages (quantile.CDF, the synopsis
// estimators, the stream checkpoints) can embed a histogram in their own
// payloads without nesting a second envelope.

// Validate checks the option parameters the way every construction entry
// point does: Delta positive and finite, Gamma ≥ 1 and finite. Workers needs
// no validation (every value has a meaning). Exported so decoders can reject
// a corrupt checkpoint's options before building anything from them.
func (o Options) Validate() error { return o.validate() }

// EncodeHistogramPayload writes the histogram's wire payload: the domain
// size, the delta-encoded piece boundaries, and the raw-bits piece values —
// the same (n, ends, values) triple MarshalJSON emits, in binary.
func EncodeHistogramPayload(w *codec.Writer, h *Histogram) {
	w.Int(h.n)
	ends := make([]int, len(h.pieces))
	for i, pc := range h.pieces {
		ends[i] = pc.Hi
	}
	w.DeltaInts(ends)
	values := make([]float64, len(h.pieces))
	for i, pc := range h.pieces {
		values[i] = pc.Value
	}
	w.PackedFloat64s(values)
}

// DecodeHistogramPayload reads and validates a histogram payload. Malformed
// partitions (gaps, overlaps, wrong final end) and non-finite values are
// rejected, exactly as strictly as UnmarshalJSON.
func DecodeHistogramPayload(r *codec.Reader) (*Histogram, error) {
	n, err := r.Int()
	if err != nil {
		return nil, err
	}
	ends, err := r.DeltaInts()
	if err != nil {
		return nil, err
	}
	part, err := interval.FromBoundaries(n, ends)
	if err != nil {
		return nil, fmt.Errorf("core: decoding histogram: %w", err)
	}
	values, err := r.PackedFloat64s(nil)
	if err != nil {
		return nil, err
	}
	if len(values) != len(part) {
		return nil, fmt.Errorf("core: %d values for %d pieces", len(values), len(part))
	}
	pieces := make([]Piece, len(part))
	for i, iv := range part {
		pieces[i] = Piece{Interval: iv, Value: values[i]}
	}
	return &Histogram{n: n, pieces: pieces}, nil
}

// WriteTo encodes the histogram as one binary envelope (see internal/codec)
// and implements io.WriterTo. The encoding is canonical: equal histograms
// produce identical bytes, and encode→decode→encode is bit-identical.
func (h *Histogram) WriteTo(w io.Writer) (int64, error) {
	enc := codec.NewWriter(w, codec.TagHistogram)
	EncodeHistogramPayload(enc, h)
	err := enc.Close()
	return enc.Len(), err
}

// ReadFrom decodes one binary envelope into the receiver, replacing its
// pieces, and implements io.ReaderFrom. Like UnmarshalJSON it validates the
// partition before touching the receiver and drops any previously built
// query index, so a reused histogram can never serve the old partition.
func (h *Histogram) ReadFrom(r io.Reader) (int64, error) {
	dec := codec.NewReader(r)
	tag, err := dec.Header()
	if err != nil {
		return dec.Len(), err
	}
	if tag != codec.TagHistogram {
		return dec.Len(), fmt.Errorf("core: envelope holds type tag %d, not a histogram", tag)
	}
	fresh, err := DecodeHistogramPayload(dec)
	if err != nil {
		return dec.Len(), err
	}
	if err := dec.Close(); err != nil {
		return dec.Len(), err
	}
	h.n = fresh.n
	h.pieces = fresh.pieces
	// The decoded pieces replace whatever the histogram previously held; a
	// stale query index would serve the old partition.
	h.invalidateIndex()
	return dec.Len(), nil
}

// DecodeHistogram reads one histogram envelope from r.
func DecodeHistogram(r io.Reader) (*Histogram, error) {
	h := new(Histogram)
	if _, err := h.ReadFrom(r); err != nil {
		return nil, err
	}
	return h, nil
}

// EncodeSparsePayload writes a sparse function as (n, delta-encoded indices,
// raw-bits values). Exported for the stream checkpoints, which persist
// pending update logs in the same vocabulary.
func EncodeSparsePayload(w *codec.Writer, q *sparse.Func) {
	w.Int(q.N())
	entries := q.Entries()
	idxs := make([]int, len(entries))
	for i, e := range entries {
		idxs[i] = e.Index
	}
	w.DeltaInts(idxs)
	values := make([]float64, len(entries))
	for i, e := range entries {
		values[i] = e.Value
	}
	w.PackedFloat64s(values)
}

// DecodeSparsePayload reads and validates a sparse function payload:
// indices strictly increasing inside [1, n], values finite and nonzero (a
// zero would be silently dropped by the sparse constructor, breaking the
// encode→decode→encode bit-identity contract).
func DecodeSparsePayload(r *codec.Reader) (*sparse.Func, error) {
	n, err := r.Int()
	if err != nil {
		return nil, err
	}
	idxs, err := r.DeltaInts()
	if err != nil {
		return nil, err
	}
	values, err := r.PackedFloat64s(nil)
	if err != nil {
		return nil, err
	}
	if len(values) != len(idxs) {
		return nil, fmt.Errorf("core: %d values for %d sparse indices", len(values), len(idxs))
	}
	entries := make([]sparse.Entry, len(idxs))
	for i, idx := range idxs {
		if values[i] == 0 {
			return nil, fmt.Errorf("core: zero value at sparse index %d", idx)
		}
		entries[i] = sparse.Entry{Index: idx, Value: values[i]}
	}
	q, err := sparse.New(n, entries)
	if err != nil {
		return nil, fmt.Errorf("core: decoding sparse function: %w", err)
	}
	return q, nil
}

// EncodeHierarchyPayload writes a hierarchy's wire payload: the input sparse
// function (ForK flattens it when serving a level) followed by every
// recorded level's boundaries and error.
func EncodeHierarchyPayload(w *codec.Writer, h *Hierarchy) {
	EncodeSparsePayload(w, h.q)
	w.Int(len(h.levels))
	for _, lv := range h.levels {
		w.DeltaInts(lv.Partition.Boundaries())
		w.Float64(lv.Error)
	}
}

// DecodeHierarchyPayload reads and validates a hierarchy payload. Structural
// invariants of Algorithm 2's output are enforced: at least one level, every
// level a valid partition of [1, n], strictly decreasing level sizes with
// each level refining its successor, the final level under 8 pieces (what
// makes ForK total), and non-negative finite errors.
func DecodeHierarchyPayload(r *codec.Reader) (*Hierarchy, error) {
	q, err := DecodeSparsePayload(r)
	if err != nil {
		return nil, err
	}
	numLevels, err := r.SliceLen()
	if err != nil {
		return nil, err
	}
	if numLevels < 1 {
		return nil, fmt.Errorf("core: hierarchy with no levels")
	}
	h := &Hierarchy{q: q, levels: make([]Level, 0, numLevels)}
	for li := 0; li < numLevels; li++ {
		ends, err := r.DeltaInts()
		if err != nil {
			return nil, err
		}
		part, err := interval.FromBoundaries(q.N(), ends)
		if err != nil {
			return nil, fmt.Errorf("core: decoding hierarchy level %d: %w", li, err)
		}
		e, err := r.FiniteFloat64()
		if err != nil {
			return nil, err
		}
		if e < 0 {
			return nil, fmt.Errorf("core: hierarchy level %d has negative error %v", li, e)
		}
		if li > 0 {
			prev := h.levels[li-1].Partition
			if len(part) >= len(prev) {
				return nil, fmt.Errorf("core: hierarchy level %d has %d pieces, not fewer than the %d above it",
					li, len(part), len(prev))
			}
			if !prev.Refines(part) {
				return nil, fmt.Errorf("core: hierarchy level %d is not a coarsening of level %d", li, li-1)
			}
		}
		h.levels = append(h.levels, Level{Partition: part, Error: e})
	}
	if last := len(h.levels[len(h.levels)-1].Partition); last >= 8 {
		return nil, fmt.Errorf("core: final hierarchy level has %d pieces, want < 8", last)
	}
	return h, nil
}

// WriteTo encodes the hierarchy as one binary envelope and implements
// io.WriterTo. The payload carries the input sparse function alongside the
// levels, so a decoded hierarchy answers ForK / ErrorEstimate / ParetoCurve
// identically to the original.
func (h *Hierarchy) WriteTo(w io.Writer) (int64, error) {
	enc := codec.NewWriter(w, codec.TagHierarchy)
	EncodeHierarchyPayload(enc, h)
	err := enc.Close()
	return enc.Len(), err
}

// ReadFrom decodes one binary envelope into the receiver and implements
// io.ReaderFrom. Validation happens before the receiver is touched.
func (h *Hierarchy) ReadFrom(r io.Reader) (int64, error) {
	dec := codec.NewReader(r)
	tag, err := dec.Header()
	if err != nil {
		return dec.Len(), err
	}
	if tag != codec.TagHierarchy {
		return dec.Len(), fmt.Errorf("core: envelope holds type tag %d, not a hierarchy", tag)
	}
	fresh, err := DecodeHierarchyPayload(dec)
	if err != nil {
		return dec.Len(), err
	}
	if err := dec.Close(); err != nil {
		return dec.Len(), err
	}
	*h = *fresh
	return dec.Len(), nil
}

// DecodeHierarchy reads one hierarchy envelope from r.
func DecodeHierarchy(r io.Reader) (*Hierarchy, error) {
	h := new(Hierarchy)
	if _, err := h.ReadFrom(r); err != nil {
		return nil, err
	}
	return h, nil
}
