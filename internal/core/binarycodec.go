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
// estimators, the serving layer) can embed a histogram in their own
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
	w.DeltaIntsFunc(len(h.pieces), func(i int) int { return h.pieces[i].Hi })
	w.PackedFloat64sFunc(len(h.pieces), func(i int) float64 { return h.pieces[i].Value })
}

// DecodeHistogramPayload reads and validates a histogram payload. Malformed
// partitions (gaps, overlaps, wrong final end) and non-finite values are
// rejected, exactly as strictly as UnmarshalJSON.
func DecodeHistogramPayload(r *codec.Reader) (*Histogram, error) {
	n, err := r.Int()
	if err != nil {
		return nil, err
	}
	ends, err := r.DeltaInts(nil)
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
// raw-bits values): the input a hierarchy payload carries. Both sequences
// are read from the entries as they are written.
func EncodeSparsePayload(w *codec.Writer, q *sparse.Func) {
	w.Int(q.N())
	entries := q.Entries()
	w.DeltaIntsFunc(len(entries), func(i int) int { return entries[i].Index })
	w.PackedFloat64sFunc(len(entries), func(i int) float64 { return entries[i].Value })
}

// decodeSparse reads and validates a sparse function payload: indices
// strictly increasing inside [1, n], values finite and nonzero (a zero
// would be silently dropped by sparse.New, breaking the
// encode→decode→encode bit-identity contract). The delta encoding already
// orders the indices, so the entries are handed to sparse.FromSorted, which
// checks them in one pass and keeps them without a copy or a sort. It also
// hands back the buffer the indices were read into, which the caller may
// reuse.
func decodeSparse(r *codec.Reader) (*sparse.Func, []int, error) {
	n, err := r.Int()
	if err != nil {
		return nil, nil, err
	}
	idxs, err := r.DeltaInts(nil)
	if err != nil {
		return nil, nil, err
	}
	values, err := r.PackedFloat64s(nil)
	if err != nil {
		return nil, nil, err
	}
	if len(values) != len(idxs) {
		return nil, nil, fmt.Errorf("core: %d values for %d sparse indices", len(values), len(idxs))
	}
	entries := make([]sparse.Entry, len(idxs))
	for i, idx := range idxs {
		entries[i] = sparse.Entry{Index: idx, Value: values[i]}
	}
	q, err := sparse.FromSorted(n, entries)
	if err != nil {
		return nil, nil, fmt.Errorf("core: decoding sparse function: %w", err)
	}
	return q, idxs, nil
}

// EncodeHierarchyPayload writes a hierarchy's wire payload: the input sparse
// function (ForK flattens it when serving a level) followed by every
// level's boundaries and error, re-emitted from I₀'s endpoints and their
// death rounds.
func EncodeHierarchyPayload(w *codec.Writer, h *Hierarchy) {
	EncodeSparsePayload(w, h.q)
	w.Int(len(h.pieces))
	h.eachLevel(func(li int, ends []int) {
		w.DeltaInts(ends)
		w.Float64(h.errs[li])
	})
}

// DecodeHierarchyPayload reads and validates a hierarchy payload. Structural
// invariants of Algorithm 2's output are enforced: one to maxLevels levels,
// every level a valid partition of [1, n], strictly decreasing level sizes
// with each level refining its successor, the final level under 8 pieces
// (what makes ForK total), and non-negative finite errors.
//
// Level 0 becomes the hierarchy's I₀ endpoints. Every later level is read
// into one reused buffer and recorded in the death bytes by fold, as
// construction records each round, in one pass over the level above it;
// the fold is also the nesting check: it fails unless the level's
// endpoints are a subset of the previous level's that keeps n.
func DecodeHierarchyPayload(r *codec.Reader) (*Hierarchy, error) {
	// The input's index buffer becomes the levels' read buffer, vals.
	q, vals, err := decodeSparse(r)
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
	if numLevels > maxLevels {
		return nil, fmt.Errorf("core: hierarchy of %d levels, more than %d", numLevels, maxLevels)
	}
	n := q.N()
	ends, err := r.DeltaInts(nil)
	if err != nil {
		return nil, err
	}
	if len(ends) == 0 || ends[0] < 1 || ends[len(ends)-1] != n {
		return nil, fmt.Errorf("core: hierarchy level 0 is not a partition of [1, %d]", n)
	}
	h, pos := newHierarchy(q, ends)
	if err := h.readLevelError(r, len(ends)); err != nil {
		return nil, err
	}
	for li := 1; li < numLevels; li++ {
		if vals, err = r.DeltaInts(vals); err != nil {
			return nil, err
		}
		if len(vals) >= len(pos) {
			return nil, fmt.Errorf("core: hierarchy level %d has %d pieces, not fewer than the %d above it",
				li, len(vals), len(pos))
		}
		var ok bool
		if pos, ok = h.fold(uint8(li), pos, vals); !ok {
			return nil, fmt.Errorf("core: hierarchy level %d is not a coarsening of level %d", li, li-1)
		}
		if err := h.readLevelError(r, len(vals)); err != nil {
			return nil, err
		}
	}
	if last := h.pieces[len(h.pieces)-1]; last >= 8 {
		return nil, fmt.Errorf("core: final hierarchy level has %d pieces, want < 8", last)
	}
	return h, nil
}

// readLevelError reads the next level's error, which must be finite and
// non-negative, and records the level.
func (h *Hierarchy) readLevelError(r *codec.Reader, pieces int) error {
	e, err := r.FiniteFloat64()
	if err != nil {
		return err
	}
	if e < 0 {
		return fmt.Errorf("core: hierarchy level %d has negative error %v", len(h.pieces), e)
	}
	h.addLevel(pieces, e)
	return nil
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
