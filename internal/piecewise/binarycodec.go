package piecewise

import (
	"fmt"
	"io"

	"repro/internal/cheby"
	"repro/internal/codec"
	"repro/internal/interval"
)

// Fit kinds on the wire. A fitted piece is either a constant (the
// histogram/flattening oracle) or a Gram-basis polynomial (the Chebyshev
// projection oracle); those are the two evaluator types the construction
// paths produce. Values are part of the format: never renumber.
const (
	fitConst byte = 0
	fitPoly  byte = 1
)

// EncodePayload writes the piecewise function's wire payload: domain size,
// then per piece the boundary delta, squared fit error, and the fit itself
// (kind byte + parameters). It returns an error for evaluator types outside
// the wire vocabulary rather than guessing at their state.
func EncodePayload(w *codec.Writer, f *PiecewiseFunc) error {
	w.Int(f.n)
	ends := make([]int, len(f.pieces))
	for i, pc := range f.pieces {
		ends[i] = pc.Hi
	}
	w.DeltaInts(ends)
	for i, pc := range f.pieces {
		w.Float64(pc.ErrSq)
		switch fit := pc.Fit.(type) {
		case constEval:
			w.Byte(fitConst)
			w.Float64(float64(fit))
		case cheby.Projection:
			w.Byte(fitPoly)
			w.Int(fit.D)
			w.Float64s(fit.Coeffs)
		default:
			return fmt.Errorf("piecewise: piece %d has unencodable fit type %T", i, pc.Fit)
		}
	}
	return nil
}

// DecodePayload reads and validates a piecewise function payload: a proper
// partition of [1, n], finite non-negative piece errors, and per-piece fits
// whose shape matches their interval (coefficient counts are checked by
// cheby.FromCoeffs against the effective degree).
func DecodePayload(r *codec.Reader) (*PiecewiseFunc, error) {
	n, err := r.Int()
	if err != nil {
		return nil, err
	}
	ends, err := r.DeltaInts(nil)
	if err != nil {
		return nil, err
	}
	if len(ends) == 0 {
		return nil, fmt.Errorf("piecewise: empty partition")
	}
	if ends[0] < 1 || ends[len(ends)-1] != n {
		return nil, fmt.Errorf("piecewise: boundaries do not cover [1, %d]", n)
	}
	pieces := make([]FittedPiece, len(ends))
	lo := 1
	for i, hi := range ends {
		errSq, err := r.FiniteFloat64()
		if err != nil {
			return nil, err
		}
		if errSq < 0 {
			return nil, fmt.Errorf("piecewise: piece %d has negative squared error %v", i, errSq)
		}
		kind, err := r.ReadByte()
		if err != nil {
			return nil, err
		}
		var fit Evaluator
		switch kind {
		case fitConst:
			v, err := r.FiniteFloat64()
			if err != nil {
				return nil, err
			}
			fit = constEval(v)
		case fitPoly:
			d, err := r.Int()
			if err != nil {
				return nil, err
			}
			coeffs, err := r.Float64s()
			if err != nil {
				return nil, err
			}
			proj, err := cheby.FromCoeffs(lo, hi, d, coeffs, errSq)
			if err != nil {
				return nil, fmt.Errorf("piecewise: piece %d: %w", i, err)
			}
			fit = proj
		default:
			return nil, fmt.Errorf("piecewise: unknown fit kind %d", kind)
		}
		// DeltaInts guarantees strictly increasing ends and ends[0] ≥ 1 was
		// checked above, so [lo, hi] is always a valid interval here.
		pieces[i] = FittedPiece{Interval: interval.New(lo, hi), Fit: fit, ErrSq: errSq}
		lo = hi + 1
	}
	return &PiecewiseFunc{n: n, pieces: pieces}, nil
}

// WriteTo encodes the piecewise function as one binary envelope (see
// internal/codec) and implements io.WriterTo. encode→decode→encode is
// bit-identical, and a decoded function evaluates bit-identically at every
// point (the Gram recurrence is a pure function of the stored coefficients).
func (f *PiecewiseFunc) WriteTo(w io.Writer) (int64, error) {
	enc := codec.NewWriter(w, codec.TagPiecewisePoly)
	if err := EncodePayload(enc, f); err != nil {
		return enc.Len(), err
	}
	err := enc.Close()
	return enc.Len(), err
}

// ReadFrom decodes one binary envelope into the receiver and implements
// io.ReaderFrom. Validation happens before the receiver is touched.
func (f *PiecewiseFunc) ReadFrom(r io.Reader) (int64, error) {
	dec := codec.NewReader(r)
	tag, err := dec.Header()
	if err != nil {
		return dec.Len(), err
	}
	if tag != codec.TagPiecewisePoly {
		return dec.Len(), fmt.Errorf("piecewise: envelope holds type tag %d, not a piecewise function", tag)
	}
	fresh, err := DecodePayload(dec)
	if err != nil {
		return dec.Len(), err
	}
	if err := dec.Close(); err != nil {
		return dec.Len(), err
	}
	*f = *fresh
	return dec.Len(), nil
}

// Decode reads one piecewise-function envelope from r.
func Decode(r io.Reader) (*PiecewiseFunc, error) {
	f := new(PiecewiseFunc)
	if _, err := f.ReadFrom(r); err != nil {
		return nil, err
	}
	return f, nil
}
