package wavelet

import (
	"fmt"
	"io"

	"repro/internal/codec"
)

// EncodePayload writes the synopsis' stored state: original and padded
// lengths, the delta-encoded kept-coefficient indices, their raw-bits
// values, and the dropped energy (the Parseval error term, which cannot be
// recomputed from the kept coefficients alone).
func EncodePayload(w *codec.Writer, s *Synopsis) {
	w.Int(s.n)
	w.Int(s.pn)
	w.DeltaInts(s.indices)
	w.PackedFloat64s(s.values)
	w.Float64(s.droppedEnergy)
}

// DecodePayload reads and validates a synopsis payload: pn a power of two
// with n ≤ pn < 2n (what Pad produces), at least one kept coefficient,
// indices strictly increasing inside [0, pn), finite values, and a finite
// non-negative dropped energy.
func DecodePayload(r *codec.Reader) (*Synopsis, error) {
	n, err := r.Int()
	if err != nil {
		return nil, err
	}
	pn, err := r.Int()
	if err != nil {
		return nil, err
	}
	if n < 1 || pn < n || pn&(pn-1) != 0 || (pn > 1 && pn/2 >= n) {
		return nil, fmt.Errorf("wavelet: padded length %d invalid for original length %d", pn, n)
	}
	indices, err := r.DeltaInts(nil)
	if err != nil {
		return nil, err
	}
	if len(indices) == 0 {
		return nil, fmt.Errorf("wavelet: synopsis with no coefficients")
	}
	if indices[0] < 0 || indices[len(indices)-1] >= pn {
		return nil, fmt.Errorf("wavelet: coefficient indices outside [0, %d)", pn)
	}
	values, err := r.PackedFloat64s(nil)
	if err != nil {
		return nil, err
	}
	if len(values) != len(indices) {
		return nil, fmt.Errorf("wavelet: %d values for %d indices", len(values), len(indices))
	}
	dropped, err := r.FiniteFloat64()
	if err != nil {
		return nil, err
	}
	if dropped < 0 {
		return nil, fmt.Errorf("wavelet: negative dropped energy %v", dropped)
	}
	return &Synopsis{n: n, pn: pn, indices: indices, values: values, droppedEnergy: dropped}, nil
}

// WriteTo encodes the synopsis as one binary envelope (see internal/codec)
// and implements io.WriterTo. A decoded synopsis reconstructs and reports
// its error bit-identically: the inverse transform is a pure function of
// the stored coefficients.
func (s *Synopsis) WriteTo(w io.Writer) (int64, error) {
	enc := codec.NewWriter(w, codec.TagWavelet)
	EncodePayload(enc, s)
	err := enc.Close()
	return enc.Len(), err
}

// ReadFrom decodes one binary envelope into the receiver and implements
// io.ReaderFrom. Validation happens before the receiver is touched.
func (s *Synopsis) ReadFrom(r io.Reader) (int64, error) {
	dec := codec.NewReader(r)
	tag, err := dec.Header()
	if err != nil {
		return dec.Len(), err
	}
	if tag != codec.TagWavelet {
		return dec.Len(), fmt.Errorf("wavelet: envelope holds type tag %d, not a wavelet synopsis", tag)
	}
	fresh, err := DecodePayload(dec)
	if err != nil {
		return dec.Len(), err
	}
	if err := dec.Close(); err != nil {
		return dec.Len(), err
	}
	*s = *fresh
	return dec.Len(), nil
}

// Decode reads one synopsis envelope from r.
func Decode(r io.Reader) (*Synopsis, error) {
	s := new(Synopsis)
	if _, err := s.ReadFrom(r); err != nil {
		return nil, err
	}
	return s, nil
}
