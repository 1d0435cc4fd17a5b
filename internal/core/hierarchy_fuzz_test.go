package core

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/codec"
	"repro/internal/interval"
	"repro/internal/rng"
	"repro/internal/sparse"
)

// oracleHierarchy is a hierarchy as the reference decoder holds it: the
// input and every level as its own partition.
type oracleHierarchy struct {
	q      *sparse.Func
	levels []Level
}

// decodeHierarchyOracle is the reference decoder for FuzzHierarchyDecode:
// it builds every level with interval.FromBoundaries, checks nesting with
// Partition.Refines, and reads the sparse input through sparse.New, whatever
// the level count.
func decodeHierarchyOracle(r io.Reader) (*oracleHierarchy, error) {
	dec := codec.NewReader(r)
	tag, err := dec.Header()
	if err != nil {
		return nil, err
	}
	if tag != codec.TagHierarchy {
		return nil, fmt.Errorf("tag %d", tag)
	}
	n, err := dec.Int()
	if err != nil {
		return nil, err
	}
	idxs, err := dec.DeltaInts(nil)
	if err != nil {
		return nil, err
	}
	values, err := dec.PackedFloat64s(nil)
	if err != nil {
		return nil, err
	}
	if len(values) != len(idxs) {
		return nil, fmt.Errorf("%d values for %d indices", len(values), len(idxs))
	}
	entries := make([]sparse.Entry, len(idxs))
	for i, idx := range idxs {
		if values[i] == 0 {
			return nil, fmt.Errorf("zero value at %d", idx)
		}
		entries[i] = sparse.Entry{Index: idx, Value: values[i]}
	}
	q, err := sparse.New(n, entries)
	if err != nil {
		return nil, err
	}
	numLevels, err := dec.SliceLen()
	if err != nil {
		return nil, err
	}
	if numLevels < 1 {
		return nil, fmt.Errorf("no levels")
	}
	h := &oracleHierarchy{q: q}
	for li := 0; li < numLevels; li++ {
		ends, err := dec.DeltaInts(nil)
		if err != nil {
			return nil, err
		}
		part, err := interval.FromBoundaries(q.N(), ends)
		if err != nil {
			return nil, err
		}
		e, err := dec.FiniteFloat64()
		if err != nil {
			return nil, err
		}
		if e < 0 {
			return nil, fmt.Errorf("negative error")
		}
		if li > 0 {
			prev := h.levels[li-1].Partition
			if len(part) >= len(prev) || !prev.Refines(part) {
				return nil, fmt.Errorf("level %d does not coarsen level %d", li, li-1)
			}
		}
		h.levels = append(h.levels, Level{Partition: part, Error: e})
	}
	if last := len(h.levels[len(h.levels)-1].Partition); last >= 8 {
		return nil, fmt.Errorf("final level of %d pieces", last)
	}
	if err := dec.Close(); err != nil {
		return nil, err
	}
	return h, nil
}

// encodeHierarchyOracle writes the reference envelope: every level's
// boundaries taken from its own partition.
func encodeHierarchyOracle(h *oracleHierarchy) []byte {
	var buf bytes.Buffer
	w := codec.NewWriter(&buf, codec.TagHierarchy)
	EncodeSparsePayload(w, h.q)
	w.Int(len(h.levels))
	for _, lv := range h.levels {
		w.DeltaInts(lv.Partition.Boundaries())
		w.Float64(lv.Error)
	}
	w.Close()
	return buf.Bytes()
}

// hierarchyEnvelope writes a hierarchy envelope with the given input and
// level boundaries; every level's error is its index.
func hierarchyEnvelope(q *sparse.Func, levels ...[]int) []byte {
	var buf bytes.Buffer
	w := codec.NewWriter(&buf, codec.TagHierarchy)
	EncodeSparsePayload(w, q)
	w.Int(len(levels))
	for li, ends := range levels {
		w.DeltaInts(ends)
		w.Float64(float64(li))
	}
	w.Close()
	return buf.Bytes()
}

// FuzzHierarchyDecode runs the decoder and decodeHierarchyOracle on the same
// bytes. They must agree on accepting or rejecting them, except that only
// the decoder refuses more than maxLevels levels; on success the input,
// every level's partition and error, and the re-encoded bytes must match.
func FuzzHierarchyDecode(f *testing.F) {
	golden, err := os.ReadFile(filepath.Join("..", "..", "testdata", "hierarchy_v1.bin"))
	if err != nil {
		f.Fatal(err)
	}
	// A 2^12-point input with one point in 16 set keeps the seed a few KB,
	// so minimizing an input grown from it stays quick.
	r := rng.New(12)
	q := make([]float64, 1<<12)
	for i := range q {
		if r.Intn(16) == 0 {
			q[i] = float64(1+i/300) + r.NormFloat64()
		}
	}
	var big bytes.Buffer
	if _, err := ConstructHierarchicalHistogramWorkers(sparse.FromDense(q), 1).WriteTo(&big); err != nil {
		f.Fatal(err)
	}
	six := sparse.FromDense([]float64{1, 2, 3, 4, 5, 6})
	seeds := [][]byte{
		golden,
		big.Bytes(),
		hierarchyEnvelope(six, []int{2, 4, 6}, []int{3, 6}),              // not nested
		hierarchyEnvelope(six, []int{2, 4, 6}, []int{2, 6}, []int{4, 6}), // not nested below level 1
		hierarchyEnvelope(six, []int{2, 4, 6}, []int{2, 4, 6}),           // levels of equal size
		hierarchyEnvelope(six, []int{1, 2, 3, 4, 5, 6}, []int{2, 4, 6}, []int{6}),
		hierarchyEnvelope(six, []int{1, 2, 3, 4, 5, 6}, []int{1, 3, 6}, []int{2, 6}),
		hierarchyEnvelope(six, []int{1, 2, 3, 4, 5, 6}, []int{2, 4, 5}),                           // drops n
		hierarchyEnvelope(sparse.FromDense(make([]float64, 9)), []int{1, 2, 3, 4, 5, 6, 7, 8, 9}), // final level of 9
	}
	for _, s := range seeds {
		f.Add(s)
	}
	for _, cut := range []int{7, len(golden) / 3, len(golden) / 2, len(golden) - 5, len(golden) - 1} {
		f.Add(golden[:cut])
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		want, oracleErr := decodeHierarchyOracle(bytes.NewReader(data))
		got, err := DecodeHierarchy(bytes.NewReader(data))
		switch {
		case err != nil && oracleErr != nil:
			return
		case err == nil && oracleErr != nil:
			t.Fatalf("decoder accepted what the oracle refuses: %v", oracleErr)
		case err != nil && len(want.levels) <= maxLevels:
			t.Fatalf("decoder refused %d levels the oracle accepts: %v", len(want.levels), err)
		case err != nil:
			return // more levels than a death byte tells apart
		}
		if got.q.N() != want.q.N() || got.q.Sparsity() != want.q.Sparsity() {
			t.Fatalf("input n=%d s=%d, oracle n=%d s=%d", got.q.N(), got.q.Sparsity(), want.q.N(), want.q.Sparsity())
		}
		for i, e := range want.q.Entries() {
			ge := got.q.Entries()[i]
			if ge.Index != e.Index || math.Float64bits(ge.Value) != math.Float64bits(e.Value) {
				t.Fatalf("input entry %d: %+v, oracle %+v", i, ge, e)
			}
		}
		if got.NumLevels() != len(want.levels) {
			t.Fatalf("%d levels, oracle %d", got.NumLevels(), len(want.levels))
		}
		for li, lv := range got.Levels() {
			wl := want.levels[li]
			if math.Float64bits(lv.Error) != math.Float64bits(wl.Error) || len(lv.Partition) != len(wl.Partition) {
				t.Fatalf("level %d: error %v, %d pieces; oracle %v, %d", li, lv.Error, len(lv.Partition), wl.Error, len(wl.Partition))
			}
			for i, iv := range lv.Partition {
				if iv != wl.Partition[i] {
					t.Fatalf("level %d piece %d: %v, oracle %v", li, i, iv, wl.Partition[i])
				}
			}
		}
		var re bytes.Buffer
		if _, err := got.WriteTo(&re); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(re.Bytes(), encodeHierarchyOracle(want)) {
			t.Fatal("re-encoded bytes differ from the oracle's")
		}
	})
}
