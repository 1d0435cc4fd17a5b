//go:build amd64

// The digest pins exact floating-point bits, so it is limited to amd64: Go
// may fuse x*y + z into one FMA instruction on arm64, ppc64le, s390x,
// riscv64 and loong64, which rounds once instead of twice.

package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"sort"
	"testing"

	"repro/internal/interval"
	"repro/internal/rng"
	"repro/internal/sparse"
)

// mergingDigestHex is the sha256 of every output of the merging engine on
// the digest inputs below. Any change to it is a change of answers: a
// refactor of the engine must leave it as it is.
const mergingDigestHex = "33a4a9d35e2a778b3acedbe1f8f977c344e940156a99840951600fa9c618bcc8"

// digestWriter feeds integers and float bits into a sha256 in a fixed byte
// order, through a buffer so the hash sees large writes.
type digestWriter struct {
	h   hash.Hash
	buf []byte
}

func (d *digestWriter) int(x int) {
	d.buf = binary.LittleEndian.AppendUint64(d.buf, uint64(x))
	if len(d.buf) >= 1<<16 {
		d.h.Write(d.buf)
		d.buf = d.buf[:0]
	}
}

func (d *digestWriter) float(x float64) { d.int(int(math.Float64bits(x))) }

func (d *digestWriter) label(s string) {
	d.int(len(s))
	d.buf = append(d.buf, s...)
}

func (d *digestWriter) sum() string {
	d.h.Write(d.buf)
	d.buf = d.buf[:0]
	return hex.EncodeToString(d.h.Sum(nil))
}

func (d *digestWriter) partition(p interval.Partition) {
	d.int(len(p))
	for _, iv := range p {
		d.int(iv.Lo)
		d.int(iv.Hi)
	}
}

func (d *digestWriter) result(r Result) {
	d.partition(r.Partition)
	for _, pc := range r.Histogram.Pieces() {
		d.float(pc.Value)
	}
	d.float(r.Error)
	d.int(r.Rounds)
}

func (d *digestWriter) summary(r SummaryResult) {
	d.partition(r.Partition)
	for _, v := range r.Values {
		d.float(v)
	}
	d.float(r.Error)
	d.int(r.Rounds)
}

// digestInput is one digest input with everything the entry points are
// fed that does not depend on the worker count, built once.
type digestInput struct {
	name   string
	sf     *sparse.Func
	p      interval.Partition // the oracle I₀
	stats  []sparse.Stat
	deltas [][]sparse.Entry // the MergeIn chain's batches
}

// digestInputs returns equivFixtures plus one 2^17-point dense Gaussian
// column, in name order.
func digestInputs() []digestInput {
	data := equivFixtures()
	r := rng.New(1917)
	gauss := make([]float64, 1<<17)
	for i := range gauss {
		gauss[i] = r.NormFloat64()
	}
	data["gaussian2p17"] = gauss
	names := make([]string, 0, len(data))
	for name := range data {
		names = append(names, name)
	}
	sort.Strings(names)
	in := make([]digestInput, len(names))
	for i, name := range names {
		sf := sparse.FromDense(data[name])
		p, stats := oracleInitialState(sf)
		r := rng.New(uint64(len(name)) * 7919)
		deltas := make([][]sparse.Entry, 4)
		for b := range deltas {
			deltas[b] = randomDeltas(r, sf.N(), sf.N()/(3+b))
		}
		in[i] = digestInput{name: name, sf: sf, p: p, stats: stats, deltas: deltas}
	}
	return in
}

// mergingDigest runs every entry point of the merging engine on every
// digest input at one worker count and hashes all their outputs.
func mergingDigest(t *testing.T, inputs []digestInput, workers int) string {
	d := &digestWriter{h: sha256.New()}
	for _, in := range inputs {
		name, sf := in.name, in.sf
		d.label(name)
		for _, delta := range []float64{1, 1000} {
			opts := Options{Delta: delta, Gamma: 1, Workers: workers}
			for _, k := range []int{3, 17, 100} {
				res, err := ConstructHistogram(sf, k, opts)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				d.result(res)
				res, err = ConstructHistogramFast(sf, k, opts)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				d.result(res)
			}
		}

		h := ConstructHierarchicalHistogramWorkers(sf, workers)
		d.int(h.NumLevels())
		for _, lv := range h.Levels() {
			d.partition(lv.Partition)
			d.float(lv.Error)
		}

		var s SummaryScratch
		for _, opts := range []Options{DefaultOptions(), PaperOptions()} {
			opts.Workers = workers
			sr, err := s.Construct(sf.N(), in.p, in.stats, 17, opts)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			d.summary(sr)
		}

		// A MergeIn chain from the zero function: batches alternate between
		// always merging and a threshold no refinement reaches, so both a
		// merged summary and an unmerged refinement feed the next batch.
		n := sf.N()
		var part interval.Partition
		var vals []float64
		opts := PaperOptions()
		opts.Workers = workers
		for b, deltas := range in.deltas {
			maxPieces := 0
			if b%2 == 1 {
				maxPieces = n
			}
			sr, err := s.MergeIn(n, part, vals, deltas, 17, maxPieces, opts)
			if err != nil {
				t.Fatalf("%s batch %d: %v", name, b, err)
			}
			d.summary(sr)
			part, vals = sr.Partition, sr.Values
		}
	}
	return d.sum()
}

// TestMergingDigest pins the merging engine's answers across versions:
// ConstructHistogram and ConstructHistogramFast at k ∈ {3, 17, 100} and
// δ ∈ {1, 1000}, every hierarchy level, SummaryScratch.Construct from the
// oracle I₀, and a MergeIn chain, at worker counts on both sides of the
// parallel cutoff. Every partition endpoint, value bit, error bit and round
// count goes into one sha256, which must match at every worker count.
func TestMergingDigest(t *testing.T) {
	inputs := digestInputs()
	for _, w := range []int{1, 2, 3, 8} {
		if got := mergingDigest(t, inputs, w); got != mergingDigestHex {
			t.Errorf("workers=%d: merging digest %s, want %s", w, got, mergingDigestHex)
		}
	}
}
