package wal

import (
	"bytes"
	"io"
	"testing"
	"testing/iotest"

	"repro/internal/codec"
	"repro/internal/rng"
)

// fuzzRecords appends count records, seq first onward, of a few points each
// (weighted when weighted is set) and returns the segment bytes plus the
// start offset of every record.
func fuzzRecords(first uint64, count int, weighted bool) ([]byte, []int) {
	var seg []byte
	var starts []int
	for i := range count {
		points := []int{3, 1, 4, 1 + i, 500 + i}
		var weights []float64
		if weighted {
			weights = []float64{0.5, -1, 2.25, 1e-9, float64(i)}
		}
		starts = append(starts, len(seg))
		seg = appendRecordFrame(seg, first+uint64(i), points, weights)
	}
	return seg, starts
}

// FuzzWALScan scans arbitrary bytes as one segment. The scan must not
// panic, must count only bytes it was given, and must stop on a frame
// boundary: re-scanning its good prefix finds the same records and no torn
// tail. A scan that finds no torn tail accounted for every byte.
func FuzzWALScan(f *testing.F) {
	weighted, starts := fuzzRecords(7, 3, true)
	plain, _ := fuzzRecords(1, 3, false)
	f.Add(weighted)
	f.Add(plain)
	f.Add(weighted[:len(weighted)-3])
	// One flipped byte in each field of the second record: magic, version,
	// tag, seq, point count, a point, the weights flag, a weight, the CRC.
	seq := len(codec.AppendUvarint(nil, 8))
	pts := len(codec.AppendInts(nil, []int{3, 1, 4, 2, 501}))
	at := starts[1]
	for _, off := range []int{0, 4, 5, 6, 6 + seq, 7 + seq, 6 + seq + pts, 7 + seq + pts, starts[2] - at - 1} {
		bad := bytes.Clone(weighted)
		bad[at+off] ^= 0x41
		f.Add(bad)
	}
	// A record declaring 2^28 points in a few bytes.
	huge := codec.AppendFrameHeader(nil, codec.TagWALRecord)
	huge = codec.AppendUvarint(huge, 1)
	huge = codec.AppendUvarint(huge, 1<<28)
	f.Add(codec.FinishFrame(append(huge, 1, 2, 3), 0))

	f.Fuzz(func(t *testing.T, input []byte) {
		res, err := scanRecords(bytes.NewReader(input), nil)
		if err != nil {
			t.Fatalf("scan without a callback failed: %v", err)
		}
		if res.goodBytes < 0 || res.goodBytes > int64(len(input)) {
			t.Fatalf("goodBytes %d of a %d-byte segment", res.goodBytes, len(input))
		}
		if !res.torn && res.goodBytes != int64(len(input)) {
			t.Fatalf("clean scan stopped at byte %d of %d", res.goodBytes, len(input))
		}
		again, err := scanRecords(bytes.NewReader(input[:res.goodBytes]), nil)
		if err != nil {
			t.Fatal(err)
		}
		if again.torn || again.records != res.records || again.lastSeq != res.lastSeq {
			t.Fatalf("good prefix rescans as %d records to seq %d (torn %v: %v), want %d to seq %d",
				again.records, again.lastSeq, again.torn, again.tornErr, res.records, res.lastSeq)
		}
	})
}

// BenchmarkDecodeRecord decodes one weighted record of 1,024 points over a
// 2^20-point domain, over a plain bytes.Reader and over a source that
// returns one byte per Read, with one Reset reader as a segment scan does.
func BenchmarkDecodeRecord(b *testing.B) {
	r := rng.New(1024)
	points := make([]int, 1024)
	weights := make([]float64, len(points))
	for i := range points {
		points[i] = 1 + int(r.Uint64()%(1<<20))
		weights[i] = r.NormFloat64()
	}
	frame := appendRecordFrame(nil, 1<<20, points, weights)
	sources := []struct {
		name string
		wrap func(io.Reader) io.Reader
	}{
		{"bytes", func(r io.Reader) io.Reader { return r }},
		{"onebyte", iotest.OneByteReader},
	}
	for _, src := range sources {
		b.Run(src.name, func(b *testing.B) {
			b.SetBytes(int64(len(frame)))
			b.ReportAllocs()
			var pts []int
			var ws []float64
			dec := codec.NewReader(nil)
			for range b.N {
				dec.Reset(src.wrap(bytes.NewReader(frame)))
				if _, _, err := readRecord(dec, &pts, &ws); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
