package core

import (
	"strings"
	"testing"

	"repro/internal/interval"
	"repro/internal/rng"
	"repro/internal/sparse"
)

// randomSummary builds a random interval summary of [1, n] with `pieces`
// intervals: the shape a streaming compaction feeds the merging loop.
func randomSummary(r *rng.RNG, n, pieces int) (interval.Partition, []sparse.Stat) {
	// Random distinct boundaries.
	ends := map[int]bool{n: true}
	for len(ends) < pieces {
		ends[1+r.Intn(n)] = true
	}
	var part interval.Partition
	lo := 1
	for x := 1; x <= n; x++ {
		if ends[x] {
			part = append(part, interval.New(lo, x))
			lo = x + 1
		}
	}
	stats := make([]sparse.Stat, len(part))
	for i, iv := range part {
		v := r.NormFloat64() * 3
		l := float64(iv.Len())
		stats[i] = sparse.Stat{Len: iv.Len(), Sum: v * l, SumSq: v * v * l}
		if r.Float64() < 0.3 { // some intervals carry non-flat mass
			stats[i].SumSq += r.Float64() * l
		}
	}
	return part, stats
}

func TestSummaryScratchMatchesConstructFromSummary(t *testing.T) {
	// A reused scratch must produce the bit-identical partition, values,
	// error, and round count of the one-shot entry point, run after run —
	// including runs whose input is the previous run's output, the shape a
	// compaction loop creates.
	r := rng.New(421)
	var s SummaryScratch
	for trial := 0; trial < 20; trial++ {
		n := 500 + r.Intn(2000)
		pieces := 2 + r.Intn(400)
		part, stats := randomSummary(r, n, pieces)
		k := 1 + r.Intn(12)
		opts := DefaultOptions()
		if trial%3 == 0 {
			opts = PaperOptions()
		}
		opts.Workers = 1 + trial%3

		want, err := ConstructHistogramFromSummary(n, part, stats, k, opts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.Construct(n, part, stats, k, opts)
		if err != nil {
			t.Fatal(err)
		}
		if got.Error != want.Error || got.Rounds != want.Rounds {
			t.Fatalf("trial %d: (err, rounds) = (%v, %d), want (%v, %d)",
				trial, got.Error, got.Rounds, want.Error, want.Rounds)
		}
		if len(got.Partition) != len(want.Partition) {
			t.Fatalf("trial %d: %d pieces, want %d", trial, len(got.Partition), len(want.Partition))
		}
		wantPieces := want.Histogram.Pieces()
		for i := range got.Partition {
			if got.Partition[i] != wantPieces[i].Interval {
				t.Fatalf("trial %d: piece %d = %v, want %v", trial, i, got.Partition[i], wantPieces[i].Interval)
			}
			if got.Values[i] != wantPieces[i].Value {
				t.Fatalf("trial %d: value %d = %v, want %v", trial, i, got.Values[i], wantPieces[i].Value)
			}
		}
	}
}

// TestSummaryScratchRejectsStatLength: a stat whose Len is not its
// interval's length is an error naming the index, not a silently different
// answer.
func TestSummaryScratchRejectsStatLength(t *testing.T) {
	p := interval.Partition{interval.New(1, 4), interval.New(5, 8), interval.New(9, 10)}
	stats := []sparse.Stat{{Len: 4, Sum: 4, SumSq: 4}, {Len: -3, Sum: 8, SumSq: 20}, {Len: 0, Sum: 1, SumSq: 1}}
	var s SummaryScratch
	if _, err := s.Construct(10, p, stats, 1, DefaultOptions()); err == nil || !strings.Contains(err.Error(), "stat 1 ") {
		t.Fatalf("Construct with stat 1 of length −3: error %v, want one naming stat 1", err)
	}
	if _, err := ConstructHistogramFromSummary(10, p, stats, 1, DefaultOptions()); err == nil {
		t.Fatal("ConstructHistogramFromSummary accepted a stat of length −3")
	}
	stats[1].Len = 4
	if _, err := s.Construct(10, p, stats, 1, DefaultOptions()); err == nil || !strings.Contains(err.Error(), "stat 2 ") {
		t.Fatalf("Construct with stat 2 of length 0: error %v, want one naming stat 2", err)
	}
	stats[2].Len = 2
	if _, err := s.Construct(10, p, stats, 1, DefaultOptions()); err != nil {
		t.Fatalf("consistent lengths: %v", err)
	}
}

func TestSummaryScratchDoubleBuffer(t *testing.T) {
	// The previous Construct result must stay readable while the next call
	// runs — streaming compaction reads the old summary to build the new
	// one's input.
	r := rng.New(431)
	var s SummaryScratch
	n := 3000
	part, stats := randomSummary(r, n, 300)
	prev, err := s.Construct(n, part, stats, 8, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	prevPart := append(interval.Partition(nil), prev.Partition...)
	prevVals := append([]float64(nil), prev.Values...)

	part2, stats2 := randomSummary(r, n, 280)
	if _, err := s.Construct(n, part2, stats2, 8, DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	for i := range prevPart {
		if prev.Partition[i] != prevPart[i] || prev.Values[i] != prevVals[i] {
			t.Fatalf("previous result clobbered at piece %d by the next Construct", i)
		}
	}
}

func TestSummaryScratchSteadyStateAllocs(t *testing.T) {
	// Once the scratch has grown to the working-set size, a full compaction
	// run (load summary, merging rounds, write output) allocates nothing on
	// the serial path.
	r := rng.New(433)
	var s SummaryScratch
	n := 4000
	part, stats := randomSummary(r, n, 600)
	opts := DefaultOptions()
	opts.Workers = 1
	for i := 0; i < 3; i++ { // warm the buffers
		if _, err := s.Construct(n, part, stats, 10, opts); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(20, func() {
		if _, err := s.Construct(n, part, stats, 10, opts); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("steady-state Construct allocates %v/op, want 0", allocs)
	}
}
