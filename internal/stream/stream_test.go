package stream

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/numeric"
	"repro/internal/rng"
	"repro/internal/sparse"
)

func TestMaintainerValidation(t *testing.T) {
	if _, err := NewMaintainer(0, 1, 0, core.DefaultOptions()); err == nil {
		t.Fatal("n=0 should error")
	}
	if _, err := NewMaintainer(10, 0, 0, core.DefaultOptions()); err == nil {
		t.Fatal("k=0 should error")
	}
	m, err := NewMaintainer(10, 2, 0, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Add(0, 1); err == nil {
		t.Fatal("point 0 should error")
	}
	if err := m.Add(11, 1); err == nil {
		t.Fatal("point 11 should error")
	}
}

// TestMaintainerHugeK: with a k whose merging budgets pass every int, the
// budgets saturate, compactions run no merging rounds and return promptly,
// and the summary is the stream itself; a snapshot carrying that k restores
// to an engine with the same summary. The default buffer counts a target
// past n as n.
func TestMaintainerHugeK(t *testing.T) {
	opts := core.DefaultOptions()
	const n, k = 600, 1 << 61
	if opts.TargetPieces(k) <= 0 {
		t.Fatalf("TargetPieces(2^61) = %d, want > 0", opts.TargetPieces(k))
	}
	for _, bufferCap := range []int{64, 0} {
		m, err := NewMaintainer(n, k, bufferCap, opts)
		if err != nil {
			t.Fatal(err)
		}
		if bufferCap == 0 && m.bufferCap != 8*n {
			t.Fatalf("default buffer %d, want 8n = %d", m.bufferCap, 8*n)
		}
		r := rng.New(83)
		want := make([]float64, n)
		for i := 0; i < 10000; i++ {
			p, w := 1+r.Intn(n), float64(1+r.Intn(5))
			want[p-1] += w
			if err := m.Add(p, w); err != nil {
				t.Fatal(err)
			}
		}
		if m.Compactions() == 0 {
			t.Fatalf("bufferCap=%d: no compaction ran", bufferCap)
		}
		var buf bytes.Buffer
		if err := m.Snapshot(&buf); err != nil {
			t.Fatal(err)
		}
		back, err := RestoreMaintainer(&buf)
		if err != nil {
			t.Fatal(err)
		}
		sh, err := NewSharded(n, k, 2, bufferCap, opts)
		if err != nil {
			t.Fatal(err)
		}
		r = rng.New(83)
		for i := 0; i < 10000; i++ {
			if err := sh.Add(1+r.Intn(n), float64(1+r.Intn(5))); err != nil {
				t.Fatal(err)
			}
		}
		for _, eng := range []interface {
			Summary() (*core.Histogram, error)
		}{m, back, sh} {
			h, err := eng.Summary()
			if err != nil {
				t.Fatal(err)
			}
			for x := 1; x <= n; x++ {
				if h.At(x) != want[x-1] {
					t.Fatalf("bufferCap=%d %T: summary at %d is %v, want the exact %v", bufferCap, eng, x, h.At(x), want[x-1])
				}
			}
		}
	}
}

func TestMaintainerEmptySummary(t *testing.T) {
	m, err := NewMaintainer(100, 3, 0, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	h, err := m.Summary()
	if err != nil {
		t.Fatal(err)
	}
	if h.Mass() != 0 || h.NumPieces() != 1 {
		t.Fatal("empty maintainer should summarize to the zero histogram")
	}
}

func TestMaintainerMassExact(t *testing.T) {
	// Total mass is preserved exactly through any number of compactions:
	// flattening preserves interval sums.
	r := rng.New(277)
	m, err := NewMaintainer(1000, 5, 32, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for i := 0; i < 5000; i++ {
		p := 1 + r.Intn(1000)
		w := r.Float64()
		total += w
		if err := m.Add(p, w); err != nil {
			t.Fatal(err)
		}
	}
	h, err := m.Summary()
	if err != nil {
		t.Fatal(err)
	}
	if !numeric.AlmostEqual(h.Mass(), total, 1e-9) {
		t.Fatalf("summary mass %v, stream total %v", h.Mass(), total)
	}
	if m.Compactions() == 0 {
		t.Fatal("expected at least one compaction")
	}
	if m.Updates() != 5000 {
		t.Fatalf("updates = %d", m.Updates())
	}
}

func TestMaintainerRecoversStepStream(t *testing.T) {
	// Stream a k-step frequency vector point by point (in order); the
	// maintained summary should recover it near-exactly despite repeated
	// compaction (opt_k of every intermediate prefix is 0 or one partial
	// step).
	levels := []float64{4, 9, 2, 7}
	n := 400
	m, err := NewMaintainer(n, len(levels)+1, 64, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	truth := make([]float64, n)
	for i := 1; i <= n; i++ {
		v := levels[(i-1)*len(levels)/n]
		truth[i-1] = v
		if err := m.Add(i, v); err != nil {
			t.Fatal(err)
		}
	}
	h, err := m.Summary()
	if err != nil {
		t.Fatal(err)
	}
	if got := h.L2DistToDense(truth); got > 1e-6 {
		t.Fatalf("maintained summary error %v on a step stream", got)
	}
}

func TestMaintainerRandomStreamCloseToDirectFit(t *testing.T) {
	// On a random-order stream, the maintained summary must stay within a
	// small factor of fitting the final vector directly — the drift from
	// intermediate compactions is bounded.
	r := rng.New(281)
	n := 2000
	k := 10
	truth := make([]float64, n)
	m, err := NewMaintainer(n, k, 0, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Underlying signal: 10 steps; stream adds unit mass at signal-weighted
	// random points.
	levels := []float64{1, 6, 3, 9, 2, 8, 4, 10, 5, 7}
	for u := 0; u < 60000; u++ {
		// Rejection-sample a point proportional to the step signal.
		for {
			p := 1 + r.Intn(n)
			if r.Float64()*10 < levels[(p-1)*10/n] {
				truth[p-1]++
				if err := m.Add(p, 1); err != nil {
					t.Fatal(err)
				}
				break
			}
		}
	}
	h, err := m.Summary()
	if err != nil {
		t.Fatal(err)
	}
	streamErr := h.L2DistToDense(truth)
	direct, err := core.ConstructHistogram(sparse.FromDense(truth), k, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if streamErr > 3*direct.Error+1e-9 {
		t.Fatalf("maintained error %v vs direct fit %v — drift too large", streamErr, direct.Error)
	}
}

func TestMaintainerDeletions(t *testing.T) {
	m, err := NewMaintainer(50, 2, 16, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 50; i++ {
		if err := m.Add(i, 2); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i <= 50; i++ {
		if err := m.Add(i, -2); err != nil {
			t.Fatal(err)
		}
	}
	h, err := m.Summary()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(h.Mass()) > 1e-9 {
		t.Fatalf("mass after full deletion %v", h.Mass())
	}
}

func TestMergeDisjointSummaries(t *testing.T) {
	// Summaries of the left and right halves merge into a summary of the
	// whole that matches a direct fit closely.
	r := rng.New(283)
	n := 1200
	k := 6
	whole := make([]float64, n)
	left := make([]float64, n)
	right := make([]float64, n)
	levels := []float64{3, 8, 1, 12, 5, 9}
	for i := range whole {
		v := levels[i*len(levels)/n] + 0.2*r.NormFloat64()
		whole[i] = v
		if i < n/2 {
			left[i] = v
		} else {
			right[i] = v
		}
	}
	fitL, err := core.ConstructHistogram(sparse.FromDense(left), k, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	fitR, err := core.ConstructHistogram(sparse.FromDense(right), k, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	merged, err := Merge(fitL.Histogram, fitR.Histogram, k, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	direct, err := core.ConstructHistogram(sparse.FromDense(whole), k, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	mergedErr := merged.L2DistToDense(whole)
	if mergedErr > 3*(direct.Error+1) {
		t.Fatalf("merged error %v vs direct %v", mergedErr, direct.Error)
	}
	// Mass adds exactly.
	if !numeric.AlmostEqual(merged.Mass(), fitL.Histogram.Mass()+fitR.Histogram.Mass(), 1e-6) {
		t.Fatalf("merged mass %v", merged.Mass())
	}
}

func TestMergeDomainMismatch(t *testing.T) {
	a, err := core.ConstructHistogram(sparse.FromDense([]float64{1, 2}), 1, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	b, err := core.ConstructHistogram(sparse.FromDense([]float64{1, 2, 3}), 1, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Merge(a.Histogram, b.Histogram, 1, core.DefaultOptions()); err == nil {
		t.Fatal("domain mismatch should error")
	}
}

func TestMergeIdentity(t *testing.T) {
	// Merging a summary with the zero summary reproduces it (up to
	// recompaction of an already-small partition: no merging happens since
	// pieces ≤ target).
	fit, err := core.ConstructHistogram(sparse.FromDense([]float64{5, 5, 5, 1, 1, 1}), 2, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	zero := core.NewHistogram(6,
		fit.Histogram.Partition(), make([]float64, fit.Histogram.NumPieces()))
	merged, err := Merge(fit.Histogram, zero, 2, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 6; i++ {
		if !numeric.AlmostEqual(merged.At(i), fit.Histogram.At(i), 1e-12) {
			t.Fatalf("identity merge changed value at %d", i)
		}
	}
}

func TestMaintainerEstimateRangeExactOnStepStream(t *testing.T) {
	// Stream a k-step vector the maintainer can represent with zero error;
	// EstimateRange must then return exact range sums — whether the queried
	// mass sits in the compacted summary, the pending buffer, or both.
	levels := []float64{4, 9, 2, 7}
	n := 400
	m, err := NewMaintainer(n, len(levels)+1, 64, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	truth := make([]float64, n)
	prefix := make([]float64, n+1)
	for i := 1; i <= n; i++ {
		v := levels[(i-1)*len(levels)/n]
		truth[i-1] = v
		if err := m.Add(i, v); err != nil {
			t.Fatal(err)
		}
		prefix[i] = prefix[i-1] + v
	}
	compactionsBefore := m.Compactions()
	for _, q := range [][2]int{{1, n}, {1, 1}, {n, n}, {50, 150}, {99, 301}, {100, 100}} {
		got, err := m.EstimateRange(q[0], q[1])
		if err != nil {
			t.Fatal(err)
		}
		want := prefix[q[1]] - prefix[q[0]-1]
		if math.Abs(got-want) > 1e-6*(1+math.Abs(want)) {
			t.Fatalf("EstimateRange(%d, %d) = %v, want %v", q[0], q[1], got, want)
		}
	}
	if m.Compactions() != compactionsBefore {
		t.Fatal("EstimateRange must not force a compaction")
	}
}

func TestMaintainerEstimateRangeUsesPendingBuffer(t *testing.T) {
	m, err := NewMaintainer(100, 2, 1024, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// All updates pending in the buffer: no compaction has happened.
	for _, p := range []int{10, 10, 20, 90} {
		if err := m.Add(p, 2.5); err != nil {
			t.Fatal(err)
		}
	}
	if m.Compactions() != 0 {
		t.Fatal("updates should still be buffered")
	}
	got, err := m.EstimateRange(10, 20)
	if err != nil {
		t.Fatal(err)
	}
	if got != 7.5 {
		t.Fatalf("buffered EstimateRange = %v, want 7.5 (two stacked updates at 10, one at 20)", got)
	}
	if _, err := m.EstimateRange(0, 5); err == nil {
		t.Fatal("invalid range should error")
	}
	if _, err := m.EstimateRange(7, 3); err == nil {
		t.Fatal("reversed range should error")
	}
}

func TestMaintainerBufferDedupMatchesPreSummedStream(t *testing.T) {
	// Duplicated points in the update log must compact to the identical
	// summary a pre-summed stream produces: dedup is exact, not lossy.
	n := 300
	build := func(updates [][2]float64) *core.Histogram {
		m, err := NewMaintainer(n, 4, 1<<20, core.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		for _, u := range updates {
			if err := m.Add(int(u[0]), u[1]); err != nil {
				t.Fatal(err)
			}
		}
		h, err := m.Summary()
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	r := rng.New(353)
	var dup [][2]float64
	sums := map[int]float64{}
	for i := 0; i < 4000; i++ {
		p := 1 + r.Intn(40) // heavy duplication: 40 hot points
		w := r.Float64()
		dup = append(dup, [2]float64{float64(p), w})
		sums[p] += w
	}
	var pre [][2]float64
	for p := 1; p <= n; p++ {
		if w, ok := sums[p]; ok {
			pre = append(pre, [2]float64{float64(p), w})
		}
	}
	hd, hp := build(dup), build(pre)
	if hd.NumPieces() != hp.NumPieces() {
		t.Fatalf("dedup summary has %d pieces, pre-summed %d", hd.NumPieces(), hp.NumPieces())
	}
	for i := 1; i <= n; i++ {
		a, b := hd.At(i), hp.At(i)
		if math.Abs(a-b) > 1e-12*(1+math.Abs(b)) {
			t.Fatalf("At(%d): dedup %v vs pre-summed %v", i, a, b)
		}
	}
}

func TestMaintainerDeterministicAcrossRuns(t *testing.T) {
	// The flat buffer iterates in a deterministic order (unlike the map it
	// replaced), so two identical streams must produce bit-identical
	// summaries.
	run := func() *core.Histogram {
		r := rng.New(359)
		m, err := NewMaintainer(500, 6, 128, core.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3000; i++ {
			if err := m.Add(1+r.Intn(500), r.NormFloat64()); err != nil {
				t.Fatal(err)
			}
		}
		h, err := m.Summary()
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	h1, h2 := run(), run()
	if h1.NumPieces() != h2.NumPieces() {
		t.Fatalf("piece counts differ: %d vs %d", h1.NumPieces(), h2.NumPieces())
	}
	p1, p2 := h1.Pieces(), h2.Pieces()
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatalf("piece %d differs: %+v vs %+v", i, p1[i], p2[i])
		}
	}
}

func TestMaintainerAddBatchMatchesAdd(t *testing.T) {
	// Batch and single-update ingestion share the buffer and compaction
	// cadence exactly, so for the same update sequence the summaries are
	// bit-identical.
	build := func(batch bool) *core.Histogram {
		r := rng.New(397)
		m, err := NewMaintainer(700, 5, 96, core.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		points := make([]int, 5000)
		weights := make([]float64, 5000)
		for i := range points {
			points[i], weights[i] = 1+r.Intn(700), r.NormFloat64()
		}
		if batch {
			for lo := 0; lo < len(points); lo += 777 { // batches straddle compactions
				hi := lo + 777
				if hi > len(points) {
					hi = len(points)
				}
				if err := m.AddBatch(points[lo:hi], weights[lo:hi]); err != nil {
					t.Fatal(err)
				}
			}
		} else {
			for i := range points {
				if err := m.Add(points[i], weights[i]); err != nil {
					t.Fatal(err)
				}
			}
		}
		h, err := m.Summary()
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	hb, ha := build(true), build(false)
	if hb.NumPieces() != ha.NumPieces() {
		t.Fatalf("batch %d pieces vs single %d", hb.NumPieces(), ha.NumPieces())
	}
	pb, pa := hb.Pieces(), ha.Pieces()
	for i := range pb {
		if pb[i] != pa[i] {
			t.Fatalf("piece %d differs: batch %+v vs single %+v", i, pb[i], pa[i])
		}
	}
}

func TestMaintainerAddBatchUnitWeightsAndValidation(t *testing.T) {
	m, err := NewMaintainer(100, 2, 0, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.AddBatch([]int{3, 3, 7}, nil); err != nil {
		t.Fatal(err)
	}
	got, err := m.EstimateRange(1, 100)
	if err != nil {
		t.Fatal(err)
	}
	if got != 3 {
		t.Fatalf("unit-weight batch mass = %v, want 3", got)
	}
	if err := m.AddBatch([]int{5, 101}, nil); err == nil {
		t.Fatal("out-of-range point should error")
	}
	if got, _ := m.EstimateRange(1, 100); got != 3 {
		t.Fatalf("failed batch must not partially ingest: mass %v", got)
	}
	if err := m.AddBatch([]int{1, 2}, []float64{1}); err == nil {
		t.Fatal("weights length mismatch should error")
	}
}

func TestMaintainerCompactionSteadyStateAllocs(t *testing.T) {
	// The whole compaction cycle — fill the buffer, dedup, build the
	// refinement, run the merging loop, publish the new summary — allocates
	// nothing once the maintainer's scratch (dedup buffer, refinement
	// partition/stats, SummaryScratch, prefix double buffer) has grown to
	// the working-set size.
	opts := core.DefaultOptions()
	opts.Workers = 1
	m, err := NewMaintainer(1000, 4, 256, opts)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(389)
	points := make([]int, 256)
	for i := range points {
		points[i] = 1 + r.Intn(1000)
	}
	cycle := func() {
		for _, p := range points {
			// The last Add of each cycle triggers the inline compaction.
			if err := m.Add(p, 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 8; i++ { // warm every scratch buffer through real cycles
		cycle()
	}
	if m.Compactions() < 8 {
		t.Fatalf("warmup ran %d compactions, want ≥ 8", m.Compactions())
	}
	if allocs := testing.AllocsPerRun(50, cycle); allocs != 0 {
		t.Fatalf("steady-state ingest+compaction cycle allocates %v/op, want 0", allocs)
	}
}

func TestMaintainerAddSteadyStateAllocs(t *testing.T) {
	// Once the buffer's backing array has grown to bufferCap, Add between
	// compactions is a bare append: zero allocations.
	m, err := NewMaintainer(1000, 4, 512, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(367)
	for i := 0; i < 2048; i++ { // grow buffer and scratch through compactions
		if err := m.Add(1+r.Intn(1000), 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Compact(); err != nil {
		t.Fatal(err)
	}
	point := 1 + r.Intn(1000)
	if allocs := testing.AllocsPerRun(100, func() {
		// 100 < bufferCap runs, so no compaction triggers inside the window.
		if err := m.Add(point, 1); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("buffered Add allocates %v/op at steady state, want 0", allocs)
	}
}
