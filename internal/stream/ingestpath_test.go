package stream

// Property tests for the ingest fast path: the radix dedup kernel and the
// incremental merge-in compaction are each pinned to the slow oracle they
// replaced — the slices.SortStableFunc comparison sort, and the full
// reconstruct (materialized refinement + Construct) — bit for bit.

import (
	"cmp"
	"math"
	"slices"
	"testing"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/interval"
	"repro/internal/rng"
	"repro/internal/sparse"
)

// oracleDedup is the pre-radix dedupedBuffer, verbatim: stable comparison
// sort by index, duplicates summed in log order, zero sums kept.
func oracleDedup(log []sparse.Entry) []sparse.Entry {
	dst := slices.Clone(log)
	slices.SortStableFunc(dst, func(a, b sparse.Entry) int { return cmp.Compare(a.Index, b.Index) })
	out := dst[:0]
	for _, e := range dst {
		if len(out) > 0 && out[len(out)-1].Index == e.Index {
			out[len(out)-1].Value += e.Value
			continue
		}
		out = append(out, e)
	}
	return out
}

// TestDedupedBufferMatchesComparisonOracle: the radix/counting dedup must be
// bit-identical to the comparison-sort oracle on the adversarial logs —
// duplicate-heavy, deletions, a single point, reverse-sorted, and empty —
// across domain sizes that route it through every kernel path.
func TestDedupedBufferMatchesComparisonOracle(t *testing.T) {
	r := rng.New(131)
	logs := map[string][]sparse.Entry{
		"empty":        {},
		"single_entry": {{Index: 3, Value: -2}},
	}
	dup := make([]sparse.Entry, 3000)
	for i := range dup {
		dup[i] = sparse.Entry{Index: []int{7, 450, 12}[i%3], Value: 1 + 1e-9*float64(i)}
	}
	logs["duplicate_heavy"] = dup
	del := make([]sparse.Entry, 1000)
	for i := range del {
		v := float64(1 + i%5)
		if i%2 == 1 {
			v = -v // deletions; many points cancel to exactly zero
		}
		del[i] = sparse.Entry{Index: 1 + (i*13)%50, Value: v}
	}
	logs["deletions"] = del
	one := make([]sparse.Entry, 400)
	for i := range one {
		one[i] = sparse.Entry{Index: 123, Value: r.NormFloat64()}
	}
	logs["single_point"] = one
	rev := make([]sparse.Entry, 2048)
	for i := range rev {
		rev[i] = sparse.Entry{Index: 2048 - i, Value: r.NormFloat64()}
	}
	logs["reverse_sorted"] = rev
	rnd := make([]sparse.Entry, 4096)
	for i := range rnd {
		rnd[i] = sparse.Entry{Index: 1 + r.Intn(100000), Value: r.NormFloat64()}
	}
	logs["random_sparse"] = rnd

	for name, log := range logs {
		// Small domain → counting path; huge domain → radix path. Both must
		// match the oracle bit for bit.
		for _, n := range []int{3000, 1 << 20} {
			mx := 0
			for _, e := range log {
				if e.Index > mx {
					mx = e.Index
				}
			}
			if mx > n {
				continue
			}
			m, err := NewMaintainer(max(n, 1), 4, 0, core.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			got := m.dedupedBuffer(log)
			want := oracleDedup(log)
			if !slices.Equal(got, want) {
				t.Fatalf("%s (n=%d): dedup diverges from comparison oracle", name, n)
			}
		}
	}
}

// reconstructOracle replays the pre-merge-in compaction pipeline exactly:
// comparison-sort dedup, materialized refinement of (view ∪ singletons) with
// combineEmit's arithmetic, a full Construct every cycle, and the view
// prefix built the way stage() builds it.
type reconstructOracle struct {
	n, k   int
	opts   core.Options
	view   interval.Partition
	values []float64
	prefix []float64
	comp   core.SummaryScratch
}

func (o *reconstructOracle) compact(t *testing.T, log []sparse.Entry) {
	t.Helper()
	points := oracleDedup(log)
	var part interval.Partition
	var stats []sparse.Stat
	piece := func(lo, hi int, v float64) {
		if lo > hi {
			return
		}
		part = append(part, interval.New(lo, hi))
		length := float64(hi - lo + 1)
		stats = append(stats, sparse.Stat{Len: hi - lo + 1, Sum: v * length, SumSq: v * v * length})
	}
	pi := 0
	refine := func(lo, hi int, v float64) {
		for pi < len(points) && points[pi].Index <= hi {
			p := points[pi].Index
			piece(lo, p-1, v)
			s := v + points[pi].Value
			part = append(part, interval.New(p, p))
			stats = append(stats, sparse.Stat{Len: 1, Sum: s, SumSq: s * s})
			lo = p + 1
			pi++
		}
		piece(lo, hi, v)
	}
	if len(o.view) == 0 {
		refine(1, o.n, 0)
	} else {
		for i, iv := range o.view {
			refine(iv.Lo, iv.Hi, o.values[i])
		}
	}
	res, err := o.comp.Construct(o.n, part, stats, o.k, o.opts)
	if err != nil {
		t.Fatal(err)
	}
	o.view = append(o.view[:0], res.Partition...)
	o.values = append(o.values[:0], res.Values...)
	o.prefix = append(o.prefix[:0], 0)
	for i, iv := range res.Partition {
		o.prefix = append(o.prefix, o.prefix[i]+float64(iv.Len())*res.Values[i])
	}
}

// rangeSum mirrors summaryView.rangeSum on the oracle's view, float for
// float.
func (o *reconstructOracle) rangeSum(a, b int) float64 {
	find := func(x int) int {
		lo, hi := 0, len(o.view)
		for lo < hi {
			mid := (lo + hi) / 2
			if o.view[mid].Hi >= x {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		return lo
	}
	i, j := find(a), find(b)
	if i == j {
		return float64(b-a+1) * o.values[i]
	}
	total := float64(o.view[i].Hi-a+1)*o.values[i] + float64(b-o.view[j].Lo+1)*o.values[j]
	return total + o.prefix[j] - o.prefix[i+1]
}

// TestMaintainerMergeInMatchesReconstructOracle: with laziness disabled the
// merge-in maintainer must track the full-reconstruct pipeline bit for bit —
// view partition, piece values, certified error, EstimateRange answers, and
// the final Summary — across compaction cadences (bufferCap 64 / 256 / 1024)
// on a mixed stream with duplicates and deletions.
func TestMaintainerMergeInMatchesReconstructOracle(t *testing.T) {
	for _, bufCap := range []int{64, 256, 1024} {
		r := rng.New(uint64(757 + bufCap))
		n, k := 5000, 6
		opts := core.DefaultOptions()
		opts.Workers = 1
		m, err := NewMaintainer(n, k, bufCap, opts)
		if err != nil {
			t.Fatal(err)
		}
		m.maxPieces = 0 // force the merging rounds every cycle, like the oracle
		o := &reconstructOracle{n: n, k: k, opts: opts}

		var pending []sparse.Entry
		for u := 0; u < 20*bufCap+17; u++ {
			p := 1 + r.Intn(n)
			if r.Float64() < 0.3 { // concentrate: duplicates within a buffer
				p = 1 + r.Intn(40)
			}
			w := r.NormFloat64()
			if r.Float64() < 0.2 {
				w = -1 // deletions
			}
			if err := m.Add(p, w); err != nil {
				t.Fatal(err)
			}
			pending = append(pending, sparse.Entry{Index: p, Value: w})
			if len(pending) == bufCap {
				o.compact(t, pending)
				pending = pending[:0]
				if !slices.Equal(m.view.part, o.view) {
					t.Fatalf("bufCap=%d u=%d: view partition diverges from reconstruct oracle", bufCap, u)
				}
				if !slices.Equal(m.view.values, o.values) {
					t.Fatalf("bufCap=%d u=%d: view values diverge from reconstruct oracle", bufCap, u)
				}
			}
			if u%997 == 0 && len(m.view.part) > 0 {
				a := 1 + r.Intn(n)
				b := a + r.Intn(n-a+1)
				got, err := m.EstimateRange(a, b)
				if err != nil {
					t.Fatal(err)
				}
				want := o.rangeSum(a, b)
				for _, e := range pending {
					if a <= e.Index && e.Index <= b {
						want += e.Value
					}
				}
				if got != want {
					t.Fatalf("bufCap=%d u=%d: EstimateRange(%d,%d) = %v, oracle %v", bufCap, u, a, b, got, want)
				}
			}
		}
		// Final Summary: fold the tail through both pipelines and compare
		// the materialized pieces bit for bit.
		if len(pending) > 0 {
			o.compact(t, pending)
		}
		h, err := m.Summary()
		if err != nil {
			t.Fatal(err)
		}
		pieces := h.Pieces()
		if len(pieces) != len(o.view) {
			t.Fatalf("bufCap=%d: summary has %d pieces, oracle %d", bufCap, len(pieces), len(o.view))
		}
		for i, pc := range pieces {
			if pc.Interval != o.view[i] || pc.Value != o.values[i] {
				t.Fatalf("bufCap=%d piece %d: (%v, %v), oracle (%v, %v)",
					bufCap, i, pc.Interval, pc.Value, o.view[i], o.values[i])
			}
		}
	}
}

// TestMaintainerLazyEstimateRangeExactOnConcentratedStream: when the stream
// touches fewer distinct points than the lazy threshold, inline compactions
// never merge — the view stays an exact refinement — so EstimateRange is
// EXACT (not just within the guarantee) even though compactions keep
// happening. This is the behavior the lazy merge-in buys.
func TestMaintainerLazyEstimateRangeExactOnConcentratedStream(t *testing.T) {
	r := rng.New(389)
	n, k := 1<<20, 4
	m, err := NewMaintainer(n, k, 128, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// 25 hot points: refinement ≤ 2·25+1 pieces < maxPieces = 68.
	hot := make([]int, 25)
	for i := range hot {
		hot[i] = 1 + r.Intn(n)
	}
	truth := map[int]float64{}
	for u := 0; u < 4000; u++ {
		p := hot[r.Intn(len(hot))]
		w := r.NormFloat64()
		truth[p] += w
		if err := m.Add(p, w); err != nil {
			t.Fatal(err)
		}
	}
	if m.Compactions() < 10 {
		t.Fatalf("only %d compactions — stream too short to exercise the lazy path", m.Compactions())
	}
	if len(m.view.part) <= m.targetPieces {
		t.Fatalf("view has %d pieces ≤ target %d — laziness never engaged", len(m.view.part), m.targetPieces)
	}
	for trial := 0; trial < 200; trial++ {
		a := 1 + r.Intn(n)
		b := a + r.Intn(n-a+1)
		got, err := m.EstimateRange(a, b)
		if err != nil {
			t.Fatal(err)
		}
		var want float64
		for p, w := range truth {
			if a <= p && p <= b {
				want += w
			}
		}
		if math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
			t.Fatalf("EstimateRange(%d,%d) = %v, exact %v — lazy view must stay exact", a, b, got, want)
		}
	}
	// Summary still re-merges to the guaranteed O(k) budget.
	h, err := m.Summary()
	if err != nil {
		t.Fatal(err)
	}
	if got := len(h.Pieces()); got > m.targetPieces {
		t.Fatalf("Summary has %d pieces, beyond the merging target %d", got, m.targetPieces)
	}
}

// TestMaintainerLazySummaryWithinGuarantee: the lazily maintained summary
// still satisfies the paper's √(1+δ)·opt_k bound against the summarized
// stream on a step-function fixture (opt ≈ 0 — the direct DP fit recovers
// the steps exactly, and the maintained summary must stay within the
// guarantee of that baseline despite many deferred merges).
func TestMaintainerLazySummaryWithinGuarantee(t *testing.T) {
	r := rng.New(997)
	n, k := 400, 6
	m, err := NewMaintainer(n, k, 64, core.DefaultOptions()) // δ=1 → √2
	if err != nil {
		t.Fatal(err)
	}
	truth := make([]float64, n)
	// A 5-step signal streamed as concentrated unit updates: few distinct
	// points per buffer, so lazy sweeps dominate and merges are deferred.
	for u := 0; u < 30000; u++ {
		step := r.Intn(5)
		p := 1 + step*(n/5) + r.Intn(8)
		truth[p-1]++
		if err := m.Add(p, 1); err != nil {
			t.Fatal(err)
		}
	}
	h, err := m.Summary()
	if err != nil {
		t.Fatal(err)
	}
	_, opt, err := baseline.ExactDP(truth, k)
	if err != nil {
		t.Fatal(err)
	}
	got := h.L2DistToDense(truth)
	if got > math.Sqrt2*opt+1e-6 {
		t.Fatalf("maintained error %v breaks √2·opt = %v on the step fixture", got, math.Sqrt2*opt)
	}
}
