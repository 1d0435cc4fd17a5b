package sparse

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/interval"
	"repro/internal/parallel"
	"repro/internal/rng"
)

// RelevantIndices returns the paper's set J = ∪ⱼ {iⱼ−1, iⱼ, iⱼ+1} clipped to
// [1, n], sorted and de-duplicated (Algorithm 1, line 3). It is the J-slice
// construction InitialState replaced, kept as the oracle.
func (f *Func) RelevantIndices() []int {
	js := make([]int, 0, 3*len(f.entries))
	push := func(x int) {
		if x < 1 || x > f.n {
			return
		}
		if len(js) > 0 && js[len(js)-1] >= x {
			return // entries are sorted, so candidates arrive non-decreasing per entry
		}
		js = append(js, x)
	}
	for _, e := range f.entries {
		push(e.Index - 1)
		push(e.Index)
		push(e.Index + 1)
	}
	return js
}

// initialPartitionOracle is the I₀ construction InitialState replaced: every
// index of J a singleton, every maximal gap between them one interval.
func initialPartitionOracle(f *Func) interval.Partition {
	js := f.RelevantIndices()
	if len(js) == 0 {
		return interval.Partition{interval.New(1, f.n)}
	}
	p := make(interval.Partition, 0, 2*len(js)+1)
	next := 1 // first uncovered point
	for _, j := range js {
		if j > next {
			p = append(p, interval.New(next, j-1)) // zero gap
		}
		p = append(p, interval.New(j, j)) // singleton
		next = j + 1
	}
	if next <= f.n {
		p = append(p, interval.New(next, f.n))
	}
	return p
}

// fromSpacings builds a function whose entries sit first, first+gaps[0],
// first+gaps[0]+gaps[1], …, over [1, last entry + tail], with random
// nonzero values.
func fromSpacings(t *testing.T, r *rng.RNG, first int, gaps []int, tail int) *Func {
	t.Helper()
	es := []Entry{{Index: first, Value: r.NormFloat64() + 3}}
	for _, g := range gaps {
		es = append(es, Entry{Index: es[len(es)-1].Index + g, Value: r.NormFloat64() - 3})
	}
	f, err := New(es[len(es)-1].Index+tail, es)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func randomGaps(r *rng.RNG, s, maxGap int) []int {
	gaps := make([]int, s-1)
	for i := range gaps {
		gaps[i] = 1 + r.Intn(maxGap)
	}
	return gaps
}

// initialStateInputs covers the shapes the ownership rules distinguish:
// adjacent entries (d = 1, entry j's point already covered by entry j−1),
// d = 2 and 3 (no gap), d ≥ 4 (a gap), entries at 1 and at n, the domain
// edges, n = 1 and s = 0. The boundary cases put spacing d across every
// chunk boundary of the builder's split for w workers, and on the two
// spacings beside it, so an entry's i+1 singleton can hold the first entry
// of the next chunk.
func initialStateInputs(t *testing.T) map[string]*Func {
	r := rng.New(2024)
	const s = 9 * parallel.MinGrain // enough for 8 workers to engage
	in := make(map[string]*Func)

	dense := make([]float64, s)
	for i := range dense {
		dense[i] = r.NormFloat64()
	}
	in["dense"] = FromDense(dense)

	holey := make([]float64, s)
	for i := range holey {
		if r.Float64() < 0.6 {
			holey[i] = r.NormFloat64()
		}
	}
	in["dense_with_zeros"] = FromDense(holey)

	in["gaps"] = fromSpacings(t, r, 5, randomGaps(r, s, 9), 7)
	in["wide_gaps"] = fromSpacings(t, r, 1000, randomGaps(r, s, 1000), 1000)

	var clustered []int
	for len(clustered) < s {
		for run := 1 + r.Intn(50); run > 0; run-- {
			clustered = append(clustered, 1)
		}
		clustered = append(clustered, 2+r.Intn(1000))
	}
	in["clustered"] = fromSpacings(t, r, 2, clustered, 3)

	in["ends_at_1_and_n"] = fromSpacings(t, r, 1, randomGaps(r, s, 5), 0)
	in["starts_at_2_ends_at_n_minus_1"] = fromSpacings(t, r, 2, randomGaps(r, s, 5), 1)
	in["starts_at_3_ends_at_n_minus_2"] = fromSpacings(t, r, 3, randomGaps(r, s, 5), 2)

	for _, w := range []int{2, 3, 8} {
		for _, d := range []int{1, 2, 3, 4, 5} {
			gaps := randomGaps(r, s, 6)
			for ci := 1; ci < w; ci++ {
				b := ci * s / w // first entry of chunk ci
				gaps[b-2], gaps[b-1], gaps[b] = d, d, d
			}
			in[fmt.Sprintf("boundary_w%d_d%d", w, d)] = fromSpacings(t, r, 1+r.Intn(4), gaps, r.Intn(3))
		}
	}

	small := func(n int, es ...Entry) *Func {
		f, err := New(n, es)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	in["n1_empty"] = small(1)
	in["n1_one_entry"] = small(1, Entry{1, 2.5})
	in["s0"] = small(100)
	in["single_at_1"] = small(5, Entry{1, 1})
	in["single_at_n"] = small(5, Entry{5, 1})
	in["pair_at_n"] = small(5, Entry{4, 1}, Entry{5, -2})
	in["single_mid"] = small(9, Entry{5, 7})
	// A signalling NaN comes out of 0 + v quieted, so only StatsFor's exact
	// arithmetic reproduces its bits.
	sNaN := math.Float64frombits(0x7ff0000000000001)
	in["nonfinite"] = small(40, Entry{3, math.NaN()}, Entry{4, math.Inf(1)},
		Entry{9, math.Inf(-1)}, Entry{15, sNaN}, Entry{20, 1e200}, Entry{21, 5e-324}, Entry{40, -1e-200})
	return in
}

// nodeIntervals returns the intervals and statistics a node sequence
// stands for.
func nodeIntervals(nodes []Node) (interval.Partition, []Stat) {
	p := make(interval.Partition, len(nodes))
	stats := make([]Stat, len(nodes))
	prev := 0
	for i, nd := range nodes {
		p[i] = interval.Interval{Lo: prev + 1, Hi: nd.Hi}
		stats[i] = nd.Stat(prev)
		prev = nd.Hi
	}
	return p, stats
}

// TestInitialStateMatchesOracle: at every worker count the builder returns
// exactly the old J → InitialPartition → StatsFor result, interval by
// interval and bit by bit in every Stat, in a slice of exact size.
func TestInitialStateMatchesOracle(t *testing.T) {
	for name, f := range initialStateInputs(t) {
		wantP := initialPartitionOracle(f)
		wantS := f.StatsFor(wantP)
		for _, w := range []int{1, 2, 3, 8} {
			nodes := f.InitialState(w)
			label := fmt.Sprintf("%s/workers=%d", name, w)
			if len(nodes) != len(wantP) {
				t.Fatalf("%s: %d nodes, want %d", label, len(nodes), len(wantP))
			}
			if cap(nodes) != len(nodes) {
				t.Fatalf("%s: capacity %d for %d nodes, want exact", label, cap(nodes), len(nodes))
			}
			p, stats := nodeIntervals(nodes)
			for i := range wantP {
				if p[i] != wantP[i] {
					t.Fatalf("%s: interval %d is %v, want %v", label, i, p[i], wantP[i])
				}
				g, o := stats[i], wantS[i]
				if g.Len != o.Len || math.Float64bits(g.Sum) != math.Float64bits(o.Sum) ||
					math.Float64bits(g.SumSq) != math.Float64bits(o.SumSq) {
					t.Fatalf("%s: stat %d is %+v, want %+v", label, i, g, o)
				}
			}
		}
		got := f.InitialPartition()
		if len(got) != len(wantP) {
			t.Fatalf("%s: InitialPartition has %d intervals, want %d", name, len(got), len(wantP))
		}
		for i := range wantP {
			if got[i] != wantP[i] {
				t.Fatalf("%s: InitialPartition interval %d is %v, want %v", name, i, got[i], wantP[i])
			}
		}
	}
}

// TestInitialStateRandomSmall sweeps many small random functions, where
// the builder runs serially, against the oracle.
func TestInitialStateRandomSmall(t *testing.T) {
	r := rng.New(77)
	for trial := 0; trial < 500; trial++ {
		n := 1 + r.Intn(60)
		var es []Entry
		for i := 1; i <= n; i++ {
			if r.Float64() < 0.3 {
				es = append(es, Entry{Index: i, Value: r.NormFloat64()})
			}
		}
		f, err := New(n, es)
		if err != nil {
			t.Fatal(err)
		}
		wantP := initialPartitionOracle(f)
		wantS := f.StatsFor(wantP)
		p, stats := nodeIntervals(f.InitialState(0))
		if len(p) != len(wantP) {
			t.Fatalf("trial %d (n=%d, %v): %v, want %v", trial, n, es, p, wantP)
		}
		for i := range wantP {
			if p[i] != wantP[i] || stats[i] != wantS[i] {
				t.Fatalf("trial %d (n=%d, %v): %v %v, want %v %v", trial, n, es, p, stats, wantP, wantS)
			}
		}
	}
}
