package core

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"repro/internal/interval"
	"repro/internal/parallel"
	"repro/internal/rng"
	"repro/internal/sparse"
)

// Serial/parallel equivalence: the whole point of the chunked engine is
// that Workers changes wall-clock time only. These tests assert the outputs
// are bit-identical — same partitions, same piece values down to the float
// bits, same error, same round count — for worker counts on both sides of
// the serial cutoff, across the adversarial shapes the serial tests use
// plus inputs large enough that the parallel path actually engages.

var equivalenceWorkers = []int{1, 2, 8}

// equivFixtures returns (name, data) pairs covering the adversarial shapes
// of adversarial_test.go at sizes that exercise the chunked passes
// (tens of thousands of live intervals in the early rounds).
func equivFixtures() map[string][]float64 {
	fixtures := make(map[string][]float64)

	allEqual := make([]float64, 50000)
	for i := range allEqual {
		allEqual[i] = 3.75
	}
	fixtures["allEqual"] = allEqual

	alternating := make([]float64, 60000)
	for i := range alternating {
		if i%2 == 0 {
			alternating[i] = 1
		} else {
			alternating[i] = -1
		}
	}
	fixtures["alternating"] = alternating

	spike := make([]float64, 100000)
	spike[56789] = 1e9
	fixtures["singleSpike"] = spike

	decay := make([]float64, 50001) // odd length: trailing-interval path
	v := 1e12
	for i := range decay {
		decay[i] = v
		v *= 0.9997
	}
	fixtures["geometricDecay"] = decay

	ties := make([]float64, 65536)
	for i := range ties {
		ties[i] = float64(i % 2)
	}
	fixtures["manyTiedErrors"] = ties

	r := rng.New(317)
	noise := make([]float64, 77773) // prime length
	for i := range noise {
		noise[i] = r.NormFloat64()
	}
	fixtures["gaussianNoise"] = noise

	steps := make([]float64, 40000)
	for i := range steps {
		switch {
		case i < 12000:
			steps[i] = 5
		case i < 28000:
			steps[i] = 1
		default:
			steps[i] = 8
		}
	}
	fixtures["steps"] = steps

	// Sparse with gaps: 60000 nonzeros 1 to 12 points apart, so I₀ holds
	// zero gaps and chunk boundaries of the initial-state builder fall
	// between adjacent, near and far entries.
	var idx []int
	for i := 3; len(idx) < 60000; i += 1 + r.Intn(12) {
		idx = append(idx, i)
	}
	gappy := make([]float64, idx[len(idx)-1]+5)
	for _, i := range idx {
		gappy[i-1] = 1 + r.NormFloat64()*r.NormFloat64()
	}
	fixtures["sparseGaps"] = gappy

	return fixtures
}

// oracleInitialState is I₀ and its statistics as the merging engine built
// them before sparse.InitialState: the relevant-index set J materialized,
// one singleton per index and one interval per gap, then a StatsFor sweep.
func oracleInitialState(q *sparse.Func) (interval.Partition, []sparse.Stat) {
	var js []int
	for _, e := range q.Entries() {
		for x := e.Index - 1; x <= e.Index+1; x++ {
			if x >= 1 && x <= q.N() && (len(js) == 0 || js[len(js)-1] < x) {
				js = append(js, x)
			}
		}
	}
	var p interval.Partition
	next := 1
	for _, j := range js {
		if j > next {
			p = append(p, interval.New(next, j-1))
		}
		p = append(p, interval.New(j, j))
		next = j + 1
	}
	if next <= q.N() {
		p = append(p, interval.New(next, q.N()))
	}
	return p, q.StatsFor(p)
}

// TestInitialStateConstructMatchesOracleSummary: a fit, whose first round
// regenerates I₀ block by block into windows, equals the merging loop
// started from the old I₀ and its StatsFor statistics, bit for bit, at
// every worker count: on the equivalence fixtures and on the window-seam
// inputs of seamFixtures, at k from one piece to more than some inputs'
// I₀ holds.
func TestInitialStateConstructMatchesOracleSummary(t *testing.T) {
	inputs := seamFixtures(t)
	for name, q := range equivFixtures() {
		inputs[name] = sparse.FromDense(q)
	}
	for name, sf := range inputs {
		p, stats := oracleInitialState(sf)
		for _, opts := range []Options{DefaultOptions(), PaperOptions()} {
			for _, k := range []int{1, 17, 1000} {
				opts.Workers = 1
				want, err := ConstructHistogramFromSummary(sf.N(), p, stats, k, opts)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				for _, w := range []int{1, 2, 3, 8} {
					opts.Workers = w
					got, err := ConstructHistogram(sf, k, opts)
					if err != nil {
						t.Fatalf("%s workers=%d: %v", name, w, err)
					}
					sameResult(t, fmt.Sprintf("%s/k=%d/workers=%d/oracle-I0", name, k, w), want, got)
				}
			}
		}
	}
}

// seamFixtures returns the inputs where a first-round window starts, ends
// or carries a node: for each spacing d from 1 to 5, entries 1 to 6
// points apart with spacing d on both sides of every block boundary and
// of the entry that owns the first node of every pair chunk at 2, 3 and 8
// workers; an I₀ of odd length; the first entry at 1 and the last at n,
// alone in the last block, which therefore owns no node; a pair chunk
// that starts on a block's first node; and a small input whose I₀ needs
// no round at k = 1000.
func seamFixtures(t *testing.T) map[string]*sparse.Func {
	t.Helper()
	const s = 32*sparse.BlockEntries + 1
	r := rng.New(4242)
	in := make(map[string]*sparse.Func)
	build := func(first int, gaps []int, tail int) *sparse.Func {
		es := []sparse.Entry{{Index: first, Value: r.NormFloat64() + 3}}
		for _, g := range gaps {
			es = append(es, sparse.Entry{Index: es[len(es)-1].Index + g, Value: r.NormFloat64() - 3})
		}
		f, err := sparse.New(es[len(es)-1].Index+tail, es)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	randomGaps := func() []int {
		gaps := make([]int, s-1)
		for i := range gaps {
			gaps[i] = 1 + r.Intn(6)
		}
		return gaps
	}
	for d := 1; d <= 5; d++ {
		gaps := randomGaps()
		first, tail := 1+r.Intn(4), r.Intn(3)
		// surround sets spacing d on the four gaps each side of entry e;
		// it reports whether any changed.
		surround := func(e int) bool {
			changed := false
			for g := max(0, e-4); g < min(len(gaps), e+4); g++ {
				if gaps[g] != d {
					gaps[g], changed = d, true
				}
			}
			return changed
		}
		for b := sparse.BlockEntries; b < s; b += sparse.BlockEntries {
			surround(b)
		}
		// Moving a spacing moves the chunk boundaries after it, so repeat
		// until every boundary sits in spacing d.
		for round := 0; ; round++ {
			f := build(first, gaps, tail)
			changed := false
			for _, e := range pairChunkOwners(f) {
				changed = surround(e) || changed
			}
			if !changed {
				in[fmt.Sprintf("seams_d%d", d)] = f
				break
			}
			if round == 20 {
				t.Fatalf("spacing %d: pair-chunk boundaries did not settle", d)
			}
		}
	}

	gaps := randomGaps()
	odd := build(2, gaps, 1)
	if odd.Blocks(1).Len()%2 == 0 {
		odd = build(2, gaps, 2) // a trailing gap: one node more
	}
	if odd.Blocks(1).Len()%2 == 0 {
		t.Fatal("no I₀ of odd length")
	}
	in["odd_I0"] = odd

	gaps = randomGaps()
	gaps[len(gaps)-1] = 1
	edges := build(1, gaps, 0)
	if bl := edges.Blocks(1); bl.Start(s/sparse.BlockEntries) != bl.Len() {
		t.Fatal("the block of the entry at n owns a node")
	}
	in["ends_at_1_and_n"] = edges

	// Dense from point 2: entry 0 owns three nodes and every later entry
	// one, so block b starts at I₀ node 512b+2, and with 2·16·512+3
	// entries the second of two pair chunks starts on block 16's first
	// node, where a window's first pair follows the block before.
	dense := make([]float64, 2*16*sparse.BlockEntries+4)
	for i := 1; i < len(dense); i++ {
		dense[i] = r.NormFloat64() + 1
	}
	aligned := sparse.FromDense(dense)
	if bl := aligned.Blocks(1); bl.Start(16) != 2*(bl.Len()/2/2) {
		t.Fatal("the second pair chunk does not start on a block")
	}
	in["chunk_starts_on_block"] = aligned

	small := make([]sparse.Entry, 0, 100)
	for i := 0; i < 100; i++ {
		small = append(small, sparse.Entry{Index: 1 + 30*i + r.Intn(20), Value: r.NormFloat64()})
	}
	f, err := sparse.New(3000, small)
	if err != nil {
		t.Fatal(err)
	}
	in["no_round_at_k1000"] = f
	return in
}

// pairChunkOwners returns, for the first round's pair chunks at 2, 3 and
// 8 workers, the entry that owns each chunk's first I₀ node: the first
// entry whose covered points reach that node's right endpoint.
func pairChunkOwners(f *sparse.Func) []int {
	p, _ := oracleInitialState(f)
	es := f.Entries()
	pairs := len(p) / 2
	var owners []int
	for _, w := range []int{2, 3, 8} {
		nc := parallel.NumChunks(pairs, min(w, pairs/parallel.MinGrain))
		for c := 1; c < nc; c++ {
			hi := p[2*(c*pairs/nc)].Hi
			owners = append(owners, sort.Search(len(es), func(j int) bool { return es[j].Index+1 >= hi }))
		}
	}
	return owners
}

func sameResult(t *testing.T, label string, a, b Result) {
	t.Helper()
	if a.Rounds != b.Rounds {
		t.Fatalf("%s: rounds %d vs %d", label, a.Rounds, b.Rounds)
	}
	if math.Float64bits(a.Error) != math.Float64bits(b.Error) {
		t.Fatalf("%s: error %v vs %v (bits differ)", label, a.Error, b.Error)
	}
	if len(a.Partition) != len(b.Partition) {
		t.Fatalf("%s: %d vs %d pieces", label, len(a.Partition), len(b.Partition))
	}
	for i := range a.Partition {
		if a.Partition[i] != b.Partition[i] {
			t.Fatalf("%s: piece %d interval %v vs %v", label, i, a.Partition[i], b.Partition[i])
		}
	}
	pa, pb := a.Histogram.Pieces(), b.Histogram.Pieces()
	for i := range pa {
		if math.Float64bits(pa[i].Value) != math.Float64bits(pb[i].Value) {
			t.Fatalf("%s: piece %d value %v vs %v (bits differ)", label, i, pa[i].Value, pb[i].Value)
		}
	}
}

func TestParallelEquivalenceConstructHistogram(t *testing.T) {
	for name, q := range equivFixtures() {
		sf := sparse.FromDense(q)
		for _, opts := range []Options{DefaultOptions(), PaperOptions()} {
			for _, k := range []int{3, 17} {
				opts.Workers = 1
				serial, err := ConstructHistogram(sf, k, opts)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				for _, w := range equivalenceWorkers[1:] {
					opts.Workers = w
					par, err := ConstructHistogram(sf, k, opts)
					if err != nil {
						t.Fatalf("%s workers=%d: %v", name, w, err)
					}
					sameResult(t, name+"/merging", serial, par)
				}
			}
		}
	}
}

func TestParallelEquivalenceConstructHistogramFast(t *testing.T) {
	for name, q := range equivFixtures() {
		sf := sparse.FromDense(q)
		for _, opts := range []Options{DefaultOptions(), PaperOptions()} {
			for _, k := range []int{3, 17} {
				opts.Workers = 1
				serial, err := ConstructHistogramFast(sf, k, opts)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				for _, w := range equivalenceWorkers[1:] {
					opts.Workers = w
					par, err := ConstructHistogramFast(sf, k, opts)
					if err != nil {
						t.Fatalf("%s workers=%d: %v", name, w, err)
					}
					sameResult(t, name+"/fastmerging", serial, par)
				}
			}
		}
	}
}

func TestParallelEquivalenceHierarchy(t *testing.T) {
	for name, q := range equivFixtures() {
		sf := sparse.FromDense(q)
		serial := ConstructHierarchicalHistogramWorkers(sf, 1)
		serialLevels := serial.Levels()
		for _, w := range equivalenceWorkers[1:] {
			par := ConstructHierarchicalHistogramWorkers(sf, w)
			if serial.NumLevels() != par.NumLevels() {
				t.Fatalf("%s workers=%d: %d vs %d levels", name, w, par.NumLevels(), serial.NumLevels())
			}
			parLevels := par.Levels()
			for li := range serialLevels {
				ls, lp := serialLevels[li], parLevels[li]
				if math.Float64bits(ls.Error) != math.Float64bits(lp.Error) {
					t.Fatalf("%s workers=%d level %d: error %v vs %v", name, w, li, lp.Error, ls.Error)
				}
				if len(ls.Partition) != len(lp.Partition) {
					t.Fatalf("%s workers=%d level %d: size %d vs %d", name, w, li, len(lp.Partition), len(ls.Partition))
				}
				for i := range ls.Partition {
					if ls.Partition[i] != lp.Partition[i] {
						t.Fatalf("%s workers=%d level %d piece %d: %v vs %v",
							name, w, li, i, lp.Partition[i], ls.Partition[i])
					}
				}
			}
		}
	}
}

// The merging loop must not allocate after its scratch buffers warm up:
// after one round on a state, further pair rounds (Algorithm 1) and group
// rounds (fastmerging) on it are allocation-free on the serial path.
func TestPairRoundSteadyStateAllocs(t *testing.T) {
	q := make([]float64, 30000)
	r := rng.New(5)
	for i := range q {
		q[i] = r.NormFloat64()
	}
	sf := sparse.FromDense(q)
	const keep = 8
	for _, tc := range []struct {
		name  string
		round func(m *mergeState)
	}{
		{"pairRound", func(m *mergeState) { m.pairRound(keep) }},
		{"groupRound", func(m *mergeState) { m.groupRound(groupSize(m.len(), keep), keep) }},
	} {
		m := newMergeState(sf, 1)
		tc.round(m) // warm up the scratch
		if allocs := testing.AllocsPerRun(3, func() { tc.round(m) }); allocs > 0 {
			t.Fatalf("%s allocated %v times per round after warm-up", tc.name, allocs)
		}
	}
}
