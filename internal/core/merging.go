package core

import (
	"fmt"
	"math"

	"repro/internal/interval"
	"repro/internal/parallel"
	"repro/internal/selection"
	"repro/internal/sparse"
)

// Options are the trade-off parameters of Algorithm 1.
//
// Delta (δ) controls the trade-off between the approximation ratio and the
// number of output pieces: the output has at most (2 + 2/δ)k + γ pieces and
// error at most √(1+δ)·opt_k (Theorem 3.3). Small δ means a tighter error
// ratio but more pieces; the paper's experiments use δ = 1000 so that the
// output has ≈ 2k pieces.
//
// Gamma (γ) controls the trade-off between running time and pieces: with
// γ = c·(2 + 2/δ)k the algorithm runs in O(s) for every k (Corollary 3.1);
// with γ = 1 it runs in O(s + k(1+1/δ)·log((1+1/δ)k)).
//
// Workers controls how many goroutines the merging rounds use: any value
// ≤ 0 means all cores (GOMAXPROCS), 1 forces the serial path, any other
// positive value is used as given — the same convention every
// worker-taking entry point in this repository follows (parallel.Resolve).
// The parallel path is bit-identical to the serial one —
// chunk boundaries are fixed up front and every floating-point reduction
// happens in index order — so Workers only changes wall-clock time, never
// the output. Small inputs run serially regardless (the dispatch overhead
// would dominate below a few thousand live intervals).
type Options struct {
	Delta   float64
	Gamma   float64
	Workers int
}

// DefaultOptions returns δ = 1, γ = 1: at most 4k+1 pieces with error at
// most √2·opt_k. Workers = 0: use all cores.
func DefaultOptions() Options { return Options{Delta: 1, Gamma: 1} }

// PaperOptions returns the parameters used in the paper's experimental
// section (Section 5): δ = 1000, γ = 1, so the output histogram has 2k+1
// pieces. Workers = 0: use all cores.
func PaperOptions() Options { return Options{Delta: 1000, Gamma: 1} }

func (o Options) validate() error {
	if !(o.Delta > 0) || math.IsInf(o.Delta, 0) || math.IsNaN(o.Delta) {
		return fmt.Errorf("core: Delta must be a positive finite number, got %v", o.Delta)
	}
	if !(o.Gamma >= 1) || math.IsInf(o.Gamma, 0) || math.IsNaN(o.Gamma) {
		return fmt.Errorf("core: Gamma must be ≥ 1, got %v", o.Gamma)
	}
	// Workers needs no validation: parallel.Resolve gives every value a
	// meaning (≤ 0 = all cores), matching the other worker-taking APIs.
	return nil
}

// TargetPieces returns the loop exit threshold ⌊(2 + 2/δ)k + γ⌋, saturated
// at math.MaxInt: the algorithm stops once at most this many intervals
// remain, so the output has at most that many pieces. A target past every
// int (a huge k, or a tiny δ) runs no rounds and returns the exact I₀
// flattening.
func (o Options) TargetPieces(k int) int {
	return floorBudget((2+2/o.Delta)*float64(k) + o.Gamma)
}

// KeepBudget returns ⌊(1 + 1/δ)k⌋ (at least 1, saturated at math.MaxInt),
// the per-round number of candidate merges with the largest errors that are
// kept split (Algorithm 1, line 16). Floor semantics match the paper's
// experimental parameterization: with δ = 1000, k = 10 the target of 21
// pieces is only reachable if the keep budget rounds down to 10 in the final
// rounds.
func (o Options) KeepBudget(k int) int {
	return max(1, floorBudget((1+1/o.Delta)*float64(k)))
}

// floorBudget converts a piece budget to int, saturating at math.MaxInt
// where the conversion would overflow (a budget of 2^63 or more, +Inf or
// NaN).
func floorBudget(x float64) int {
	if !(x < math.MaxInt) {
		return math.MaxInt
	}
	return int(x)
}

// Result is the output of a merging run.
type Result struct {
	// Partition is the final interval partition I.
	Partition interval.Partition
	// Histogram is the flattening q̄_I of the input over Partition — the
	// ℓ2-optimal histogram on that partition.
	Histogram *Histogram
	// Error is ‖q̄_I − q‖₂, computed exactly from the interval statistics.
	// In the learning setting this is the error estimate e_t of Theorem 2.2.
	Error float64
	// Rounds is the number of merging iterations performed.
	Rounds int
}

// mergeState carries the live intervals and their statistics across
// rounds, one 24-byte sparse.Node each: the right endpoint and Σq, Σq².
// The nodes partition [1, n] in order, so a node starts one past the
// previous node's Hi, and a merge keeps the later Hi and adds the sums,
// keeping every round linear in the number of live intervals. A pass over
// a chunk that needs lengths reads the Hi of the node before the chunk;
// that is the error pass, and no pass writes nodes before it ends.
//
// A pair round merges in place; groupRound writes next and swaps it with
// nodes. ConstructHistogram's first round reads no nodes: it regenerates
// I₀ a block at a time into small windows (firstRound) and writes a fresh
// slice, the only node slice a fit allocates, which the later rounds
// merge in place.
//
// All scratch buffers are owned by the state and reused round after round:
// after the first round a serial merging round performs no heap allocation
// (asserted by TestPairRoundSteadyStateAllocs). Parallel rounds additionally
// pay O(workers) per chunk pass for goroutine spawns and their coordination
// state — noise against the ≥ MinGrain items each worker processes.
type mergeState struct {
	nodes []sparse.Node
	// workers is the effective worker count (≥ 1) for the round passes.
	workers int
	// Scratch buffers reused across rounds.
	errs       []float64
	next       []sparse.Node
	selScratch []float64
	// Per-chunk scratch of the two-pass split/merge scheme.
	chunkGreater []int // candidates strictly above the cut, per chunk
	chunkTies    []int // candidates exactly at the cut, per chunk
	chunkTieUse  []int // ties granted split budget, per chunk
	chunkOutLen  []int // intervals the chunk will emit (groupRound only)
	chunkOff     []int // output offset of each chunk's first interval

	// Round-scoped parameters read by the stored passes below.
	cut      float64 // keep-th largest candidate error this round
	g        int     // group size (groupRound only)
	outTotal int     // output length accumulated by the offset pass

	// The chunk passes are built once per state and reused every round —
	// a fresh closure per round would escape into the worker goroutines
	// and put an allocation back on the per-round path.
	fnPairErrs, fnPairOff, fnPairWrite    func(ci, lo, hi int)
	fnPairMoveDown                        func(ci, lo, hi int)
	fnGroupErrs, fnGroupLen, fnGroupWrite func(ci, lo, hi int)
	fnCount                               func(ci, lo, hi int)
}

func newMergeState(q *sparse.Func, workers int) *mergeState {
	w := parallel.Resolve(workers)
	m := &mergeState{nodes: q.InitialState(w), workers: w}
	m.initPasses()
	return m
}

// hiBefore returns the right endpoint of the node before nodes[i]: 0 for
// the first node.
func (m *mergeState) hiBefore(i int) int {
	if i == 0 {
		return 0
	}
	return m.nodes[i-1].Hi
}

// initPasses binds the chunk passes shared by pairRound and groupRound.
func (m *mergeState) initPasses() {
	m.fnPairErrs = func(_, lo, hi int) {
		pairErrs(m.hiBefore(2*lo), m.nodes[2*lo:2*hi], m.errs[lo:hi])
	}
	m.fnCount = func(ci, lo, hi int) {
		greater, ties := 0, 0
		for _, e := range m.errs[lo:hi] {
			if e > m.cut {
				greater++
			} else if e == m.cut {
				ties++
			}
		}
		m.chunkGreater[ci] = greater
		m.chunkTies[ci] = ties
	}
	// Output offsets: a split pair emits 2 intervals, a merged pair 1, so a
	// chunk with p pairs of which g+t split emits p + g + t.
	m.fnPairOff = func(ci, lo, hi int) {
		m.chunkOff[ci] = m.outTotal
		m.outTotal += (hi - lo) + m.chunkGreater[ci] + m.chunkTieUse[ci]
	}
	m.fnPairWrite = func(ci, lo, hi int) {
		writePairs(m.nodes, m.nodes[2*lo:2*hi], m.errs[lo:hi], m.cut, 2*lo, m.chunkTieUse[ci])
	}
	m.fnPairMoveDown = func(ci, lo, hi int) {
		if off := m.chunkOff[ci]; off < 2*lo {
			n := (hi - lo) + m.chunkGreater[ci] + m.chunkTieUse[ci]
			copy(m.nodes[off:off+n], m.nodes[2*lo:])
		}
	}
	m.initGroupPasses()
}

// pairErrs is the error kernel of a pair round: errs[u] is the flattening
// error of pairs[2u] merged with pairs[2u+1], and prev is the right
// endpoint of the node before pairs[0].
func pairErrs(prev int, pairs []sparse.Node, errs []float64) {
	for u := range errs {
		nd := pairs[2*u].Merge(pairs[2*u+1])
		errs[u] = nd.Stat(prev).SSE()
		prev = nd.Hi
	}
}

// writePairs is the write kernel of a pair round: from next[o] on it
// writes each pair's successors, both nodes of a pair that stays split
// and the merged node otherwise, with errs the pairs' errors, cut the
// round's cut and tieLeft the ties at the cut still allowed to stay split.
// It returns the next offset and the ties left. next may hold pairs at
// index o or later: a pair's successors never outnumber the nodes read
// by then, so no write reaches a node still to be read.
func writePairs(next, pairs []sparse.Node, errs []float64, cut float64, o, tieLeft int) (int, int) {
	for u, e := range errs {
		tie := e == cut && tieLeft > 0
		if e > cut || tie {
			if tie {
				tieLeft--
			}
			next[o], next[o+1] = pairs[2*u], pairs[2*u+1]
			o += 2
		} else {
			next[o] = pairs[2*u].Merge(pairs[2*u+1])
			o++
		}
	}
	return o, tieLeft
}

func (m *mergeState) len() int { return len(m.nodes) }

// roundWorkers caps the configured worker count by the amount of work in
// this round: below MinGrain items per worker the dispatch overhead wins,
// so small rounds (and the tail of every run) execute serially.
func (m *mergeState) roundWorkers(items int) int {
	w := m.workers
	if max := items / parallel.MinGrain; w > max {
		w = max
	}
	if w < 1 {
		w = 1
	}
	return w
}

// finish flattens the summarized input over the final partition and
// assembles the Result. n is the domain size.
func (m *mergeState) finish(n, rounds int) Result {
	p := make(interval.Partition, len(m.nodes))
	values := make([]float64, len(m.nodes))
	sse := flatten(m.nodes, p, values)
	return Result{
		Partition: p,
		Histogram: NewHistogram(n, p, values),
		Error:     math.Sqrt(sse),
		Rounds:    rounds,
	}
}

// flatten writes the intervals of nodes into p and their flattening values
// into values (skipped when values is nil), both of length len(nodes), and
// returns the squared ℓ2 error of the flattening, summed in index order.
func flatten(nodes []sparse.Node, p interval.Partition, values []float64) float64 {
	var sse float64
	prev := 0
	for i, nd := range nodes {
		st := nd.Stat(prev)
		p[i] = interval.Interval{Lo: prev + 1, Hi: nd.Hi}
		if values != nil {
			values[i] = st.Mean()
		}
		sse += st.SSE()
		prev = nd.Hi
	}
	return sse
}

// grow returns xs resized to length n, reallocating only when the capacity
// is insufficient — the buffer-reuse primitive of the round scratch.
func grow[T any](xs []T, n int) []T {
	if cap(xs) < n {
		return make([]T, n)
	}
	return xs[:n]
}

// cutAndTieBudgets runs the shared middle of a merging round: given the
// candidate errors in m.errs, it selects the cut value (the keep-th largest
// error) into m.cut, counts per chunk how many candidates sit strictly
// above and exactly at the cut, and hands each chunk its tie budget in
// index order.
//
// Cut semantics (identical to the historical serial loop): candidates
// strictly above the cut always stay split — there are at most keep−1 of
// them; ties at the cut stay split only until the remaining budget is
// exhausted, so exactly `keep` candidates stay split. The tie budget must
// be computed up front — handing ties the full budget in index order would
// let early ties plus later strictly-greater errors split more than `keep`
// candidates, and a round where every candidate splits makes no progress.
// Chunking preserves those semantics exactly: chunks partition the
// candidate index range in order, so granting chunk c the budget left after
// chunks 0..c−1 reproduces the global index-order allocation.
func (m *mergeState) cutAndTieBudgets(keep, w, nc int) {
	if keep > 0 {
		m.cut, m.selScratch = selection.ThresholdParallel(m.errs, keep, w, m.selScratch)
	} else {
		m.cut = math.Inf(1)
	}
	m.chunkGreater = grow(m.chunkGreater, nc)
	m.chunkTies = grow(m.chunkTies, nc)
	m.chunkTieUse = grow(m.chunkTieUse, nc)
	m.chunkOutLen = grow(m.chunkOutLen, nc)
	m.chunkOff = grow(m.chunkOff, nc)
	parallel.ForChunks(w, len(m.errs), nc, m.fnCount)
	greater := 0
	for _, g := range m.chunkGreater[:nc] {
		greater += g
	}
	tieLeft := keep - greater
	if tieLeft < 0 {
		tieLeft = 0
	}
	for ci := 0; ci < nc; ci++ {
		use := m.chunkTies[ci]
		if use > tieLeft {
			use = tieLeft
		}
		m.chunkTieUse[ci] = use
		tieLeft -= use
	}
}

// pairRound performs one iteration of Algorithm 1's loop: pair up the
// current intervals, keep the `keep` pairs with the largest merge errors
// split, and merge every other pair. An unpaired trailing interval is
// carried over. It reports the number of live intervals after the round.
//
// The round merges in place. Each chunk writes its successors over its
// own pairs from the chunk's first node on, and a serial pass then moves
// the chunks down to their offsets in chunk order. Every chunk's offset is
// at or before its first node, so a move never overwrites a chunk still
// to be moved.
func (m *mergeState) pairRound(keep int) int {
	s := len(m.nodes)
	w, nc, outLen := m.pairPlan(s, keep, m.fnPairErrs)
	parallel.ForChunks(w, s/2, nc, m.fnPairWrite)
	parallel.ForChunks(1, s/2, nc, m.fnPairMoveDown)
	if s%2 == 1 { // trailing unpaired interval, past every chunk's output
		m.nodes[outLen-1] = m.nodes[s-1]
	}
	m.nodes = m.nodes[:outLen]
	return outLen
}

// pairPlan runs the first two of a pair round's three chunked passes over
// the pairs of s live intervals — errsPass computes the merge errors into
// m.errs, and the cut, the tie budgets and each chunk's output offset are
// counted per chunk — so that a write pass over the same chunks, run by
// the caller with the returned worker and chunk counts, makes the same
// interval sequence for any number of workers that the serial loop
// historically did, bit for bit. It returns those counts and the output
// length; the caller writes the unpaired trailing interval of an odd s
// into its last slot.
func (m *mergeState) pairPlan(s, keep int, errsPass func(ci, lo, hi int)) (w, nc, outLen int) {
	pairs := s / 2
	if keep >= pairs {
		keep = pairs - 1 // guarantee progress: at least one pair merges
	}
	if keep < 0 {
		keep = 0
	}

	w = m.roundWorkers(pairs)
	nc = parallel.NumChunks(pairs, w)
	m.errs = grow(m.errs, pairs)
	parallel.ForChunks(w, pairs, nc, errsPass)

	m.cutAndTieBudgets(keep, w, nc)

	m.outTotal = 0
	parallel.ForChunks(1, pairs, nc, m.fnPairOff)
	return w, nc, m.outTotal + s%2
}

// firstRound is pairRound over I₀ without I₀: each chunk of pairs
// regenerates the I₀ nodes it covers a block at a time into its own
// window and runs pairRound's kernels over it, once for the errors and
// again for the write. Memory then sees only the sparse entries and the
// round's output, about half of I₀. The chunks are pairRound's, so the
// output is the round pairRound would make from bl.Nodes().
func (m *mergeState) firstRound(bl sparse.Blocks, keep int) {
	s := bl.Len()
	wins := make([]i0Window, m.roundWorkers(s/2)) // one per chunk
	window := func(ci, t int) *i0Window {
		w := &wins[ci]
		if w.buf == nil {
			w.bl, w.buf = bl, make([]sparse.Node, 1+min(sparse.MaxBlockNodes, s))
		}
		w.seek(t)
		return w
	}
	errsPass := func(ci, lo, hi int) {
		w := window(ci, 2*lo)
		for u := lo; u < hi; {
			pairs, prev := w.pairs(hi - u)
			pairErrs(prev, pairs, m.errs[u:u+len(pairs)/2])
			u += len(pairs) / 2
		}
	}
	writePass := func(ci, lo, hi int) {
		w := window(ci, 2*lo)
		o, tieLeft := m.chunkOff[ci], m.chunkTieUse[ci]
		for u := lo; u < hi; {
			pairs, _ := w.pairs(hi - u)
			o, tieLeft = writePairs(m.next, pairs, m.errs[u:u+len(pairs)/2], m.cut, o, tieLeft)
			u += len(pairs) / 2
		}
	}
	w, nc, outLen := m.pairPlan(s, keep, errsPass)
	m.next = make([]sparse.Node, outLen)
	parallel.ForChunks(w, s/2, nc, writePass)
	if s%2 == 1 { // trailing unpaired interval
		m.next[outLen-1] = window(0, s-1).nodes[0]
	}
	m.nodes, m.next = m.next, nil
}

// i0Window holds the I₀ nodes a pass over a range of pairs has not read
// yet: at most one node carried from the previous block and one block.
type i0Window struct {
	bl    sparse.Blocks
	buf   []sparse.Node // a carried node and a block: 1 + min(sparse.MaxBlockNodes, |I₀|)
	nodes []sparse.Node // the unread nodes, a tail of buf
	next  int           // the block to write after nodes
	prev  int           // right endpoint of the node before nodes[0]
}

// seek writes the block that owns I₀ node t and starts the window at t.
func (w *i0Window) seek(t int) {
	b := w.bl.Find(t)
	pos := t - w.bl.Start(b)
	w.nodes = w.buf[pos:w.bl.Write(b, w.buf)]
	w.next = b + 1
	if pos > 0 {
		w.prev = w.buf[pos-1].Hi
	} else {
		w.prev = w.bl.HiBefore(b)
	}
}

// pairs returns the window's next whole pairs, at most limit of them, and
// the right endpoint of the node before them, writing the next block
// behind an odd node left over when fewer than two nodes remain. The
// caller asks only for pairs that I₀ holds.
func (w *i0Window) pairs(limit int) ([]sparse.Node, int) {
	for len(w.nodes) < 2 {
		c := copy(w.buf, w.nodes)
		w.nodes = w.buf[:c+w.bl.Write(w.next, w.buf[c:])]
		w.next++
	}
	n := 2 * min(len(w.nodes)/2, limit)
	p, prev := w.nodes[:n], w.prev
	w.nodes, w.prev = w.nodes[n:], p[n-1].Hi
	return p, prev
}

// ConstructHistogram is Algorithm 1: it approximates the s-sparse function q
// with a histogram of at most (2 + 2/δ)k + γ pieces whose ℓ2 error is at
// most √(1+δ)·opt_k, where opt_k is the error of the best k-histogram
// (Theorem 3.3). With γ = Θ(k/δ) the running time is O(s) (Corollary 3.1).
// The rounds run on opts.Workers goroutines (0 = all cores) with output
// bit-identical to the serial path.
func ConstructHistogram(q *sparse.Func, k int, opts Options) (Result, error) {
	if err := opts.validate(); err != nil {
		return Result{}, err
	}
	if k < 1 {
		return Result{}, fmt.Errorf("core: k must be ≥ 1, got %d", k)
	}
	m := &mergeState{workers: parallel.Resolve(opts.Workers)}
	m.initPasses()
	bl := q.Blocks(m.workers)
	target := opts.TargetPieces(k)
	keep := opts.KeepBudget(k)
	if bl.Len() <= target { // no round: the result is I₀ itself
		m.nodes = bl.Nodes()
		return m.finish(q.N(), 0), nil
	}
	m.firstRound(bl, keep)
	rounds := 1
	for m.len() > target {
		m.pairRound(keep)
		rounds++
	}
	return m.finish(q.N(), rounds), nil
}

// ConstructHistogramFromSummary runs the merging loop starting from an
// arbitrary interval summary instead of a sparse function: a partition of
// [1, n] with the per-interval statistics (length, Σq, Σq²) of the data each
// interval summarizes. This is the entry point for mergeable and streaming
// summaries (internal/stream), where the "input" is itself a previously
// built histogram plus buffered updates. The partition and stats slices are
// not retained or modified. Repeated callers (compaction loops) should hold
// a SummaryScratch and call its Construct method instead: same loop, same
// bit-identical output, but the scratch and output buffers are reused so
// steady-state compaction allocates nothing.
func ConstructHistogramFromSummary(n int, p interval.Partition, stats []sparse.Stat, k int, opts Options) (Result, error) {
	var s SummaryScratch
	sr, err := s.Construct(n, p, stats, k, opts)
	if err != nil {
		return Result{}, err
	}
	// The scratch is function-local and never reused, so its output
	// buffers are safe to hand out directly; NewHistogram copies anyway.
	return Result{
		Partition: sr.Partition,
		Histogram: NewHistogram(n, sr.Partition, sr.Values),
		Error:     sr.Error,
		Rounds:    sr.Rounds,
	}, nil
}
