// Package sparse implements the s-sparse function representation the paper's
// algorithms operate on: a function q : [n] → ℝ stored as its sorted nonzero
// entries, together with the interval statistics (length, Σq, Σq²) that give
// O(1) flattening means and errors, and the paper's initial partition I₀
// (Algorithm 1, lines 3–9) with its statistics.
package sparse

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/interval"
	"repro/internal/numeric"
	"repro/internal/parallel"
)

// Entry is a single nonzero of a sparse function: q(Index) = Value.
// Index is 1-based, matching the paper's universe [n] = {1, …, n}.
type Entry struct {
	Index int
	Value float64
}

// Func is an s-sparse function over [n]: entries sorted by strictly
// increasing Index, all with nonzero Value. The zero value of Func is the
// all-zero function over an empty domain; construct with New or FromDense.
type Func struct {
	n       int
	entries []Entry
}

// New builds a sparse function over [1, n] from entries. Entries may be
// given unsorted; they are sorted, validated (indices in range, distinct)
// and zero values are dropped. The entries slice is not retained.
func New(n int, entries []Entry) (*Func, error) {
	if n < 1 {
		return nil, errors.New("sparse: domain size must be ≥ 1")
	}
	es := make([]Entry, 0, len(entries))
	for _, e := range entries {
		if e.Index < 1 || e.Index > n {
			return nil, fmt.Errorf("sparse: index %d out of [1, %d]", e.Index, n)
		}
		if e.Value != 0 {
			es = append(es, e)
		}
	}
	sort.Slice(es, func(i, j int) bool { return es[i].Index < es[j].Index })
	for i := 1; i < len(es); i++ {
		if es[i].Index == es[i-1].Index {
			return nil, fmt.Errorf("sparse: duplicate index %d", es[i].Index)
		}
	}
	return &Func{n: n, entries: es}, nil
}

// FromSorted builds a sparse function over [1, n] from entries already in
// Func's form: indices strictly increasing inside [1, n], values nonzero.
// It checks that in one pass and keeps the slice, with no copy and no sort;
// a decoder whose wire format orders the indices hands them over this way.
func FromSorted(n int, entries []Entry) (*Func, error) {
	if n < 1 {
		return nil, errors.New("sparse: domain size must be ≥ 1")
	}
	prev := 0
	for _, e := range entries {
		if e.Index <= prev || e.Index > n {
			return nil, fmt.Errorf("sparse: index %d out of order or out of [1, %d]", e.Index, n)
		}
		if e.Value == 0 {
			return nil, fmt.Errorf("sparse: zero value at index %d", e.Index)
		}
		prev = e.Index
	}
	return &Func{n: n, entries: entries}, nil
}

// FromDense converts a dense vector (q[0] is the value at point 1) to its
// sparse representation, dropping exact zeros (−0 too; NaN is kept).
// Every point is stored at the next free slot, which advances only past a
// nonzero, so the loop has no branch around its store.
//
// FromDense is never inlined. In back-to-back fits a collection often
// starts at its allocation, and the collector stops the fill loop by a
// signal and scans the stopped frame conservatively: any word that looks
// like a pointer keeps its target. Inlined, that frame is the caller's,
// whose dead slots may still point at the previous iteration's input; in
// perfbench's fit warm-up such collections kept the previous 16 MB of
// entries live in some runs and not in others, moving the next heap goal
// by 32 MB and the peak resident set with it.
//
//go:noinline
func FromDense(q []float64) *Func {
	es := make([]Entry, len(q))
	j := 0
	for i, v := range q {
		es[j] = Entry{Index: i + 1, Value: v}
		if v != 0 {
			j++
		}
	}
	return &Func{n: len(q), entries: es[:j]}
}

// N returns the domain size n.
func (f *Func) N() int { return f.n }

// Sparsity returns the number of nonzero entries s.
func (f *Func) Sparsity() int { return len(f.entries) }

// Entries returns the sorted nonzero entries. The caller must not modify the
// returned slice.
func (f *Func) Entries() []Entry { return f.entries }

// At returns q(i), using binary search over the nonzeros.
func (f *Func) At(i int) float64 {
	if i < 1 || i > f.n {
		panic(fmt.Sprintf("sparse: At(%d) out of [1, %d]", i, f.n))
	}
	idx := sort.Search(len(f.entries), func(j int) bool { return f.entries[j].Index >= i })
	if idx < len(f.entries) && f.entries[idx].Index == i {
		return f.entries[idx].Value
	}
	return 0
}

// ToDense materializes the function as a dense vector of length n.
func (f *Func) ToDense() []float64 {
	q := make([]float64, f.n)
	for _, e := range f.entries {
		q[e.Index-1] = e.Value
	}
	return q
}

// Sum returns Σᵢ q(i), streaming over the entries with compensated
// summation — no temporary slice, so it is allocation-free on the hot path.
func (f *Func) Sum() float64 {
	var s numeric.Summer
	for _, e := range f.entries {
		s.Add(e.Value)
	}
	return s.Sum()
}

// SumSq returns Σᵢ q(i)², streaming like Sum.
func (f *Func) SumSq() float64 {
	var s numeric.Summer
	for _, e := range f.entries {
		s.Add(e.Value * e.Value)
	}
	return s.Sum()
}

// L2Norm returns ‖q‖₂.
func (f *Func) L2Norm() float64 {
	s := f.SumSq()
	return sqrt(s)
}

// InitialState returns the paper's initial partition I₀ (Algorithm 1,
// lines 3–9) together with its statistics, StatsFor(I₀), as one Node per
// interval. Every relevant index — a member of J = ∪ⱼ {iⱼ−1, iⱼ, iⱼ+1} ∩
// [1, n] — is a singleton interval, and each maximal gap between
// consecutive relevant indices is one (all-zero) interval. Flattening q
// over I₀ reproduces q exactly, and |I₀| ≤ 4s + 1 = O(s). For a function
// with no nonzeros the whole domain is a single interval.
//
// J itself is never materialized. Entry j owns the zero gap before its
// first new relevant index and its new relevant indices: those of iⱼ−1,
// iⱼ, iⱼ+1 past iⱼ₋₁+1, the last point entry j−1 covered. The singleton at
// iⱼ+1 holds entry j+1's value when that entry sits there, and the last
// entry also owns the trailing gap. What an entry owns depends only on
// its neighbours, so I₀ is counted by blocks of entries (Blocks, with
// `workers` as in parallel.Resolve), and this function writes every block
// through Blocks.Write into one slice of exact size, 24 bytes per interval
// (24 MB for a dense 2^20-point input). The output does not depend on the
// worker count, and every node's sums are built with StatsFor's arithmetic
// (from zero, Sum += v and SumSq += v*v), so the bits match too.
//
// ConstructHistogramFast, the hierarchy and InitialPartition call it.
// ConstructHistogram holds all of I₀ only when it runs no round: its first
// round regenerates I₀ a block at a time through the same Blocks.Write.
func (f *Func) InitialState(workers int) []Node {
	return f.Blocks(workers).Nodes()
}

// InitialPartition returns the intervals of InitialState, built serially.
func (f *Func) InitialPartition() interval.Partition {
	nodes := f.InitialState(1)
	p := make(interval.Partition, len(nodes))
	prev := 0
	for i, nd := range nodes {
		p[i] = interval.Interval{Lo: prev + 1, Hi: nd.Hi}
		prev = nd.Hi
	}
	return p
}

// BlockEntries is the number of entries in one block of Blocks.
const BlockEntries = 512

// MaxBlockNodes bounds the I₀ nodes one block owns: four per entry (a
// zero gap, iⱼ−1, iⱼ and iⱼ+1) and the trailing gap.
const MaxBlockNodes = 4*BlockEntries + 1

// Blocks is I₀ counted but not written: the entries cut into blocks of
// BlockEntries and the I₀ index of each block's first node. Each block's
// nodes can then be written on their own, so a caller can regenerate I₀
// a block at a time into a small window instead of holding all of it.
// Every entry below n owns at least the singleton after it, so only a
// last block holding just an entry at n, whose point the entry before
// covered, owns no node.
type Blocks struct {
	f *Func
	// off[b] is the I₀ index of block b's first node; the last element
	// is |I₀|. A function with no entries has one block, which owns the
	// whole domain.
	off []int
}

// Blocks counts the I₀ nodes of every block, in parallel over up to
// `workers` chunks of blocks (≤ 0 means all cores, as in
// parallel.Resolve; at least parallel.MinGrain entries each). The pass is
// short, so it cannot hold the Ps long enough to stall a collection (see
// Nodes): it allocates one int per block, and a block of consecutive
// entries costs it two reads.
func (f *Func) Blocks(workers int) Blocks {
	s := len(f.entries)
	nb := max(1, (s+BlockEntries-1)/BlockEntries)
	off := make([]int, nb+1)
	w := max(1, min(parallel.Resolve(workers), s/parallel.MinGrain))
	parallel.ForChunks(w, nb, w, func(_, lo, hi int) {
		for b := lo; b < hi; b++ {
			off[b+1] = f.countOwned(b*BlockEntries, min((b+1)*BlockEntries, s))
		}
	})
	for b := 1; b <= nb; b++ {
		off[b] += off[b-1]
	}
	return Blocks{f: f, off: off}
}

// Len returns |I₀|.
func (bl Blocks) Len() int { return bl.off[len(bl.off)-1] }

// Find returns the block that owns I₀ node t, 0 ≤ t < Len().
func (bl Blocks) Find(t int) int {
	return sort.Search(len(bl.off)-1, func(b int) bool { return bl.off[b+1] > t })
}

// Start returns the I₀ index of block b's first node.
func (bl Blocks) Start(b int) int { return bl.off[b] }

// HiBefore returns the right endpoint of the I₀ node before block b's
// first node: 0 for the first block.
func (bl Blocks) HiBefore(b int) int { return bl.f.coveredBefore(b * BlockEntries) }

// Write writes block b's nodes to the front of nodes, which must hold
// them (MaxBlockNodes always does), and returns how many it wrote.
func (bl Blocks) Write(b int, nodes []Node) int {
	return bl.f.writeOwned(b*BlockEntries, min((b+1)*BlockEntries, len(bl.f.entries)), nodes)
}

// Nodes writes all of I₀ into one slice of exact size.
func (bl Blocks) Nodes() []Node {
	nodes := make([]Node, bl.Len())
	// The write runs on the calling goroutine. It follows the largest
	// allocations of a fit, where a collection is likely to start, and
	// with few Ps the collector marks only on a P that passes through the
	// scheduler. Parallel writers held every P and stalled the mark into
	// the merging rounds, whose allocations then counted as live and
	// raised the next heap goal: back-to-back 2^20-point fits on 2 vCPUs
	// peaked at up to 383 MB resident, against 291 MB with this pass
	// serial.
	for b := range len(bl.off) - 1 {
		bl.Write(b, nodes[bl.off[b]:])
	}
	return nodes
}

// coveredBefore returns the last point covered by the relevant indices of
// entries[:j] (0 for j = 0), which is also the right endpoint of the last
// I₀ node they own. It never exceeds n for j < s.
func (f *Func) coveredBefore(j int) int {
	if j == 0 {
		return 0
	}
	return f.entries[j-1].Index + 1
}

// countOwned returns the number of I₀ intervals entries[lo:hi] own,
// following writeOwned's steps.
func (f *Func) countOwned(lo, hi int) int {
	es := f.entries
	prev := f.coveredBefore(lo)
	c := 0
	for j := lo; j < hi; j++ {
		i := es[j].Index
		if i > prev {
			c += min(i-prev, 3) // [gap,] [i−1,] i
		}
		run := f.runAfter(j, hi)
		c += run
		j += run
		i += run
		if i < f.n {
			c++
		}
		prev = min(i+1, f.n)
	}
	if hi == len(es) && prev < f.n {
		c++ // trailing gap
	}
	return c
}

// runAfter returns how many of the entries after entry j, up to entry
// hi−1, sit at consecutive points right after it. Indices strictly
// increase, so entries j through j+r are consecutive exactly when
// entry j+r sits r points after entry j, and a run that reaches entry
// hi−1, the whole block on a dense input, costs one comparison.
func (f *Func) runAfter(j, hi int) int {
	es := f.entries
	i := es[j].Index
	if r := hi - 1 - j; es[hi-1].Index-i == r {
		return r
	}
	r := 0
	for es[j+1+r].Index == i+1+r {
		r++
	}
	return r
}

// writeOwned writes the nodes of the I₀ intervals entries[lo:hi] own into
// nodes, which must hold them, and returns how many it wrote.
func (f *Func) writeOwned(lo, hi int, nodes []Node) int {
	es := f.entries
	prev := f.coveredBefore(lo)
	o := 0
	for j := lo; j < hi; j++ {
		i := es[j].Index
		if i > prev { // entry j's own point is new
			first := max(i-1, prev+1)
			if first > prev+1 { // zero gap [prev+1, i−2]
				nodes[o] = Node{Hi: first - 1}
				o++
			}
			if first < i { // i−1 is new and, lying past entry j−1, zero
				nodes[o] = Node{Hi: i - 1}
				o++
			}
			nd := Node{Hi: i}
			v := es[j].Value
			nd.Sum += v
			nd.SumSq += v * v
			nodes[o] = nd
			o++
		}
		// A run of entries at consecutive points: the singleton after
		// each entry holds the next entry, whose own point is then
		// covered, so every later entry of the run adds one node, its own
		// point. This loop is all a dense input runs.
		if run := f.runAfter(j, hi); run > 0 {
			dst := nodes[o : o+run]
			for r, e := range es[j+1 : j+1+run] {
				nd := Node{Hi: e.Index}
				nd.Sum += e.Value
				nd.SumSq += e.Value * e.Value
				dst[r] = nd
			}
			o += run
			j += run
			i += run
		}
		if i < f.n { // i+1, which holds entry j+1 if that entry sits there
			nd := Node{Hi: i + 1}
			if j+1 < len(es) && es[j+1].Index == i+1 {
				v := es[j+1].Value
				nd.Sum += v
				nd.SumSq += v * v
			}
			nodes[o] = nd
			o++
		}
		prev = min(i+1, f.n)
	}
	if hi == len(es) && prev < f.n {
		nodes[o] = Node{Hi: f.n}
		o++
	}
	return o
}

// Stat aggregates the statistics of q restricted to an interval that make
// flattening O(1): the interval length and the sums Σq, Σq² over it.
type Stat struct {
	Len        int
	Sum, SumSq float64
}

// Node is a live interval of the merging engine together with its
// statistics, in 24 bytes: the interval's right endpoint and the sums Σq,
// Σq² over it. Nodes are kept in order as a partition of [1, n], so a
// node's interval starts one past the previous node's Hi (at 1 for the
// first) and its length is Hi minus the previous Hi (0 before the first);
// neither is stored, which keeps each round's memory traffic at 24 bytes
// per interval. Nodes are merged by addition, which is what makes each
// merging round of Algorithm 1 linear in the number of live intervals.
type Node struct {
	Hi         int
	Sum, SumSq float64
}

// Merge returns the node of the union of nd and the node that follows it.
func (nd Node) Merge(next Node) Node {
	return Node{Hi: next.Hi, Sum: nd.Sum + next.Sum, SumSq: nd.SumSq + next.SumSq}
}

// Stat returns the node's statistics, given the right endpoint of the node
// before it (0 for the first node).
func (nd Node) Stat(prevHi int) Stat {
	return Stat{Len: nd.Hi - prevHi, Sum: nd.Sum, SumSq: nd.SumSq}
}

// Mean returns μ_q(I), the value of the best 1-histogram approximation on the
// interval (Definition 3.1).
func (s Stat) Mean() float64 {
	if s.Len == 0 {
		return 0
	}
	return s.Sum / float64(s.Len)
}

// SSE returns err_q(I) = Σ_{i∈I} (q(i) − μ)², clamped at 0 against rounding.
func (s Stat) SSE() float64 {
	if s.Len == 0 {
		return 0
	}
	return numeric.ClampNonNeg(s.SumSq - s.Sum*s.Sum/float64(s.Len))
}

// StatsFor computes the per-piece statistics of q over an arbitrary
// partition in O(s + |p|) with one sweep over the nonzeros. The partition
// must cover [1, n]. It allocates its result; the merging engine never
// calls it (InitialState builds I₀'s statistics, and the rounds maintain
// theirs incrementally by Node.Merge).
func (f *Func) StatsFor(p interval.Partition) []Stat {
	stats := make([]Stat, len(p))
	ei := 0
	for pi, iv := range p {
		st := Stat{Len: iv.Len()}
		for ei < len(f.entries) && f.entries[ei].Index <= iv.Hi {
			v := f.entries[ei].Value
			st.Sum += v
			st.SumSq += v * v
			ei++
		}
		stats[pi] = st
	}
	return stats
}

// Flatten returns the flattening q̄_I of q over the partition p as a dense
// vector: constant μ_q(Iᵢ) on each piece (Definition 3.1).
func (f *Func) Flatten(p interval.Partition) []float64 {
	stats := f.StatsFor(p)
	out := make([]float64, f.n)
	for pi, iv := range p {
		mu := stats[pi].Mean()
		for x := iv.Lo; x <= iv.Hi; x++ {
			out[x-1] = mu
		}
	}
	return out
}

// FlattenError returns ‖q̄_I − q‖₂ = sqrt(Σᵢ err_q(Iᵢ)) without materializing
// the flattening; this is the paper's error decomposition (proof of
// Theorem 3.3) and the error estimate e_t of Theorem 2.2.
func (f *Func) FlattenError(p interval.Partition) float64 {
	stats := f.StatsFor(p)
	var total float64
	for _, st := range stats {
		total += st.SSE()
	}
	return sqrt(total)
}

func sqrt(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return math.Sqrt(x)
}
