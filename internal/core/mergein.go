package core

import (
	"fmt"

	"repro/internal/interval"
	"repro/internal/parallel"
	"repro/internal/sparse"
)

// Incremental merge-in: the compaction fast path of a streaming maintainer.
//
// Construct rebuilds a summary from an explicit refinement every cycle: the
// caller materializes the (summary ∪ delta singletons) partition and stats
// into its own buffers, Construct validates them and copies them into the
// merge state, then runs merging rounds. MergeIn collapses that pipeline for
// the one caller shape that dominates ingest: a trusted previous summary (we
// built it) plus a sorted deduplicated delta log. The sweep below writes the
// refinement DIRECTLY into the merge state — no intermediate refinement
// buffers, no validation pass, no copy — and the merging rounds only run
// when the refined piece count exceeds the caller's lazy threshold, so most
// compaction cycles are a single linear sweep. The paper's mergeability
// theorem is what makes the laziness sound: a summary carrying more than the
// target piece count is still an exact piecewise representation of
// (summary + deltas), so deferring the merge loses nothing — whenever the
// rounds do run they operate on the same refinement a full reconstruct would
// have built, keeping the result bit-identical to the Construct oracle
// (asserted by TestMergeInMatchesConstructOracle).

// mergeInSweep emits the common refinement of (summary pieces ∪ delta
// singletons) straight into the merge state's nodes, one 24-byte
// sparse.Node (right endpoint, Σq, Σq²) per refined piece; the pieces are
// emitted left to right, so each starts one past the previous node's Hi. A
// plain struct with methods (rather than closures over locals) keeps the
// sweep free of captured-variable heap traffic, like combineEmit on the
// maintainer side; the arithmetic matches it term for term so refinement
// stats are bit-identical to the full-reconstruct path.
type mergeInSweep struct {
	nodes  []sparse.Node
	deltas []sparse.Entry
	di     int
}

// run emits a flat run [lo, hi] at summary value v.
func (w *mergeInSweep) run(lo, hi int, v float64) {
	if lo > hi {
		return
	}
	length := float64(hi - lo + 1)
	w.nodes = append(w.nodes, sparse.Node{Hi: hi, Sum: v * length, SumSq: v * v * length})
}

// point emits the touched point p with value v+delta.
func (w *mergeInSweep) point(p int, v, delta float64) {
	s := v + delta
	w.nodes = append(w.nodes, sparse.Node{Hi: p, Sum: s, SumSq: s * s})
}

// refine splits the summary piece [lo, hi] (value v) around every delta
// point it contains.
func (w *mergeInSweep) refine(lo, hi int, v float64) {
	for w.di < len(w.deltas) && w.deltas[w.di].Index <= hi {
		p := w.deltas[w.di].Index
		w.run(lo, p-1, v)
		w.point(p, v, w.deltas[w.di].Value)
		lo = p + 1
		w.di++
	}
	w.run(lo, hi, v)
}

// MergeIn sweeps a sorted, deduplicated delta log into an existing summary
// view and re-merges only when the refined piece count exceeds maxPieces
// (clamped up to the target budget, so maxPieces ≤ target means "always
// merge", the Construct behavior). The result is the successor summary:
// when the merging rounds run it is bit-identical to
// Construct(refinement(part, deltas)); when they are skipped it is the exact
// refinement itself, one linear sweep with no merge pause.
//
// Unlike Construct, the inputs are trusted: part/values must be a previous
// Construct/MergeIn output over [1, n] (or empty, meaning the zero function),
// and deltas must be strictly increasing in Index within [1, n] — a
// maintainer's dedupedBuffer output. Neither is retained or modified, and
// neither may alias the scratch's previous result except AS that previous
// result (the double-buffered output makes read-old-while-writing-new safe).
func (s *SummaryScratch) MergeIn(n int, part interval.Partition, values []float64, deltas []sparse.Entry, k, maxPieces int, opts Options) (SummaryResult, error) {
	if err := opts.validate(); err != nil {
		return SummaryResult{}, err
	}
	if k < 1 {
		return SummaryResult{}, fmt.Errorf("core: k must be ≥ 1, got %d", k)
	}
	if len(values) != len(part) {
		return SummaryResult{}, fmt.Errorf("core: %d values for %d intervals", len(values), len(part))
	}
	if s.m.fnPairErrs == nil {
		s.m.initPasses()
	}
	s.m.workers = parallel.Resolve(opts.Workers)

	w := mergeInSweep{nodes: s.m.nodes[:0], deltas: deltas}
	if len(part) == 0 {
		// No summary yet: one zero piece spans the domain.
		w.refine(1, n, 0)
	} else {
		for i, iv := range part {
			w.refine(iv.Lo, iv.Hi, values[i])
		}
	}
	s.m.nodes = w.nodes

	rounds := 0
	if limit := max(maxPieces, opts.TargetPieces(k)); s.m.len() > limit {
		rounds = s.mergeToTarget(k, opts)
	}
	return s.emitResult(rounds), nil
}
