package core

import (
	"fmt"
	"math"

	"repro/internal/interval"
	"repro/internal/parallel"
	"repro/internal/sparse"
)

// SummaryScratch owns the reusable state of repeated summary recompactions:
// the merge-round scratch of one mergeState (its live intervals as 24-byte
// sparse.Node records, double-buffered across rounds) plus a double-buffered
// output area. A streaming maintainer recompacts (previous summary + buffered
// updates) back to O(k) pieces thousands of times over its life; routing
// every one of those runs through a single SummaryScratch makes the
// steady-state compaction path allocation-free (asserted by
// TestSummaryScratchSteadyStateAllocs), exactly like the Fit hot path.
//
// The zero value is ready to use. A SummaryScratch must not be copied after
// its first Construct call (the bound round passes point back into it), and
// is not safe for concurrent use.
type SummaryScratch struct {
	m mergeState
	// out is the double-buffered output area: Construct writes the buffer
	// the previous call did NOT return, so the previous result stays
	// readable while the next compaction consumes it — the
	// read-old-while-writing-new shape of streaming maintenance.
	out [2]struct {
		part interval.Partition
		vals []float64
	}
	cur int
}

// SummaryResult is the output of SummaryScratch.Construct. Partition and
// Values are owned by the scratch: they stay valid through the next
// Construct call on the same scratch (double buffering) and are overwritten
// by the call after that. Callers that need a longer-lived result copy them
// out (e.g. via NewHistogram, which copies).
type SummaryResult struct {
	Partition interval.Partition
	Values    []float64
	// Error is the ℓ2 distance between the output histogram and the
	// summarized input, computed exactly from the interval statistics.
	Error float64
	// Rounds is the number of merging iterations performed.
	Rounds int
}

// Construct runs the merging loop of ConstructHistogramFromSummary on the
// scratch's reusable buffers: same inputs, bit-identical outputs
// (TestSummaryScratchMatchesConstructFromSummary), no steady-state heap
// allocation once the buffers have grown to the working-set size. The
// partition and stats slices are not retained or modified; every stat's
// Len must be its interval's length.
func (s *SummaryScratch) Construct(n int, p interval.Partition, stats []sparse.Stat, k int, opts Options) (SummaryResult, error) {
	if err := opts.validate(); err != nil {
		return SummaryResult{}, err
	}
	if k < 1 {
		return SummaryResult{}, fmt.Errorf("core: k must be ≥ 1, got %d", k)
	}
	if err := p.Validate(n); err != nil {
		return SummaryResult{}, fmt.Errorf("core: %w", err)
	}
	if len(stats) != len(p) {
		return SummaryResult{}, fmt.Errorf("core: %d stats for %d intervals", len(stats), len(p))
	}
	if s.m.fnPairErrs == nil {
		s.m.initPasses()
	}
	s.m.workers = parallel.Resolve(opts.Workers)
	s.m.nodes = grow(s.m.nodes, len(p))
	for i, iv := range p {
		st := stats[i]
		if st.Len != iv.Len() {
			return SummaryResult{}, fmt.Errorf("core: stat %d has length %d for interval %v of length %d", i, st.Len, iv, iv.Len())
		}
		s.m.nodes[i] = sparse.Node{Hi: iv.Hi, Sum: st.Sum, SumSq: st.SumSq}
	}

	rounds := s.mergeToTarget(k, opts)
	return s.emitResult(rounds), nil
}

// mergeToTarget runs merging rounds on the loaded state until it fits the
// target piece budget, returning the number of rounds performed.
func (s *SummaryScratch) mergeToTarget(k int, opts Options) int {
	target := opts.TargetPieces(k)
	keep := opts.KeepBudget(k)
	rounds := 0
	for s.m.len() > target {
		s.m.pairRound(keep)
		rounds++
	}
	return rounds
}

// emitResult writes the partition and piece values of the merge state into
// the output buffer the previous call did NOT return, and derives the exact
// ℓ2 error from the interval statistics.
func (s *SummaryScratch) emitResult(rounds int) SummaryResult {
	s.cur = 1 - s.cur
	o := &s.out[s.cur]
	o.part = grow(o.part, len(s.m.nodes))
	o.vals = grow(o.vals, len(s.m.nodes))
	sse := flatten(s.m.nodes, o.part, o.vals)
	return SummaryResult{
		Partition: o.part,
		Values:    o.vals,
		Error:     math.Sqrt(sse),
		Rounds:    rounds,
	}
}
