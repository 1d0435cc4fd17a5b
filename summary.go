package histapprox

import (
	"fmt"

	"repro/internal/interval"
	"repro/internal/sparse"
)

// summaryInput validates and assembles the FitSummary inputs: boundaries are
// the strictly increasing right endpoints of the summary intervals (the last
// must be n); sums[i] and sumSqs[i] are Σq and Σq² of the data inside
// interval i.
func summaryInput(n int, boundaries []int, sums, sumSqs []float64) (interval.Partition, []sparse.Stat, error) {
	if len(boundaries) == 0 {
		return nil, nil, fmt.Errorf("histapprox: empty summary")
	}
	if len(sums) != len(boundaries) || len(sumSqs) != len(boundaries) {
		return nil, nil, fmt.Errorf("histapprox: summary shape mismatch: %d boundaries, %d sums, %d sumSqs",
			len(boundaries), len(sums), len(sumSqs))
	}
	part, err := interval.FromBoundaries(n, boundaries)
	if err != nil {
		return nil, nil, fmt.Errorf("histapprox: %w", err)
	}
	stats := make([]sparse.Stat, len(part))
	for i, iv := range part {
		if !isFinite(sums[i]) || !isFinite(sumSqs[i]) {
			return nil, nil, fmt.Errorf("histapprox: summary interval %d has Σq = %v, Σq² = %v; both must be finite",
				i, sums[i], sumSqs[i])
		}
		if sumSqs[i] < 0 {
			return nil, nil, fmt.Errorf("histapprox: negative Σq² in summary interval %d", i)
		}
		stats[i] = sparse.Stat{Len: iv.Len(), Sum: sums[i], SumSq: sumSqs[i]}
	}
	return part, stats, nil
}
