package stream

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"

	"repro/internal/core"
	"repro/internal/sparse"
)

// Batched range queries.
//
// A streaming range answer is a fixed-order sum. Per shard: the included
// sealed epochs' masses scaled by their decay factors (oldest first), the
// live view's mass, then every pending update inside the range in arrival
// order (the in-flight log, then the active log); shards add up by index.
// Replicas, restored engines and recovered engines answer bit-identically
// because each adds the same terms in this order, which is also why the
// pending logs cannot be summed from prefix sums over a sorted copy.
//
// Answering one range at a time scans every pending log once per range. The
// batch kernel answers up to rangeGroup ranges per pass instead: it takes each
// shard lock once, adds the summary parts range by range, then scans each
// pending log once, adding every entry to exactly the ranges that cover it.
// Each range still receives its terms in the order above, so a batch answer
// is bit-identical to the same range answered alone.

// rangeGroup is how many ranges one kernel pass answers: the set of group
// ranges covering a point is one uint64 bitmask.
const rangeGroup = 64

var errNotWindowed = errors.New("stream: windowed query on a non-windowed engine")

// checkRange validates one range against the domain [1, n].
func checkRange(a, b, n int) error {
	if a < 1 || b > n || a > b {
		return fmt.Errorf("stream: range [%d, %d] invalid for domain [1, %d]", a, b, n)
	}
	return nil
}

// checkWindow validates windowed-query parameters against a window span of
// `epochs` epochs.
func checkWindow(epochs, window int, halflife float64) error {
	if window < 0 || window > epochs {
		return fmt.Errorf("stream: window %d out of [0, %d] epochs", window, epochs)
	}
	if halflife < 0 || math.IsNaN(halflife) || math.IsInf(halflife, 0) {
		return fmt.Errorf("stream: half-life %v must be a finite number of epochs ≥ 0", halflife)
	}
	return nil
}

// checkRanges validates a whole batch before any engine state is read: the
// slice lengths, the window parameters (a plain engine, epochs = 0, answers
// only window 0 with halflife 0), and every range, reporting the first bad
// one by its index.
func checkRanges(as, bs []int, window int, halflife float64, out []float64, n, epochs int) error {
	if len(bs) != len(as) || len(out) != len(as) {
		return fmt.Errorf("stream: %d range starts, %d ends and %d answer slots", len(as), len(bs), len(out))
	}
	if epochs == 0 {
		if window != 0 || halflife != 0 {
			return errNotWindowed
		}
	} else if err := checkWindow(epochs, window, halflife); err != nil {
		return err
	}
	for i := range as {
		if err := checkRange(as[i], bs[i], n); err != nil {
			return fmt.Errorf("query %d: %w", i, err)
		}
	}
	return nil
}

// stabTable is the stabbing table of one group of ranges. The sorted
// distinct endpoints a and b+1 cut the domain into elementary segments, each
// covered by a fixed set of ranges, and a bucket grid over the endpoints'
// span finds a point's segment in O(1) expected steps.
type stabTable struct {
	// rel[:nb] are the distinct endpoints in increasing order, relative to
	// the smallest, lo: segment j holds the points lo+rel[j] ≤ x <
	// lo+rel[j+1], and no range covers a point outside [lo, lo+span).
	// Endpoints are unsigned so b+1 cannot overflow at b = math.MaxInt.
	rel  [2 * rangeGroup]uint
	nb   int
	lo   uint
	span uint
	// cover[j] has bit r set when group range r covers segment j.
	cover [2 * rangeGroup]uint64
	// grid[g] is the segment holding point lo + g<<shift. Its bucket count
	// is gridScale times the next power of two at or above nb, so most
	// buckets hold no endpoint and a point's segment is its bucket's first
	// segment in most lookups.
	grid  [gridScale * 2 * rangeGroup]uint8
	shift uint
}

// gridScale is the stabbing grid's bucket count per endpoint, rounded to a
// power of two: finer grids send fewer lookups past an endpoint.
const gridScale = 4

// build fills the table for the group ranges [as[r], bs[r]], r < rangeGroup.
func (t *stabTable) build(as, bs []int) {
	if len(as) == 1 {
		// One range is one segment: scan needs no grid.
		t.nb, t.lo, t.span, t.cover[0] = 2, uint(as[0]), uint(bs[0])+1-uint(as[0]), 1
		return
	}
	var ends [2 * rangeGroup]uint
	b := ends[:0]
	for r := range as {
		b = append(b, uint(as[r]), uint(bs[r])+1)
	}
	slices.Sort(b)
	b = slices.Compact(b)
	t.nb = len(b)
	// Each range toggles its bit at its two endpoints; a prefix XOR then
	// leaves exactly the covering ranges' bits set on every segment.
	cover := t.cover[:len(b)]
	clear(cover)
	for r := range as {
		i, _ := slices.BinarySearch(b, uint(as[r]))
		j, _ := slices.BinarySearch(b, uint(bs[r])+1)
		cover[i] ^= 1 << r
		cover[j] ^= 1 << r
	}
	for j := 1; j < len(cover); j++ {
		cover[j] ^= cover[j-1]
	}
	t.lo = b[0]
	for i, x := range b {
		t.rel[i] = x - t.lo
	}
	t.span = t.rel[len(b)-1]
	gridBits := bits.Len(uint(len(b)-1)) + bits.Len(gridScale-1)
	t.shift = uint(max(bits.Len(t.span-1)-gridBits, 0))
	j := 0
	for g := uint(0); g <= (t.span-1)>>t.shift; g++ {
		for t.rel[j+1] <= g<<t.shift {
			j++
		}
		t.grid[g] = uint8(j)
	}
}

// scan adds every entry of log to the sums of the group ranges covering it,
// in log order.
func (t *stabTable) scan(log []sparse.Entry, sums *[rangeGroup]float64) {
	lo, span := t.lo, t.span
	if t.nb == 2 {
		// One segment: the group's ranges are all equal, so each sum runs
		// in a register as a one-range scan would.
		for c := t.cover[0]; c != 0; c &= c - 1 {
			r := bits.TrailingZeros64(c) & (rangeGroup - 1)
			acc := sums[r]
			for _, e := range log {
				if uint(e.Index)-lo < span {
					acc += e.Value
				}
			}
			sums[r] = acc
		}
		return
	}
	shift := t.shift
	for _, e := range log {
		u := uint(e.Index) - lo
		if u >= span {
			continue
		}
		j := t.grid[u>>shift]
		for t.rel[j+1] <= u {
			j++
		}
		for c := t.cover[j]; c != 0; c &= c - 1 {
			sums[bits.TrailingZeros64(c)&(rangeGroup-1)] += e.Value
		}
	}
}

// rangeQuery is the scratch of one batch call, pooled so the serving path
// stays allocation-free.
type rangeQuery struct {
	window   int
	halflife float64
	table    stabTable
	// built reports whether table holds the current group; it is built on
	// the first shard with pending updates, so summary-only reads skip it.
	built bool
	sums  [rangeGroup]float64
	// factors[i] is the decay factor of the i-th included sealed slot,
	// computed once per call: the shards' rings advance in lockstep.
	factors []float64
}

var rangeQueries = sync.Pool{New: func() any { return new(rangeQuery) }}

func getRangeQuery(window int, halflife float64) *rangeQuery {
	q := rangeQueries.Get().(*rangeQuery)
	q.window, q.halflife = window, halflife
	q.factors = q.factors[:0]
	return q
}

// addRanges adds the maintainer's share of each group range [as[r], bs[r]]
// to q.sums[r], or with fresh overwrites q.sums[r] with it: the summary part
// first, then the entries of the inflight and active logs in arrival order.
func (m *Maintainer) addRanges(q *rangeQuery, as, bs []int, inflight, active []sparse.Entry, fresh bool) {
	var slots []*core.Histogram
	if m.win != nil {
		slots = m.win.included(q.window)
		if len(q.factors) != len(slots) {
			q.factors = q.factors[:0]
			for i := range slots {
				q.factors = append(q.factors, decayFactor(len(slots)-i, q.halflife))
			}
		}
	}
	for r := range as {
		a, b := as[r], bs[r]
		var part float64
		for i, h := range slots {
			part += q.factors[i] * h.RangeSum(a, b)
		}
		if !m.view.empty() {
			if m.win != nil {
				part += m.view.rangeSum(a, b)
			} else {
				// A plain summary part is the view's mass itself, not
				// 0 + mass: the two differ for −0.
				part = m.view.rangeSum(a, b)
			}
		}
		if fresh {
			q.sums[r] = part
		} else {
			q.sums[r] += part
		}
	}
	if len(inflight) == 0 && len(active) == 0 {
		return
	}
	if !q.built {
		q.table.build(as, bs)
		q.built = true
	}
	q.table.scan(inflight, &q.sums)
	q.table.scan(active, &q.sums)
}

// EstimateRangesOver answers the range sums [as[i], bs[i]] into out[i] over
// the newest `window` epochs with decay half-life `halflife` (see
// EstimateRangeOver); window 0 with halflife 0 is the plain query on any
// maintainer. Every answer is bit-identical to the range's EstimateRangeOver,
// but the pending buffer is scanned once per 64 ranges rather than once per
// range: each range costs O(log pieces) per included epoch, plus O(1) per
// pending update per group. An invalid range fails the whole batch before
// anything is read, with an error naming its index. len(bs) and len(out)
// must equal len(as).
func (m *Maintainer) EstimateRangesOver(as, bs []int, window int, halflife float64, out []float64) error {
	if err := checkRanges(as, bs, window, halflife, out, m.n, m.WindowEpochs()); err != nil {
		return err
	}
	q := getRangeQuery(window, halflife)
	defer rangeQueries.Put(q)
	for lo := 0; lo < len(as); lo += rangeGroup {
		hi := min(lo+rangeGroup, len(as))
		q.built = false
		m.addRanges(q, as[lo:hi], bs[lo:hi], nil, m.buffer, true)
		copy(out[lo:hi], q.sums[:hi-lo])
	}
	return nil
}

// estimateOne answers one range as a one-element batch, with the range
// error unindexed.
func (m *Maintainer) estimateOne(a, b, window int, halflife float64) (float64, error) {
	if err := checkRange(a, b, m.n); err != nil {
		return 0, err
	}
	as, bs := [1]int{a}, [1]int{b}
	var out [1]float64
	err := m.EstimateRangesOver(as[:], bs[:], window, halflife, out[:])
	return out[0], err
}

// EstimateRangesOver answers the range sums [as[i], bs[i]] into out[i] across
// every shard, over the newest `window` epochs with decay half-life
// `halflife` (see EstimateRangeOver); window 0 with halflife 0 is the plain
// query on any engine. Every answer is bit-identical to the range's
// EstimateRangeOver, but for each group of 64 ranges each shard lock is taken
// once and each pending log scanned once. Like EstimateRange it never forces
// or waits for a compaction. An invalid range fails the whole batch before
// any shard is read, with an error naming its index. len(bs) and len(out)
// must equal len(as).
func (s *Sharded) EstimateRangesOver(as, bs []int, window int, halflife float64, out []float64) error {
	if err := checkRanges(as, bs, window, halflife, out, s.n, s.windowEpochs); err != nil {
		return err
	}
	q := getRangeQuery(window, halflife)
	defer rangeQueries.Put(q)
	// A plain engine adds every term into one running total per range; a
	// windowed one sums each shard's terms first and adds the subtotals.
	windowed := s.windowEpochs > 0
	for lo := 0; lo < len(as); lo += rangeGroup {
		hi := min(lo+rangeGroup, len(as))
		dst := out[lo:hi]
		q.built = false
		if windowed {
			clear(dst)
		} else {
			q.sums = [rangeGroup]float64{}
		}
		for _, sh := range s.shards {
			sh.mu.Lock()
			if err := sh.err; err != nil {
				sh.mu.Unlock()
				return err
			}
			// The in-flight log is not yet in the view (install happens
			// under this lock) and the compaction only reads it: scanning
			// is safe.
			sh.m.addRanges(q, as[lo:hi], bs[lo:hi], sh.inflight, sh.active, windowed)
			sh.mu.Unlock()
			if windowed {
				for r := range dst {
					dst[r] += q.sums[r]
				}
			}
		}
		if !windowed {
			copy(dst, q.sums[:len(dst)])
		}
	}
	return nil
}

// estimateOne answers one range as a one-element batch, with the range
// error unindexed.
func (s *Sharded) estimateOne(a, b, window int, halflife float64) (float64, error) {
	if err := checkRange(a, b, s.n); err != nil {
		return 0, err
	}
	as, bs := [1]int{a}, [1]int{b}
	var out [1]float64
	err := s.EstimateRangesOver(as[:], bs[:], window, halflife, out[:])
	return out[0], err
}
