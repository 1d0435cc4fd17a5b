// Package stream provides maintained and mergeable histogram summaries on
// top of the core merging algorithm — the "approximate histogram
// maintenance" setting of Gibbons–Matias–Poosala [GMP97] and
// Gilbert et al. [GGI+02] that the paper's introduction cites as a driving
// application.
//
// Three primitives:
//
//   - Maintainer ingests a stream of point updates (i, w) over [1, n],
//     buffering them and periodically recompacting (previous summary +
//     buffer) back to O(k) pieces with one merging run. Amortized update
//     cost is O(1); the summary is always within the merging guarantee of
//     the *summarized* stream, with bounded drift against the true stream
//     (each compaction flattens inside pieces whose SSE the merging step
//     already certified small). Single-goroutine; Sharded is the
//     multi-core front end.
//
//   - Merge / MergeAll combine the summaries of disjoint data partitions
//     into one: the sum of histograms is a histogram on the common
//     refinement of their partitions (exactly — no approximation), which is
//     then recompacted to O(k) pieces. MergeAll sweeps the m-way refinement
//     in a single pass and recurses through a deterministic aggregation
//     tree for large m. This is the "mergeable summaries" shape used by
//     parallel aggregation trees.
//
//   - Sharded scales intake across cores: updates hash to per-core shards,
//     each an independently compacting Maintainer whose merging runs happen
//     on a background goroutine behind a double-buffered update log, so the
//     ingest path never blocks on a merging run while compaction keeps up.
package stream

import (
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/interval"
	"repro/internal/sparse"
)

// summaryView is the compacted summary in the flat form the maintenance hot
// path works with: the partition, the per-piece values, and the prefix
// masses that make range sums O(log pieces). The backing arrays belong to
// the maintainer's compaction scratch (double-buffered), so a view stays
// readable while the *next* compaction builds its successor — the property
// Sharded's lock-scoped readers rely on.
type summaryView struct {
	part   interval.Partition
	values []float64
	// prefix[i] is the total mass of pieces 0..i-1; len(prefix) = pieces+1.
	prefix []float64
	// err is the ℓ2 error the last merging run certified against its
	// summarized input.
	err float64
}

func (v *summaryView) empty() bool { return len(v.part) == 0 }

// find returns the index of the piece containing x.
func (v *summaryView) find(x int) int {
	return sort.Search(len(v.part), func(i int) bool { return v.part[i].Hi >= x })
}

// rangeSum returns the summary's mass over [a, b] in O(log pieces) with no
// allocation: two piece locations plus a prefix-mass difference.
func (v *summaryView) rangeSum(a, b int) float64 {
	i := v.find(a)
	j := v.find(b)
	if i == j {
		return float64(b-a+1) * v.values[i]
	}
	total := float64(v.part[i].Hi-a+1)*v.values[i] + float64(b-v.part[j].Lo+1)*v.values[j]
	return total + v.prefix[j] - v.prefix[i+1]
}

// ringCap bounds the duration rings below: enough samples for stable tail
// percentiles without unbounded growth on long-lived streams.
const ringCap = 512

// durRing records the most recent ringCap durations of a recurring event
// (compactions, ingest stalls) plus the total event count.
type durRing struct {
	buf [ringCap]int64
	n   int
}

func (r *durRing) add(d time.Duration) {
	r.buf[r.n%ringCap] = int64(d)
	r.n++
}

// count returns the total number of events recorded, which may exceed the
// ringCap samples snapshot retains.
func (r *durRing) count() int { return r.n }

// snapshot appends the recorded durations (up to ringCap, unordered) to dst.
func (r *durRing) snapshot(dst []time.Duration) []time.Duration {
	m := r.n
	if m > ringCap {
		m = ringCap
	}
	for i := 0; i < m; i++ {
		dst = append(dst, time.Duration(r.buf[i]))
	}
	return dst
}

// Maintainer ingests point updates and maintains an O(k)-piece histogram
// summary of the accumulated frequency vector. It is single-goroutine; use
// Sharded for concurrent multi-core intake.
type Maintainer struct {
	n    int
	k    int
	opts core.Options

	// view is the current compacted summary (empty before the first
	// compaction: the buffer alone holds all mass). Its backing arrays live
	// in compactor's double-buffered output plus prefixBufs below.
	view summaryView
	// staged is the successor view built by stageLog and published by
	// installStaged — split so Sharded can run the heavy build off-lock and
	// the cheap install under its shard lock.
	staged   summaryView
	stagedOK bool
	// compactor owns the merging-run scratch; reusing it across compactions
	// is what makes the steady-state compaction path allocation-free.
	compactor core.SummaryScratch
	// prefixBufs double-buffers the prefix masses the same way the
	// compactor double-buffers partitions: stageLog writes the buffer the
	// live view is not reading.
	prefixBufs [2][]float64
	curPrefix  int
	// hist memoizes the materialized Summary() histogram until the next
	// compaction invalidates it.
	hist *core.Histogram

	// Buffered updates since the last compaction: a flat append-only log,
	// deduplicated (same point, summed weights) at compaction time. Compared
	// to the map it replaced, Add is one slice append — no hashing, no
	// re-hash churn at steady state once the backing array has grown to
	// bufferCap — and compaction iterates updates in a deterministic order.
	buffer []sparse.Entry
	// scratch holds the deduplicated buffer between compactions so the
	// dedup pass allocates nothing at steady state.
	scratch []sparse.Entry
	// sorter is the linear-time stable sort kernel behind dedupedBuffer,
	// owning its scatter/histogram scratch across compactions.
	sorter sparse.IndexSorter
	// bufferCap triggers compaction once len(buffer) reaches it. With the
	// append-only log this counts buffered *updates*, not distinct points,
	// so compaction cadence is independent of how concentrated the stream
	// is.
	bufferCap int
	// targetPieces is the merging target ⌊(2+2/δ)k+γ⌋; maxPieces is the lazy
	// recompaction threshold (lazyExpandFactor × target): an inline
	// compaction sweeps buffered deltas into the view with MergeIn and only
	// pays merging rounds once the refined piece count exceeds maxPieces,
	// so concentrated streams amortize the merge pause across many cheap
	// sweep-only cycles. Summary always re-merges down to targetPieces.
	targetPieces int
	maxPieces    int

	updates     int
	compactions int
	compactDur  durRing

	// win is the sealed-epoch ring of a windowed maintainer (see window.go);
	// nil on a plain maintainer, where every query covers the full history.
	win *windowRing
}

// resolveBufferCap applies the shared default: 0 or negative picks a buffer
// proportional to the summary size (8× the merging target, at least 64),
// which keeps the amortized per-update cost constant. A summary of [1, n]
// never holds more than n pieces, so a target past n counts as n: a huge k
// cannot ask for a buffer no allocation can hold. The default stays within
// codec.MaxInt, the largest buffer a checkpoint carries.
func resolveBufferCap(bufferCap, n, k int, opts core.Options) int {
	if bufferCap > 0 {
		return bufferCap
	}
	return min(codec.MaxInt, max(64, satMul(8, min(opts.TargetPieces(k), n))))
}

// satMul returns a·b for a, b ≥ 0, saturated at math.MaxInt.
func satMul(a, b int) int {
	if b != 0 && a > math.MaxInt/b {
		return math.MaxInt
	}
	return a * b
}

// NewMaintainer builds a maintainer for the domain [1, n] targeting k-piece
// summaries. bufferCap controls the compaction period; 0 picks a default
// proportional to the summary size (8× the merging target), which keeps the
// amortized per-update cost constant. n, k and bufferCap may not exceed
// codec.MaxInt, the largest value a checkpoint carries. The update log
// grows by append, so a huge bufferCap costs nothing up front.
func NewMaintainer(n, k, bufferCap int, opts core.Options) (*Maintainer, error) {
	if n < 1 || n > codec.MaxInt {
		return nil, fmt.Errorf("stream: domain size %d outside [1, %d], the largest a checkpoint carries", n, codec.MaxInt)
	}
	if k < 1 {
		return nil, fmt.Errorf("stream: k must be ≥ 1, got %d", k)
	}
	if max(k, bufferCap) > codec.MaxInt {
		return nil, fmt.Errorf("stream: k = %d, buffer capacity %d: neither may exceed %d, the largest value a checkpoint carries",
			k, bufferCap, codec.MaxInt)
	}
	target := opts.TargetPieces(k)
	return &Maintainer{
		n: n, k: k, opts: opts,
		bufferCap:    resolveBufferCap(bufferCap, n, k, opts),
		targetPieces: target,
		maxPieces:    satMul(lazyExpandFactor, target),
	}, nil
}

// lazyExpandFactor bounds how far past the merging target a maintained view
// may grow before an inline compaction pays for a full merging run. Lazy
// views keep every estimate exact-or-better (more pieces = a strictly finer
// summary of the same mass), cost O(log pieces) extra per range query, and
// bound staged-scratch memory at maxPieces + 2·bufferCap entries.
const lazyExpandFactor = 4

// Add records an update: the frequency of point i increases by w (w may be
// negative for deletions; the maintained vector may then go negative, which
// the summary represents faithfully).
func (m *Maintainer) Add(i int, w float64) error {
	if i < 1 || i > m.n {
		return fmt.Errorf("stream: point %d out of [1, %d]", i, m.n)
	}
	m.buffer = append(m.buffer, sparse.Entry{Index: i, Value: w})
	m.updates++
	if len(m.buffer) >= m.bufferCap {
		return m.Compact()
	}
	return nil
}

// AddBatch records points[i] += weights[i] for every i; a nil weights slice
// means unit weight for every point. The batch is validated up front (no
// partial ingestion on a bad point) and then appended in runs that exactly
// fill the buffer: the per-entry flush check and the weights-vs-unit branch
// of the old loop are hoisted out, so the inner loop is a bare append per
// entry, with one Compact per bufferCap entries — the same cadence (and
// bit-identical results) as calling Add once per point.
func (m *Maintainer) AddBatch(points []int, weights []float64) error {
	if weights != nil && len(weights) != len(points) {
		return fmt.Errorf("stream: %d weights for %d points", len(weights), len(points))
	}
	for _, p := range points {
		if p < 1 || p > m.n {
			return fmt.Errorf("stream: point %d out of [1, %d]", p, m.n)
		}
	}
	total := len(points)
	for len(points) > 0 {
		room := m.bufferCap - len(m.buffer)
		if room > len(points) {
			room = len(points)
		}
		if weights == nil {
			for _, p := range points[:room] {
				m.buffer = append(m.buffer, sparse.Entry{Index: p, Value: 1})
			}
		} else {
			for i, p := range points[:room] {
				m.buffer = append(m.buffer, sparse.Entry{Index: p, Value: weights[i]})
			}
			weights = weights[room:]
		}
		points = points[room:]
		if len(m.buffer) >= m.bufferCap {
			if err := m.Compact(); err != nil {
				return err
			}
		}
	}
	m.updates += total
	return nil
}

// Updates returns the number of updates ingested.
func (m *Maintainer) Updates() int { return m.updates }

// Compactions returns how many times the summary has been recompacted.
func (m *Maintainer) Compactions() int { return m.compactions }

// CompactionDurations appends the durations of the most recent compactions
// (up to 512) to dst and returns it — the raw material of the /metrics
// compaction quantiles: for the inline-compacting Maintainer every
// compaction is an ingest pause.
func (m *Maintainer) CompactionDurations(dst []time.Duration) []time.Duration {
	return m.compactDur.snapshot(dst)
}

// Compact folds the buffer into the summary now. It is called automatically
// when the buffer fills; callers only need it before reading an up-to-date
// Summary.
func (m *Maintainer) Compact() error {
	if len(m.buffer) == 0 {
		return nil
	}
	start := time.Now()
	if err := m.stageLog(m.buffer); err != nil {
		return err
	}
	m.installStaged()
	m.compactDur.add(time.Since(start))
	m.buffer = m.buffer[:0]
	return nil
}

// stageLog runs the heavy half of a compaction at the lazy threshold: most
// cycles are one radix sort + dedup + linear merge-in sweep, with merging
// rounds only when the refined view outgrows maxPieces.
func (m *Maintainer) stageLog(log []sparse.Entry) error {
	return m.stage(log, m.maxPieces)
}

// stage runs the heavy half of a compaction: radix-sort and dedup the update
// log, sweep it into the current summary view with core's incremental
// MergeIn (which runs merging rounds only if the refined piece count exceeds
// maxPieces — 0 forces a full merge down to the target), and compute the
// successor view's prefix masses — all into scratch the live view does not
// reference. It does not publish: installStaged flips the maintainer to the
// staged view. The split lets Sharded run the staging on a background
// goroutine while readers keep serving the old view, with only the cheap
// install inside the shard lock. The log is read, never retained or
// modified.
func (m *Maintainer) stage(log []sparse.Entry, maxPieces int) error {
	deltas := m.dedupedBuffer(log)
	res, err := m.compactor.MergeIn(m.n, m.view.part, m.view.values, deltas, m.k, maxPieces, m.opts)
	if err != nil {
		return err
	}
	pre := m.prefixBufs[1-m.curPrefix]
	if cap(pre) < len(res.Partition)+1 {
		pre = make([]float64, 0, len(res.Partition)+1)
	}
	pre = pre[:0]
	pre = append(pre, 0)
	for i, iv := range res.Partition {
		pre = append(pre, pre[i]+float64(iv.Len())*res.Values[i])
	}
	m.prefixBufs[1-m.curPrefix] = pre
	m.staged = summaryView{part: res.Partition, values: res.Values, prefix: pre, err: res.Error}
	m.stagedOK = true
	return nil
}

// installStaged publishes the view stageLog built. O(1): a few word writes,
// cheap enough to run under a shard lock.
func (m *Maintainer) installStaged() {
	if !m.stagedOK {
		return
	}
	m.curPrefix = 1 - m.curPrefix
	m.view = m.staged
	m.staged = summaryView{}
	m.stagedOK = false
	m.hist = nil
	m.compactions++
}

// compactLog folds an external update log into the summary synchronously:
// stage + install. Sharded's drain path uses it for the final sub-capacity
// buffer.
func (m *Maintainer) compactLog(log []sparse.Entry) error {
	if len(log) == 0 {
		return nil
	}
	start := time.Now()
	if err := m.stageLog(log); err != nil {
		return err
	}
	m.installStaged()
	m.compactDur.add(time.Since(start))
	return nil
}

// dedupedBuffer collapses the update log into entries sorted by point with
// duplicate points summed (in log order, so the float result is
// deterministic). Points whose deltas cancel to zero are kept — like the map
// buffer before it, a touched point stays a refinement singleton. The result
// lives in m.scratch and is valid until the next call. The sort is the
// stable linear-time kernel of sparse.IndexSorter (LSD radix, or counting
// sort when the domain is small relative to the log) — the comparison sort
// it replaced survives as the test oracle, and stability keeps the dedup
// sums bit-identical to it (TestDedupedBufferMatchesComparisonOracle).
func (m *Maintainer) dedupedBuffer(log []sparse.Entry) []sparse.Entry {
	dst := m.scratch[:0]
	dst = append(dst, log...)
	m.sorter.Sort(dst, m.n)
	out := dst[:0]
	for _, e := range dst {
		if len(out) > 0 && out[len(out)-1].Index == e.Index {
			out[len(out)-1].Value += e.Value
			continue
		}
		out = append(out, e)
	}
	m.scratch = dst
	return out
}

// EstimateRange returns the maintained vector's sum over [a, b] — summary
// mass plus pending buffered deltas — without forcing a compaction, so the
// serving path never pays a merging run. It is a one-range
// EstimateRangesOver: O(log pieces) for the summary (two binary searches
// plus a prefix-mass difference) plus one pass over the pending buffer,
// which holds fewer than bufferCap updates. Batches of ranges should go
// through EstimateRangesOver, which scans the buffer once per 64 ranges.
// On a windowed maintainer it covers every retained epoch, undecayed.
func (m *Maintainer) EstimateRange(a, b int) (float64, error) {
	return m.estimateOne(a, b, 0, 0)
}

// materialize returns the compacted summary as an immutable Histogram,
// memoized until the next compaction. Pending buffered updates are NOT
// included; callers compact first (Summary does).
func (m *Maintainer) materialize() *core.Histogram {
	if m.hist == nil {
		if m.view.empty() {
			m.hist = core.NewHistogram(m.n,
				interval.Partition{interval.New(1, m.n)}, []float64{0})
		} else {
			// NewHistogram copies, so the returned histogram survives any
			// number of later compactions recycling the view's arrays.
			m.hist = core.NewHistogram(m.n, m.view.part, m.view.values)
		}
	}
	return m.hist
}

// Summary returns the current O(k)-piece summary, compacting pending
// buffered updates first and re-merging a lazily expanded view down to the
// merging target. That last merge carries the √(1+δ)·opt guarantee against
// its own input, the summarized stream: the previous view plus the pending
// updates. It is no guarantee against the raw stream, because every earlier
// compaction flattened part of it and their errors add up. The returned
// histogram is immutable and remains valid after further updates.
func (m *Maintainer) Summary() (*core.Histogram, error) {
	if m.win != nil {
		// A windowed maintainer's plain summary covers every retained epoch,
		// undecayed.
		return m.SummaryOver(0, 0)
	}
	if err := m.compactFull(); err != nil {
		return nil, err
	}
	return m.materialize(), nil
}

// compactFull folds any pending buffer AND forces the merging rounds that
// lazy inline compactions may have deferred, leaving the view at or below
// the target piece budget. No-op when the buffer is empty and the view is
// already merged.
func (m *Maintainer) compactFull() error {
	if len(m.buffer) == 0 && len(m.view.part) <= m.targetPieces {
		return nil
	}
	start := time.Now()
	if err := m.stage(m.buffer, 0); err != nil {
		return err
	}
	m.installStaged()
	m.compactDur.add(time.Since(start))
	m.buffer = m.buffer[:0]
	return nil
}
