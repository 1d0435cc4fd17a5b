package stream

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/interval"
)

// Windowed and time-decayed streams.
//
// A windowed engine partitions its stream into epochs: the caller (or a
// timer above the engine) calls Advance at each epoch boundary, which seals
// the current epoch's summary into a ring of per-epoch histograms and
// resets the live maintainer to empty. The engine retains the last
// WindowEpochs epochs — the current (live) epoch plus up to WindowEpochs−1
// sealed ones — and answers queries over any suffix of them:
//
//   - EstimateRangeOver(a, b, window, halflife) sums the newest `window`
//     epochs (0 = every retained epoch), scaling each sealed epoch's mass by
//     the exponential-decay factor 2^(−age/halflife) for its age in epochs
//     (0 = off). The live epoch has age 0, so its factor is exactly 1 and
//     undecayed answers are bit-identical to the unscaled sum.
//   - SummaryOver merges the same scaled per-epoch summaries into one
//     O(k)-piece histogram with the k-way MergeAll sweep.
//
// Why this composes cleanly with the paper's machinery: the merging
// guarantee is scale-invariant — scaling every input mass by c scales both
// the summary's error and the optimum by c, so a c-scaled summary of an
// epoch IS a √(1+δ)·opt summary of the c-scaled epoch. Applying the decay
// factor to each sealed epoch's summary as it enters the window merge is
// therefore exactly "scale summary masses by the elapsed-time factor at
// compaction": the window merge is the compaction, and the guarantee
// survives untouched.
//
// Determinism: an epoch's sealed summary is bit-identical to what a fresh
// Maintainer fed exactly that epoch's updates would produce — Advance
// resets the view and buffer to the fresh state, so compaction groupings
// inside an epoch never depend on earlier epochs. The window property tests
// pin windowed answers against exactly that brute-force re-fit oracle.

// windowRing is the epoch ring of a windowed maintainer: the sealed
// per-epoch summaries (immutable histograms, oldest first) plus the epoch
// counter. nil on a plain (non-windowed) maintainer.
type windowRing struct {
	// epochs is the configured window span W: queries cover the live epoch
	// plus up to W−1 sealed ones, and older slots are dropped at Advance.
	epochs int
	// tick counts completed epochs (Advance calls) over the engine's life.
	tick uint64
	// slots holds the sealed epoch summaries, oldest first; len ≤ epochs−1.
	// Each is immutable (core.NewHistogram copies), so snapshots and merges
	// may share the pointers.
	slots []*core.Histogram
}

// included returns the sealed slots a window of the given span covers: the
// newest window−1 of them (the live epoch is the window's first epoch), or
// every retained slot when window is 0.
func (r *windowRing) included(window int) []*core.Histogram {
	if window <= 0 || window-1 >= len(r.slots) {
		return r.slots
	}
	return r.slots[len(r.slots)-(window-1):]
}

// decayFactor is the exponential-decay weight of an epoch aged `age` epochs
// (the live epoch is age 0): 2^(−age/halflife). halflife ≤ 0 disables decay.
// Age 0 yields exactly 1, so the live epoch is never scaled.
func decayFactor(age int, halflife float64) float64 {
	if halflife <= 0 || age == 0 {
		return 1
	}
	return math.Exp2(-float64(age) / halflife)
}

// checkOver validates the windowed-query parameters against the ring.
func (r *windowRing) checkOver(window int, halflife float64) error {
	if r == nil {
		return errNotWindowed
	}
	return checkWindow(r.epochs, window, halflife)
}

// NewWindowedMaintainer builds a windowed maintainer over [1, n] targeting
// k-piece summaries and retaining a sliding window of `epochs` epochs (the
// live one plus epochs−1 sealed). Call Advance at each epoch boundary.
// bufferCap and opts follow NewMaintainer.
func NewWindowedMaintainer(n, k, epochs, bufferCap int, opts core.Options) (*Maintainer, error) {
	if epochs < 1 {
		return nil, fmt.Errorf("stream: window of %d epochs (want ≥ 1)", epochs)
	}
	m, err := NewMaintainer(n, k, bufferCap, opts)
	if err != nil {
		return nil, err
	}
	m.win = newWindowRing(epochs)
	return m, nil
}

func newWindowRing(epochs int) *windowRing {
	return &windowRing{epochs: epochs}
}

// Windowed reports whether the maintainer retains a sliding epoch window.
func (m *Maintainer) Windowed() bool { return m.win != nil }

// WindowEpochs returns the configured window span in epochs (0 on a plain
// maintainer).
func (m *Maintainer) WindowEpochs() int {
	if m.win == nil {
		return 0
	}
	return m.win.epochs
}

// Tick returns how many epochs have completed (Advance calls).
func (m *Maintainer) Tick() uint64 {
	if m.win == nil {
		return 0
	}
	return m.win.tick
}

// Advance seals the current epoch and starts the next one: pending updates
// are compacted, the epoch's O(k)-piece summary is pushed onto the ring
// (dropping the oldest slot once WindowEpochs−1 are retained), and the live
// maintainer resets to empty — so the new epoch's compaction groupings are
// bit-identical to a fresh maintainer's, the property the re-fit oracle
// tests rely on.
func (m *Maintainer) Advance() error {
	if m.win == nil {
		return fmt.Errorf("stream: Advance on a non-windowed engine")
	}
	if err := m.compactFull(); err != nil {
		return err
	}
	sealed := m.materialize()
	r := m.win
	if r.epochs > 1 {
		if len(r.slots) == r.epochs-1 {
			copy(r.slots, r.slots[1:])
			r.slots = r.slots[:len(r.slots)-1]
		}
		r.slots = append(r.slots, sealed)
	}
	r.tick++
	m.view = summaryView{}
	m.hist = nil
	return nil
}

// EstimateRangeOver answers a range sum over the newest `window` epochs
// (0 = every retained epoch), scaling each sealed epoch's mass by
// 2^(−age/halflife) (halflife 0 = no decay; the live epoch has age 0 and is
// never scaled). With window 0 and halflife 0 it equals EstimateRange. It is
// a one-range EstimateRangesOver; it rejects a plain maintainer.
func (m *Maintainer) EstimateRangeOver(a, b, window int, halflife float64) (float64, error) {
	if err := m.win.checkOver(window, halflife); err != nil {
		return 0, err
	}
	return m.estimateOne(a, b, window, halflife)
}

// scaleHist returns h with every piece value (hence every mass) scaled by f,
// sharing h itself when f is exactly 1. The result is immutable.
func scaleHist(h *core.Histogram, f float64) *core.Histogram {
	if f == 1 {
		return h
	}
	pieces := h.Pieces()
	vals := make([]float64, len(pieces))
	for i, pc := range pieces {
		vals[i] = f * pc.Value
	}
	return core.NewHistogram(h.N(), h.Partition(), vals)
}

// windowSummaries appends the (scaled) per-epoch summaries a window covers —
// sealed slots oldest first, then the live epoch's materialized summary —
// ready for one MergeAll sweep. The caller must have compacted the live
// epoch (compactFull / drain) first.
func (m *Maintainer) windowSummaries(dst []*core.Histogram, window int, halflife float64) []*core.Histogram {
	slots := m.win.included(window)
	for i, h := range slots {
		dst = append(dst, scaleHist(h, decayFactor(len(slots)-i, halflife)))
	}
	if !m.view.empty() {
		dst = append(dst, m.materialize())
	}
	return dst
}

// SummaryOver merges the window's per-epoch summaries — each sealed epoch
// scaled by its decay factor — into one O(k)-piece histogram with the k-way
// MergeAll sweep. window 0 covers every retained epoch; halflife 0 disables
// decay. The scale-invariance of the merging guarantee means the result is
// a √(1+δ)·opt summary of the decayed window stream.
func (m *Maintainer) SummaryOver(window int, halflife float64) (*core.Histogram, error) {
	if err := m.win.checkOver(window, halflife); err != nil {
		return nil, err
	}
	if err := m.compactFull(); err != nil {
		return nil, err
	}
	hs := m.windowSummaries(nil, window, halflife)
	if len(hs) == 0 {
		return zeroHistogram(m.n), nil
	}
	return MergeAll(hs, m.k, m.opts)
}

func zeroHistogram(n int) *core.Histogram {
	return core.NewHistogram(n, interval.Partition{interval.New(1, n)}, []float64{0})
}

// --- Sharded windowed engine. ---

// NewWindowedSharded builds a sharded windowed maintainer: every shard
// retains its own epoch ring, advanced in lockstep by Advance. Parameters
// follow NewSharded plus the window span in epochs.
func NewWindowedSharded(n, k, epochs, shards, bufferCap int, opts core.Options) (*Sharded, error) {
	if epochs < 1 {
		return nil, fmt.Errorf("stream: window of %d epochs (want ≥ 1)", epochs)
	}
	s, err := NewSharded(n, k, shards, bufferCap, opts)
	if err != nil {
		return nil, err
	}
	s.windowEpochs = epochs
	for _, sh := range s.shards {
		sh.m.win = newWindowRing(epochs)
	}
	return s, nil
}

// Windowed reports whether the engine retains a sliding epoch window.
func (s *Sharded) Windowed() bool { return s.windowEpochs > 0 }

// WindowEpochs returns the configured window span in epochs (0 when plain).
func (s *Sharded) WindowEpochs() int { return s.windowEpochs }

// Tick returns how many epochs have completed (Advance calls). Shards
// advance in lockstep, so one shard's counter is the engine's.
func (s *Sharded) Tick() uint64 {
	if s.windowEpochs == 0 {
		return 0
	}
	sh := s.shards[0]
	sh.mu.Lock()
	t := sh.m.win.tick
	sh.mu.Unlock()
	return t
}

// Advance seals the current epoch on every shard: each shard is drained
// (in-flight compaction waited out, pending log folded) and its maintainer
// advanced under the shard lock, bumping the shard version so delta
// replication ships the rotated ring. Concurrent producers see a per-shard
// epoch boundary, the same consistency Summary and Snapshot offer.
//
// A per-shard failure does not stop the sweep: the remaining shards are
// still sealed so the healthy rings stay in lockstep (Tick reads shard 0),
// and the joined errors are returned. A failed shard is poisoned (its err
// is sticky), so every later ingest or query touching it keeps failing —
// windowed answers from the engine are unspecified after a non-nil Advance.
func (s *Sharded) Advance() error {
	if s.windowEpochs == 0 {
		return fmt.Errorf("stream: Advance on a non-windowed engine")
	}
	var errs []error
	for _, sh := range s.shards {
		sh.mu.Lock()
		err := sh.drainLocked()
		if err == nil {
			if err = sh.m.Advance(); err != nil {
				sh.err = err
			}
		}
		if err == nil {
			sh.version++
		}
		sh.mu.Unlock()
		if err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// EstimateRangeOver answers a range sum over the newest `window` epochs
// across every shard (0 = every retained epoch), with each sealed epoch's
// mass scaled by 2^(−age/halflife). Like EstimateRange it never forces or
// waits for a compaction: it is a one-range EstimateRangesOver, which reads
// each shard's ring, installed view and pending logs under the shard lock.
// It rejects a plain engine.
func (s *Sharded) EstimateRangeOver(a, b, window int, halflife float64) (float64, error) {
	if s.windowEpochs == 0 {
		return 0, errNotWindowed
	}
	return s.estimateOne(a, b, window, halflife)
}

// SummaryOver drains every shard and merges the window's per-epoch, per-shard
// summaries — sealed epochs scaled by their decay factors — into one
// O(k)-piece global summary with MergeAll. window 0 covers every retained
// epoch; halflife 0 disables decay.
func (s *Sharded) SummaryOver(window int, halflife float64) (*core.Histogram, error) {
	if s.windowEpochs == 0 {
		return nil, fmt.Errorf("stream: windowed summary on a non-windowed engine")
	}
	if err := checkWindow(s.windowEpochs, window, halflife); err != nil {
		return nil, err
	}
	var hs []*core.Histogram
	for _, sh := range s.shards {
		sh.mu.Lock()
		err := sh.drainLocked()
		if err == nil {
			// Sealed slots are immutable and scaleHist copies when scaling,
			// so the collected histograms are safe to merge outside the lock.
			hs = sh.m.windowSummaries(hs, window, halflife)
		}
		sh.mu.Unlock()
		if err != nil {
			return nil, err
		}
	}
	if len(hs) == 0 {
		return zeroHistogram(s.n), nil
	}
	return MergeAll(hs, s.k, s.opts)
}
