package stream

import (
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/interval"
	"repro/internal/parallel"
	"repro/internal/sparse"
)

// Sharded is the multi-core ingestion engine: point updates hash across P
// per-core shards, each an independently compacting Maintainer behind its
// own mutex, so concurrent producers contend only when they land on the
// same shard — and then only for the duration of a slice append.
//
// Compaction runs OFF the ingest path: every shard owns a double-buffered
// update log. When the active buffer fills it is handed to a background
// goroutine that folds it into the shard summary (dedup + refinement + one
// merging run) while producers keep appending to the other buffer. Add
// therefore never blocks on a merging run unless compaction falls a full
// buffer behind — those stalls are the "compaction pauses" Stats reports.
//
// The global summary is produced on demand by MergeAll: one sweep over the
// per-shard summaries' common refinement plus one recompaction (with a
// parallel aggregation tree beyond mergeFanout shards), so every Sharded
// summary carries the same merging guarantee a serial Maintainer certifies
// for its summarized stream.
//
// Determinism: hashing routes each point to a fixed shard, so for a fixed
// shard count a single producer feeding a fixed update order yields
// bit-identical global summaries across runs — background compaction
// changes *when* work happens, never its inputs. With concurrent producers
// the per-shard arrival order (and hence the floating-point dedup order) is
// scheduling-dependent, as for any concurrent aggregator.
//
// All methods are safe for concurrent use.
type Sharded struct {
	n, k   int
	opts   core.Options
	shards []*ingestShard
	// epoch identifies this engine instance for delta replication: version
	// counters are process-local and restart from zero, so a replica must
	// never compare vectors across two engine lives. Every construction path
	// (fresh, restored, delta-built) draws a fresh random epoch; a replica
	// seeing an unfamiliar epoch falls back to a full sync.
	epoch uint64
	// batchScratch recycles AddBatch's per-shard scatter buffers across
	// calls (and across concurrent batching producers).
	batchScratch sync.Pool
	// windowEpochs is the sliding-window span in epochs of a windowed engine
	// (every shard maintainer carries a ring of that span); 0 when plain.
	windowEpochs int
}

// ingestShard is one intake lane: the striped mutex, the double-buffered
// update log, and the shard's Maintainer (summary + compaction scratch).
type ingestShard struct {
	mu   sync.Mutex
	cond sync.Cond // broadcast when a background compaction finishes

	// active is the log producers append to (guarded by mu).
	active []sparse.Entry
	// spare is the idle half of the double buffer; nil while a background
	// compaction owns the other half. Both halves start nil and grow by
	// append to the flush threshold, then are recycled.
	spare []sparse.Entry
	// inflight is the log the background compaction is folding. Readers
	// under mu may scan it (the compaction only reads it too); it is reset
	// to nil when the compaction installs.
	inflight []sparse.Entry
	// compacting is true while a background compaction goroutine runs.
	compacting bool
	// err is the first background-compaction error; it poisons the shard
	// (all subsequent operations return it).
	err error

	// m holds the shard summary and compaction scratch. While compacting
	// is true the background goroutine owns m's scratch exclusively;
	// readers under mu may still serve m's installed view, because stageLog
	// writes only the double-buffered halves the view is not reading and
	// installStaged runs under mu.
	m *Maintainer
	// bufCap is the flush threshold. Compared against len(active), not
	// cap(active): a producer appending while another waits out a
	// compaction stall can grow the log past its initial capacity, and a
	// cap-based threshold would then ratchet the compaction period upward
	// permanently.
	bufCap int

	updates int
	// version counts state changes observable through a checkpoint capture:
	// it bumps on every pending-log mutation (Add/AddBatch append, delta
	// apply) and on every compaction install (background or synchronous
	// drain). Delta replication ships a shard exactly when its version moved
	// since the replica's last sync, so the counter must change iff the
	// captured (view, pending log, counters) tuple could have.
	version uint64

	pauses   durRing // Add-side stalls waiting for a free log buffer
	compacts durRing // background compaction durations
}

// NewSharded builds a sharded maintainer over [1, n] targeting k-piece
// global summaries. shards ≤ 0 picks one shard per core (GOMAXPROCS);
// bufferCap is the per-shard compaction period (0 picks the same default as
// NewMaintainer). opts.Workers additionally parallelizes the merging runs
// themselves and the Summary aggregation tree.
func NewSharded(n, k, shards, bufferCap int, opts core.Options) (*Sharded, error) {
	p := parallel.Resolve(shards)
	s := &Sharded{n: n, k: k, opts: opts, shards: make([]*ingestShard, p), epoch: newEpoch()}
	for i := range s.shards {
		m, err := NewMaintainer(n, k, bufferCap, opts)
		if err != nil {
			return nil, err
		}
		sh := &ingestShard{m: m, bufCap: m.bufferCap}
		sh.cond.L = &sh.mu
		s.shards[i] = sh
	}
	s.batchScratch.New = func() any {
		return &batchScratch{per: make([][]sparse.Entry, p)}
	}
	return s, nil
}

// newEpoch draws a random engine-instance identifier. Collisions across a
// fleet would merely delay convergence by one full sync, so 64 random bits
// are plenty; zero is reserved as "no epoch known".
func newEpoch() uint64 {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is effectively fatal elsewhere; here a fixed
		// nonzero epoch only costs replicas a spurious full sync.
		return 1
	}
	e := binary.LittleEndian.Uint64(b[:])
	if e == 0 {
		e = 1
	}
	return e
}

// Shards returns the shard count P.
func (s *Sharded) Shards() int { return len(s.shards) }

// Epoch identifies this engine instance for delta replication. Shard version
// counters are only comparable within one epoch; a restored or rebuilt engine
// carries a fresh epoch, telling replicas their tracked vectors are stale.
func (s *Sharded) Epoch() uint64 { return s.epoch }

// Versions appends every shard's current version counter to dst (reset to
// length zero first) and returns it — the engine's fleet version vector.
// Each counter is read under its shard lock, so vector entry i is exactly
// the version a checkpoint capturing shard i at that moment would record.
func (s *Sharded) Versions(dst []uint64) []uint64 {
	dst = dst[:0]
	for _, sh := range s.shards {
		sh.mu.Lock()
		dst = append(dst, sh.version)
		sh.mu.Unlock()
	}
	return dst
}

// ShardOf returns the shard index point i routes to — exported so benchmarks
// and replication tests can construct workloads that touch a chosen subset of
// shards. Routing is a pure function of (i, shard count).
func (s *Sharded) ShardOf(i int) int { return s.shardFor(i) }

// shardFor routes a point to its shard: Fibonacci hashing spreads
// consecutive points across shards (so a hot band doesn't serialize on one
// lock) while keeping every update of one point on one shard (so dedup and
// refinement singletons stay shard-local). Pure function of (i, P): routing
// is deterministic across runs.
func (s *Sharded) shardFor(i int) int {
	h := uint64(i) * 0x9e3779b97f4a7c15
	return int((h >> 33) % uint64(len(s.shards)))
}

// Add records an update: the frequency of point i increases by w (negative
// w deletes). It appends to the target shard's active log under the shard
// lock and returns immediately; compaction happens in the background.
func (s *Sharded) Add(i int, w float64) error {
	if i < 1 || i > s.n {
		return fmt.Errorf("stream: point %d out of [1, %d]", i, s.n)
	}
	sh := s.shards[s.shardFor(i)]
	sh.mu.Lock()
	err := sh.addLocked(sparse.Entry{Index: i, Value: w})
	sh.mu.Unlock()
	return err
}

// batchScratch is AddBatch's pooled scatter area: one staging slice per
// shard, capacities retained across calls.
type batchScratch struct {
	per [][]sparse.Entry
}

// AddBatch records points[i] += weights[i] for every i (nil weights = unit
// weight). The batch is validated up front, scattered by shard into pooled
// staging buffers, and appended to each touched shard with ONE lock
// acquisition per shard — the no-cross-shard-contention bulk path: P
// producers ingesting batches touch each shard lock once per batch instead
// of once per update.
func (s *Sharded) AddBatch(points []int, weights []float64) error {
	if weights != nil && len(weights) != len(points) {
		return fmt.Errorf("stream: %d weights for %d points", len(weights), len(points))
	}
	for _, p := range points {
		if p < 1 || p > s.n {
			return fmt.Errorf("stream: point %d out of [1, %d]", p, s.n)
		}
	}
	bs := s.batchScratch.Get().(*batchScratch)
	w := 1.0
	for i, p := range points {
		if weights != nil {
			w = weights[i]
		}
		si := s.shardFor(p)
		bs.per[si] = append(bs.per[si], sparse.Entry{Index: p, Value: w})
	}
	var firstErr error
	for si, entries := range bs.per {
		if len(entries) == 0 {
			continue
		}
		if firstErr == nil {
			sh := s.shards[si]
			sh.mu.Lock()
			firstErr = sh.addBatchLocked(entries)
			sh.mu.Unlock()
		}
		bs.per[si] = entries[:0]
	}
	s.batchScratch.Put(bs)
	return firstErr
}

func (sh *ingestShard) addLocked(e sparse.Entry) error {
	if sh.err != nil {
		return sh.err
	}
	sh.active = append(sh.active, e)
	sh.updates++
	sh.version++
	if len(sh.active) >= sh.bufCap {
		sh.flushLocked()
	}
	return sh.err
}

func (sh *ingestShard) addBatchLocked(es []sparse.Entry) error {
	if sh.err != nil {
		return sh.err
	}
	for len(es) > 0 {
		room := sh.bufCap - len(sh.active)
		if room > len(es) {
			room = len(es)
		}
		if room > 0 {
			sh.active = append(sh.active, es[:room]...)
			sh.updates += room
			sh.version++
			es = es[room:]
		}
		if len(sh.active) >= sh.bufCap {
			sh.flushLocked()
			if sh.err != nil {
				return sh.err
			}
		}
	}
	return nil
}

// flushLocked hands the filled active log to a background compaction and
// swaps in the spare buffer. If the previous compaction is still running —
// intake is a full buffer ahead of compaction — it waits for it first;
// that wait is the only way ingest ever blocks on a merging run, and its
// duration is recorded as a pause.
func (sh *ingestShard) flushLocked() {
	if len(sh.active) == 0 || sh.err != nil {
		return
	}
	if sh.compacting {
		start := time.Now()
		for sh.compacting {
			sh.cond.Wait()
		}
		sh.pauses.add(time.Since(start))
		if sh.err != nil {
			return
		}
		// Re-check: another producer waiting on the same stall may have
		// flushed the log we came for while we slept. Only a still-full
		// active buffer is worth a merging run — flushing the fresh
		// sub-capacity log would shorten the compaction period and waste a
		// run on (possibly zero) entries.
		if len(sh.active) < sh.bufCap {
			return
		}
	}
	full := sh.active
	sh.active = sh.spare[:0]
	sh.spare = nil
	sh.inflight = full
	sh.compacting = true
	go sh.backgroundCompact(full)
}

// backgroundCompact folds one log into the shard summary off the ingest
// path: the heavy stage runs without the lock (readers keep serving the old
// view; producers keep filling the other buffer), then the O(1) install and
// buffer recycling run under it.
func (sh *ingestShard) backgroundCompact(log []sparse.Entry) {
	start := time.Now()
	err := sh.m.stageLog(log)
	sh.mu.Lock()
	if err != nil {
		if sh.err == nil {
			sh.err = err
		}
	} else {
		sh.m.installStaged()
		// The install changes the captured state (view swapped, in-flight
		// log absorbed) without any producer action, so it must bump the
		// version for delta replication to ship the compacted form.
		sh.version++
	}
	sh.compacts.add(time.Since(start))
	sh.spare = log[:0]
	sh.inflight = nil
	sh.compacting = false
	sh.cond.Broadcast()
	sh.mu.Unlock()
}

// drainLocked waits out any background compaction and folds the remaining
// active log synchronously, leaving the shard's installed view up to date.
func (sh *ingestShard) drainLocked() error {
	for sh.compacting {
		sh.cond.Wait()
	}
	if sh.err != nil {
		return sh.err
	}
	if len(sh.active) > 0 {
		if err := sh.m.compactLog(sh.active); err != nil {
			sh.err = err
			return err
		}
		sh.active = sh.active[:0]
		sh.version++
	}
	return nil
}

// EstimateRange returns the maintained vector's sum over [a, b]: installed
// per-shard summary mass plus every pending update (active log and any log
// currently being folded), so no mass is ever missing or double-counted.
// It never forces or waits for a compaction. It is a one-range
// EstimateRangesOver: per shard, O(log pieces) plus one pass over that
// shard's pending updates (fewer than 2·bufferCap). Batches of ranges
// should go through EstimateRangesOver, which takes each shard lock and
// scans each pending log once per 64 ranges. On a windowed engine it covers
// every retained epoch, undecayed.
func (s *Sharded) EstimateRange(a, b int) (float64, error) {
	return s.estimateOne(a, b, 0, 0)
}

// Summary drains every shard (waiting out in-flight compactions, folding
// leftover buffers) and merges the per-shard summaries into one O(k)-piece
// global summary via MergeAll. The result is immutable. Under concurrent
// ingestion the snapshot is per-shard consistent: each shard contributes
// every update it had absorbed when visited.
func (s *Sharded) Summary() (*core.Histogram, error) {
	if s.windowEpochs > 0 {
		// A windowed engine's plain summary covers every retained epoch,
		// undecayed.
		return s.SummaryOver(0, 0)
	}
	hs := make([]*core.Histogram, 0, len(s.shards))
	for _, sh := range s.shards {
		sh.mu.Lock()
		err := sh.drainLocked()
		var h *core.Histogram
		if err == nil && !sh.m.view.empty() {
			h = sh.m.materialize()
		}
		sh.mu.Unlock()
		if err != nil {
			return nil, err
		}
		if h != nil {
			hs = append(hs, h)
		}
	}
	if len(hs) == 0 {
		// No shard has compacted mass: the zero histogram.
		return core.NewHistogram(s.n,
			interval.Partition{interval.New(1, s.n)}, []float64{0}), nil
	}
	return MergeAll(hs, s.k, s.opts)
}

// Updates returns the total number of updates ingested across shards.
func (s *Sharded) Updates() int {
	total := 0
	for _, sh := range s.shards {
		sh.mu.Lock()
		total += sh.updates
		sh.mu.Unlock()
	}
	return total
}

// Compactions returns the total number of compactions run across shards.
func (s *Sharded) Compactions() int {
	total := 0
	for _, sh := range s.shards {
		sh.mu.Lock()
		total += sh.m.compactions
		sh.mu.Unlock()
	}
	return total
}

// IngestStats is a point-in-time snapshot of the engine's ingestion
// behaviour — the raw material of the /metrics ingest families and
// perfbench's stream.* metrics.
type IngestStats struct {
	Shards      int
	Updates     int
	Compactions int
	// PauseCount is the exact total number of ingest stalls: times
	// Add/AddBatch waited because compaction was a full buffer behind.
	// Zero when compaction keeps up — the "Add never blocks on a merging
	// run" steady state.
	PauseCount int
	// CompactionDurations holds the most recent compaction durations: the
	// work per flushed buffer, up to 512 background plus 512 synchronous
	// drain compactions per shard (two rings). Percentiles computed from
	// it cover that recent window, while Compactions counts every event.
	CompactionDurations []time.Duration
	// Pauses holds the most recent ingest-stall durations (up to 512 per
	// shard); PauseCount carries the exact total.
	Pauses []time.Duration
}

// Stats snapshots the ingestion counters and recent durations.
func (s *Sharded) Stats() IngestStats {
	st := IngestStats{Shards: len(s.shards)}
	for _, sh := range s.shards {
		sh.mu.Lock()
		st.Updates += sh.updates
		st.Compactions += sh.m.compactions
		st.PauseCount += sh.pauses.count()
		st.CompactionDurations = sh.compacts.snapshot(st.CompactionDurations)
		st.CompactionDurations = sh.m.compactDur.snapshot(st.CompactionDurations)
		st.Pauses = sh.pauses.snapshot(st.Pauses)
		sh.mu.Unlock()
	}
	return st
}
