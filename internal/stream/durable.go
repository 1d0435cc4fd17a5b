package stream

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/wal"
)

// This file is the durability layer over the streaming engine: a
// DurableSharded is a Sharded engine plus a write-ahead log, so a crash
// loses at most the WAL's configured fsync window instead of everything
// since the last full snapshot. It is the only write-ahead-logged engine; a
// single-lane durable engine is a DurableSharded with one shard.
//
// The invariant the locking protects: every update is appended to the WAL
// BEFORE it is applied to the engine, and a checkpoint captures the engine
// only when no update is between those two steps. Ingest holds the RWMutex
// read side (concurrent with each other — the WAL's group commit does the
// coalescing); a checkpoint rotates the log first and then takes the write
// side only for the in-memory capture (stream.Checkpoint, non-blocking), so
// the boundary sequence number exactly covers the captured state. The
// expensive half — encoding the snapshot and committing the manifest —
// happens outside the lock while ingestion continues. A second mutex,
// ckptMu, admits one checkpoint at a time, whatever triggered it: the count
// trigger and the ticker skip their turn while one runs, and Checkpoint and
// Close wait for it.
//
// Recovery is one pass of wal.Open over the log: it restores the manifest's
// snapshot, NORMALIZES the restored pending logs (below), and replays each
// record past the checkpoint through the ordinary ingest path as the log is
// read, so every record is decoded once. It then cuts a fresh checkpoint. A
// recovery that fails on the snapshot or on a record discards the half-built
// engine and leaves the directory as it was. Normalization is what makes
// recovery bit-identical: stream.Checkpoint demotes an in-flight
// compaction's log back to pending, so a restored shard can hold more than
// one compaction period of pending updates; folding prefix chunks of
// exactly bufCap re-aligns the compaction boundaries with the ones the
// uninterrupted run used, and compaction grouping is the only thing
// floating-point results are sensitive to. With a single producer the
// recovered engine's summaries, compaction counters, and EstimateRange
// answers are therefore bit-identical to an uninterrupted run over the same
// prefix — the property the crash tests assert.

// DurableOptions tunes the durability layer.
type DurableOptions struct {
	// Dir is the WAL directory (required).
	Dir string
	// SyncEvery / SyncInterval set the WAL's fsync batching (see
	// wal.Options). SyncEvery = 1 makes every ingest call wait for a
	// group-commit fsync.
	SyncEvery    int
	SyncInterval time.Duration
	// CheckpointEvery cuts a checkpoint after that many logged ingest calls
	// (0 picks DefaultCheckpointEvery; negative disables count-triggered
	// checkpoints).
	CheckpointEvery int
	// CheckpointInterval additionally cuts checkpoints on a timer when > 0.
	CheckpointInterval time.Duration
	// OpenFile is the WAL's segment-file opener override (fault injection).
	OpenFile wal.OpenFileFunc
	// WindowEpochs, when ≥ 1, creates a windowed engine retaining that many
	// epochs (see NewWindowedSharded); epoch boundaries are durably logged
	// as empty WAL records by Advance. Only the create paths read it —
	// recovery restores the span from the checkpoint.
	WindowEpochs int
}

// DefaultCheckpointEvery is the default checkpoint cadence in ingest calls.
// Each call is typically a batch, so the WAL tail replayed after a crash
// stays bounded without snapshotting so often that checkpoint encoding
// competes with ingest.
const DefaultCheckpointEvery = 4096

func (o DurableOptions) checkpointEvery() int {
	if o.CheckpointEvery == 0 {
		return DefaultCheckpointEvery
	}
	if o.CheckpointEvery < 0 {
		return 0
	}
	return o.CheckpointEvery
}

func (o DurableOptions) walOptions() wal.Options {
	return wal.Options{SyncEvery: o.SyncEvery, SyncInterval: o.SyncInterval, OpenFile: o.OpenFile}
}

// DurableStats extends the engine's ingestion stats with the durability
// layer's counters.
type DurableStats struct {
	Ingest IngestStats
	WAL    wal.Stats
	// Checkpoints counts committed checkpoints; Replayed is how many WAL
	// records recovery replayed when this engine was opened.
	Checkpoints int64
	Replayed    int
	// CheckpointDurations holds the most recent checkpoint wall times
	// (capture + encode + commit).
	CheckpointDurations []time.Duration
}

// DurableSharded is a Sharded engine whose ingest calls are write-ahead
// logged. All methods are safe for concurrent use.
type DurableSharded struct {
	// mu orders appends against checkpoints and epoch seals: ingest holds it
	// shared (the log-then-apply pair must not straddle a checkpoint capture),
	// a checkpoint holds it exclusive only for the capture, and Advance
	// holds it exclusive so the epoch marker's log position matches the ring
	// rotation exactly (see Advance).
	mu   sync.RWMutex
	s    *Sharded
	log  *wal.Log
	opts DurableOptions

	// ckptMu serializes whole checkpoints: two rotate-capture-commit
	// sequences must not interleave, or an older manifest could land after
	// a newer one.
	ckptMu    sync.Mutex
	sinceCkpt atomic.Int64
	wg        sync.WaitGroup
	stop      chan struct{}
	closed    atomic.Bool

	checkpoints atomic.Int64
	replayed    int

	statsMu sync.Mutex
	ckptDur durRing
}

// NewDurableSharded builds a fresh engine with a fresh WAL in opts.Dir,
// committing an initial (empty) checkpoint. It fails if the directory
// already holds a log — use RecoverDurableSharded or OpenDurableSharded.
func NewDurableSharded(n, k, shards, bufferCap int, copts core.Options, opts DurableOptions) (*DurableSharded, error) {
	var s *Sharded
	var err error
	if opts.WindowEpochs >= 1 {
		s, err = NewWindowedSharded(n, k, opts.WindowEpochs, shards, bufferCap, copts)
	} else {
		s, err = NewSharded(n, k, shards, bufferCap, copts)
	}
	if err != nil {
		return nil, err
	}
	l, err := wal.Create(opts.Dir, opts.walOptions(), func(w io.Writer) error {
		return s.Snapshot(w)
	})
	if err != nil {
		return nil, err
	}
	return newDurableSharded(s, l, opts, 0), nil
}

// RecoverDurableSharded reopens the WAL in opts.Dir in one pass of
// wal.Open: it restores the manifest's snapshot, re-aligns compaction
// cadence, and replays each logged record past the checkpoint through the
// ordinary ingest path as the log is read. It then commits a fresh
// checkpoint so the next restart replays nothing.
func RecoverDurableSharded(opts DurableOptions) (*DurableSharded, error) {
	var s *Sharded
	replayed := 0
	l, _, err := wal.Open(opts.Dir, opts.walOptions(), func(r io.Reader) error {
		var err error
		if s, err = RestoreSharded(r); err != nil {
			return err
		}
		return normalizeRestoredCadence(s)
	}, func(r wal.Record) error {
		replayed++
		// An empty record is an epoch-boundary marker (only Advance logs
		// one: ingest calls early-return on empty batches before logging).
		if len(r.Points) == 0 {
			return s.Advance()
		}
		return s.AddBatch(r.Points, r.Weights)
	})
	if err != nil {
		return nil, err
	}
	d := newDurableSharded(s, l, opts, replayed)
	// Fold the replayed tail into a fresh checkpoint immediately: repeated
	// crash/recover cycles then never re-replay an ever-growing tail, and
	// the torn-tail truncation (if any) is superseded on disk.
	if replayed > 0 {
		if err := d.Checkpoint(); err != nil {
			d.Close()
			return nil, err
		}
	}
	return d, nil
}

// OpenDurableSharded recovers the WAL in opts.Dir if one exists and creates
// a fresh engine (with the given parameters) otherwise — the open-or-create
// a serving process wants at boot. The engine parameters are only used on
// the create path; a recovered engine keeps its checkpointed configuration.
func OpenDurableSharded(n, k, shards, bufferCap int, copts core.Options, opts DurableOptions) (*DurableSharded, error) {
	if wal.Exists(opts.Dir) {
		return RecoverDurableSharded(opts)
	}
	return NewDurableSharded(n, k, shards, bufferCap, copts, opts)
}

func newDurableSharded(s *Sharded, l *wal.Log, opts DurableOptions, replayed int) *DurableSharded {
	d := &DurableSharded{s: s, log: l, opts: opts, stop: make(chan struct{}), replayed: replayed}
	if opts.CheckpointInterval > 0 {
		d.wg.Add(1)
		go d.checkpointTicker()
	}
	return d
}

// normalizeRestoredCadence re-aligns a restored engine's compaction
// boundaries with the uninterrupted run's. RestoreSharded leaves every
// captured pending update in the shard's active log; when the checkpoint
// caught a compaction in flight that log holds more than one compaction
// period, and folding it as one oversized chunk would group the
// floating-point work differently than the original bufCap-sized chunks.
// Folding prefix chunks of exactly bufCap reproduces the original
// boundaries (a shard's pending log always starts at a bufCap-aligned
// arrival offset, because flushes hand off exactly full buffers).
func normalizeRestoredCadence(s *Sharded) error {
	for _, sh := range s.shards {
		for len(sh.active) >= sh.bufCap {
			if err := sh.m.compactLog(sh.active[:sh.bufCap]); err != nil {
				sh.err = err
				return err
			}
			sh.active = append(sh.active[:0], sh.active[sh.bufCap:]...)
		}
	}
	return nil
}

// Engine returns the underlying Sharded engine for queries. Mutating it
// directly (Add/AddBatch on the engine) bypasses the WAL — route all
// ingestion through the DurableSharded.
func (d *DurableSharded) Engine() *Sharded { return d.s }

// Replayed returns how many WAL records recovery replayed at open.
func (d *DurableSharded) Replayed() int { return d.replayed }

// Add records one update durably: a one-point AddBatch.
func (d *DurableSharded) Add(i int, w float64) error {
	pts, ws := [1]int{i}, [1]float64{w}
	return d.AddBatch(pts[:], ws[:])
}

// AddBatch records one batch durably (nil weights = unit weights). The
// batch is validated before it is logged, so every logged record replays
// cleanly.
func (d *DurableSharded) AddBatch(points []int, weights []float64) error {
	if weights != nil && len(weights) != len(points) {
		return fmt.Errorf("stream: %d weights for %d points", len(weights), len(points))
	}
	for _, p := range points {
		if p < 1 || p > d.s.n {
			return fmt.Errorf("stream: point %d out of [1, %d]", p, d.s.n)
		}
	}
	if len(points) == 0 {
		return nil
	}
	d.mu.RLock()
	if _, err := d.log.Append(points, weights); err != nil {
		d.mu.RUnlock()
		return err
	}
	err := d.s.AddBatch(points, weights)
	d.mu.RUnlock()
	if err != nil {
		return err
	}
	d.maybeCheckpoint()
	return nil
}

// Advance durably seals the current epoch on a windowed engine: the
// boundary is logged as an empty WAL record before the ring rotates, so
// recovery replays it in sequence and resumes the ring bit-identically.
//
// Unlike ingest, Advance holds the mutex EXCLUSIVELY: an epoch marker is an
// ordering fence, and if it shared the read side with Add/AddBatch a
// concurrent batch could land in the log on one side of the marker but hit
// the engine on the other — replay would then seal the batch into a
// different epoch than the live run did, breaking bit-identical recovery.
// The write lock makes the marker's log position and the ring rotation one
// atomic step with respect to every ingest call.
func (d *DurableSharded) Advance() error {
	if !d.s.Windowed() {
		return fmt.Errorf("stream: Advance on a non-windowed engine")
	}
	d.mu.Lock()
	if _, err := d.log.Append(nil, nil); err != nil {
		d.mu.Unlock()
		return err
	}
	err := d.s.Advance()
	d.mu.Unlock()
	if err != nil {
		// The log durably holds a marker the engine never applied; replaying
		// it would seal one epoch more than the live run. Poison the log so
		// no further appends can build on the divergent history.
		d.log.Fail(fmt.Errorf("stream: epoch seal failed after its marker was logged: %w", err))
		return err
	}
	d.maybeCheckpoint()
	return nil
}

// EstimateRange delegates to the engine.
func (d *DurableSharded) EstimateRange(a, b int) (float64, error) { return d.s.EstimateRange(a, b) }

// EstimateRangeOver delegates a windowed/decayed range query to the engine.
func (d *DurableSharded) EstimateRangeOver(a, b, window int, halflife float64) (float64, error) {
	return d.s.EstimateRangeOver(a, b, window, halflife)
}

// Windowed reports whether the wrapped engine retains a sliding epoch window.
func (d *DurableSharded) Windowed() bool { return d.s.Windowed() }

// Summary drains and merges the per-shard summaries (see Sharded.Summary).
func (d *DurableSharded) Summary() (*core.Histogram, error) { return d.s.Summary() }

// SummaryOver merges the window's decayed per-epoch summaries (see
// Sharded.SummaryOver).
func (d *DurableSharded) SummaryOver(window int, halflife float64) (*core.Histogram, error) {
	return d.s.SummaryOver(window, halflife)
}

// maybeCheckpoint cuts a checkpoint in the background once CheckpointEvery
// ingest calls accumulate; it skips while one is running, so a slow
// snapshot never stacks.
func (d *DurableSharded) maybeCheckpoint() {
	every := d.opts.checkpointEvery()
	if every <= 0 || d.sinceCkpt.Add(1) < int64(every) || !d.ckptMu.TryLock() {
		return
	}
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		defer d.ckptMu.Unlock()
		// A failed checkpoint poisons the WAL (appends start failing), so
		// ingestion cannot silently outrun a log that no longer truncates.
		_ = d.checkpoint()
	}()
}

func (d *DurableSharded) checkpointTicker() {
	defer d.wg.Done()
	t := time.NewTicker(d.opts.CheckpointInterval)
	defer t.Stop()
	for {
		select {
		case <-d.stop:
			return
		case <-t.C:
			if d.ckptMu.TryLock() {
				_ = d.checkpoint()
				d.ckptMu.Unlock()
			}
		}
	}
}

// checkpoint rotates the WAL, captures the engine, and commits the
// sequence-numbered snapshot + manifest. The rotation — which drains and
// fsyncs the old segment, megabytes of dirty pages — happens BEFORE the
// exclusive lock is taken, so ingestion never stalls on it: the lock is
// held only for the in-memory capture, and the records appended between the
// cut and the capture land in the new segment with seq ≤ boundary, where
// recovery's seq filter skips them. Encoding and the durable commit run
// while ingestion continues.
func (d *DurableSharded) checkpoint() error {
	start := time.Now()
	if _, err := d.log.Rotate(); err != nil {
		return err
	}
	d.mu.Lock()
	cp, err := d.s.Checkpoint()
	boundary := d.log.LastSeq()
	d.sinceCkpt.Store(0)
	d.mu.Unlock()
	if err != nil {
		return err
	}
	// The manifest must never name records the log could still lose: fsync
	// through the boundary (cheap — only the records since the cut are
	// unwritten) before committing the snapshot that covers it.
	if err := d.log.Sync(); err != nil {
		return err
	}
	if err := d.log.Commit(boundary, func(w io.Writer) error {
		_, werr := cp.WriteTo(w)
		return werr
	}); err != nil {
		return err
	}
	d.checkpoints.Add(1)
	d.statsMu.Lock()
	d.ckptDur.add(time.Since(start))
	d.statsMu.Unlock()
	return nil
}

// Checkpoint forces a checkpoint now (used by graceful shutdown and tests),
// waiting for one already running to finish first.
func (d *DurableSharded) Checkpoint() error {
	d.ckptMu.Lock()
	defer d.ckptMu.Unlock()
	return d.checkpoint()
}

// Sync forces every logged update to stable storage.
func (d *DurableSharded) Sync() error { return d.log.Sync() }

// Stats snapshots the engine and WAL counters.
func (d *DurableSharded) Stats() DurableStats {
	st := DurableStats{
		Ingest:      d.s.Stats(),
		WAL:         d.log.Stats(),
		Checkpoints: d.checkpoints.Load(),
		Replayed:    d.replayed,
	}
	d.statsMu.Lock()
	st.CheckpointDurations = d.ckptDur.snapshot(nil)
	d.statsMu.Unlock()
	return st
}

// Close cuts a final checkpoint and closes the WAL. After Close every
// ingest call fails; queries on the engine keep working.
func (d *DurableSharded) Close() error {
	if !d.closed.CompareAndSwap(false, true) {
		return nil
	}
	close(d.stop)
	d.wg.Wait()
	err := d.Checkpoint()
	if cerr := d.log.Close(); err == nil {
		err = cerr
	}
	return err
}
