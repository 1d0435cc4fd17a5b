// Package wal is the crash-durability layer under the streaming intake
// engines: a write-ahead log of ingest batches plus a checkpoint manifest,
// so a process killed mid-stream restarts from its last checkpoint and
// replays only the tail of updates that arrived after it.
//
// On disk a WAL directory holds exactly three kinds of files:
//
//	MANIFEST          one TagWALManifest envelope naming the current
//	                  checkpoint sequence number
//	snap-<seq>.bin    the engine snapshot covering records 1..seq
//	wal-<seq>.log     a segment of TagWALRecord envelopes holding the
//	                  records with sequence numbers > seq, concatenated
//
// Every record is one HSYN envelope (magic, version, tag, payload, CRC-32C
// footer) built with the codec package's append-style frame builder, so the
// ingest hot path appends into one reused buffer with no per-record
// allocation. Records carry a strictly increasing sequence number; segment
// files are named by the sequence number their records follow, so recovery
// can order and filter them without reading a separate index.
//
// Commit protocol (Rotate, then Commit a seq ≥ the rotation boundary): a
// checkpoint first cuts a fresh segment — the old segment is flushed,
// fsynced, and closed, so it is complete on disk — then captures the engine
// at some seq at or past the cut (appends keep flowing meanwhile; the
// snapshot may cover a prefix of the new segment) and, after an fsync
// covering that seq, writes snap-<seq>.bin and the new MANIFEST via
// temp-file + fsync + atomic rename, fsyncs the directory, and only then
// deletes the segments whose every record the snapshot covers. A crash
// between any two steps leaves either the old manifest (whose snapshot plus
// the retained segments still cover every durable record) or the new one;
// nothing is deleted before the manifest that supersedes it is durable.
// Replay filters by sequence number, so records the snapshot already covers
// are skipped wherever they sit.
//
// Group commit: appenders serialize on one mutex only long enough to encode
// their record into the shared pending buffer; a single flusher goroutine
// writes the accumulated batch with one write(2) and fsyncs per the
// SyncEvery/SyncInterval policy. With SyncEvery = 1 every Append blocks
// until an fsync covers its record — full durability, with concurrent
// appenders coalesced into one fsync. With SyncEvery > 1 appends return
// after buffering and at most SyncEvery records (or SyncInterval of wall
// time) can be lost to a crash; recovery still sees a clean prefix.
//
// Recovery (Open) reads the manifest, scans every segment in order
// validating each record's CRC and sequence continuity, and tolerates a
// torn tail on the LAST segment: a short read or checksum mismatch there is
// the expected signature of a crash mid-write, so the segment is truncated
// back to its last complete record and the log reopens for appending.
// Corruption anywhere before the tail is data loss and fails loudly.
package wal

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/codec"
)

// File is the writable handle the log appends through — the seam the fault
// injection harness replaces (see FaultFile). os.File satisfies it.
type File interface {
	io.Writer
	Sync() error
	Close() error
}

// OpenFileFunc opens (creating or truncating) a segment file for appending.
type OpenFileFunc func(path string) (File, error)

func osOpenFile(path string) (File, error) {
	return os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
}

// Default fsync batching: an fsync at most every DefaultSyncEvery records
// or DefaultSyncInterval of wall time, whichever comes first. Bounded loss
// (at most one batch window) in exchange for ingest throughput within a
// small factor of the in-memory engine; SyncEvery = 1 buys full durability.
const (
	DefaultSyncEvery    = 256
	DefaultSyncInterval = 50 * time.Millisecond
)

// maxPendingBytes is the soft backpressure bound: an appender finding more
// than this much unwritten data waits for the flusher to drain it.
const maxPendingBytes = 4 << 20

// Options tunes a Log. The zero value picks the defaults above.
type Options struct {
	// SyncEvery is the fsync cadence in records: the flusher fsyncs once at
	// most every SyncEvery appended records. 1 means every Append waits for
	// a group-commit fsync covering its record; 0 picks DefaultSyncEvery.
	SyncEvery int
	// SyncInterval bounds how long an appended record may stay unsynced:
	// the flusher fsyncs once the oldest unsynced record is this old, even
	// if fewer than SyncEvery records accumulated. 0 picks
	// DefaultSyncInterval.
	SyncInterval time.Duration
	// OpenFile replaces the segment-file opener — the fault-injection hook.
	// nil uses the operating system.
	OpenFile OpenFileFunc
}

func (o Options) withDefaults() Options {
	if o.SyncEvery <= 0 {
		o.SyncEvery = DefaultSyncEvery
	}
	if o.SyncInterval <= 0 {
		o.SyncInterval = DefaultSyncInterval
	}
	if o.OpenFile == nil {
		o.OpenFile = osOpenFile
	}
	return o
}

// Stats is a point-in-time snapshot of the log's write-side counters — the
// raw material of the /metrics WAL families and perfbench's wal.* metrics.
type Stats struct {
	// Appends is the total records appended; AppendedBytes the total frame
	// bytes they encoded to.
	Appends       int64
	AppendedBytes int64
	// Flushes counts group commits (write batches); Fsyncs the fsyncs that
	// made them durable. Appends/Flushes is the mean group-commit size.
	Flushes int64
	Fsyncs  int64
	// MaxGroup is the largest number of records one flush wrote.
	MaxGroup int
	// LastSeq is the last assigned sequence number; SyncedSeq the last one
	// an fsync covers.
	LastSeq   uint64
	SyncedSeq uint64
	// Rotations counts segment cuts (one per checkpoint).
	Rotations int64
}

// Record is one replayed ingest batch.
type Record struct {
	// Seq is the record's sequence number (1-based, strictly increasing).
	Seq uint64
	// Points/Weights are the ingest call's arguments; Weights is nil for
	// unit weights. Both are only valid during the replay callback.
	Points  []int
	Weights []float64
}

// OpenInfo describes what Open found: the checkpoint to restore and where
// replay starts.
type OpenInfo struct {
	// SnapshotSeq is the manifest's checkpoint sequence number: the
	// snapshot covers records 1..SnapshotSeq.
	SnapshotSeq uint64
	// SnapshotPath is the snapshot file to restore.
	SnapshotPath string
	// LastSeq is the last intact record on disk after any tail truncation;
	// Replay yields records SnapshotSeq+1 .. LastSeq.
	LastSeq uint64
	// Truncated reports whether Open cut a torn tail off the last segment.
	Truncated bool
}

// Log is an append-only write-ahead log in one directory. All methods are
// safe for concurrent use.
type Log struct {
	dir  string
	opts Options

	mu   sync.Mutex
	cond sync.Cond // broadcast on write/sync progress and ioBusy release
	// pending accumulates encoded frames not yet handed to a write; spare
	// is the idle half of the double buffer (nil while a flush owns it).
	pending     []byte
	spare       []byte
	pendingRecs int
	pendingEnd  uint64 // seq of the last record in pending
	lastSeq     uint64
	writtenSeq  uint64
	syncedSeq   uint64
	// unsynced tracks written-but-not-fsynced records and the arrival time
	// of the oldest, for the SyncInterval policy.
	unsyncedRecs   int
	oldestUnsynced time.Time
	// ioBusy is the single-writer baton: exactly one goroutine does file
	// IO (write/fsync/rotate) at a time, outside mu.
	ioBusy bool
	f      File
	// segStart is the active segment's base: its records have seq > segStart.
	segStart uint64
	err      error
	closed   bool

	kick        chan struct{}
	done        chan struct{}
	flusherDone chan struct{}

	stats Stats
}

const (
	manifestName = "MANIFEST"
	segPrefix    = "wal-"
	segSuffix    = ".log"
	snapPrefix   = "snap-"
	snapSuffix   = ".bin"
)

func segmentPath(dir string, start uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s%016d%s", segPrefix, start, segSuffix))
}

func snapshotPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s%016d%s", snapPrefix, seq, snapSuffix))
}

// Exists reports whether dir holds an initialized WAL (a manifest).
func Exists(dir string) bool {
	_, err := os.Stat(filepath.Join(dir, manifestName))
	return err == nil
}

// Create initializes dir as a fresh WAL: writeSnapshot provides the initial
// engine snapshot (covering zero records), committed as checkpoint 0. The
// directory is created if needed but must not already hold a manifest.
func Create(dir string, opts Options, writeSnapshot func(io.Writer) error) (*Log, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if Exists(dir) {
		return nil, fmt.Errorf("wal: %s already holds a log (use Open)", dir)
	}
	l := newLog(dir, opts)
	f, err := l.opts.OpenFile(segmentPath(dir, 0))
	if err != nil {
		return nil, err
	}
	l.f = f
	if err := l.commitLocked(0, writeSnapshot); err != nil {
		f.Close()
		return nil, err
	}
	l.start()
	return l, nil
}

// Open recovers the WAL in dir: it reads the manifest, validates every
// segment, truncates a torn tail on the last one, and reopens the log for
// appending. The caller restores OpenInfo.SnapshotPath and then calls
// Replay to apply the tail.
func Open(dir string, opts Options) (*Log, OpenInfo, error) {
	var info OpenInfo
	seq, err := readManifest(filepath.Join(dir, manifestName))
	if err != nil {
		return nil, info, err
	}
	info.SnapshotSeq = seq
	info.SnapshotPath = snapshotPath(dir, seq)
	if _, err := os.Stat(info.SnapshotPath); err != nil {
		return nil, info, fmt.Errorf("wal: manifest names checkpoint %d but its snapshot is missing: %w", seq, err)
	}
	segs, err := listSegments(dir)
	if err != nil {
		return nil, info, err
	}
	if len(segs) == 0 {
		return nil, info, fmt.Errorf("wal: %s has a manifest but no segments", dir)
	}
	// Validate every segment now so recovery fails before any replay side
	// effects. Only the last segment may have a torn tail.
	last := uint64(0)
	for i, s := range segs {
		isLast := i == len(segs)-1
		scan, err := scanSegment(s.path, nil)
		if err != nil {
			return nil, info, err
		}
		if scan.torn && !isLast {
			return nil, info, fmt.Errorf("wal: segment %s is corrupt before the log tail: %v", filepath.Base(s.path), scan.tornErr)
		}
		if scan.records > 0 && scan.firstSeq != s.start+1 {
			return nil, info, fmt.Errorf("wal: segment %s starts at record %d, want %d", filepath.Base(s.path), scan.firstSeq, s.start+1)
		}
		if i > 0 && s.start != last {
			return nil, info, fmt.Errorf("wal: segment %s does not follow record %d", filepath.Base(s.path), last)
		}
		if scan.records > 0 {
			last = scan.lastSeq
		} else {
			last = s.start
		}
		if scan.torn {
			info.Truncated = true
			if err := os.Truncate(s.path, scan.goodBytes); err != nil {
				return nil, info, fmt.Errorf("wal: truncating torn tail of %s: %w", filepath.Base(s.path), err)
			}
		}
	}
	if last < seq {
		return nil, info, fmt.Errorf("wal: log ends at record %d but the checkpoint covers %d", last, seq)
	}
	info.LastSeq = last
	l := newLog(dir, opts)
	l.lastSeq = last
	l.writtenSeq = last
	l.syncedSeq = last
	l.segStart = segs[len(segs)-1].start
	f, err := l.opts.OpenFile(segs[len(segs)-1].path)
	if err != nil {
		return nil, info, err
	}
	l.f = f
	l.stats.LastSeq = last
	l.stats.SyncedSeq = last
	l.start()
	return l, info, nil
}

func newLog(dir string, opts Options) *Log {
	l := &Log{
		dir:  dir,
		opts: opts.withDefaults(),
		kick: make(chan struct{}, 1),
		done: make(chan struct{}),
	}
	l.cond.L = &l.mu
	return l
}

func (l *Log) start() {
	l.flusherDone = make(chan struct{})
	go l.flusher()
}

// Dir returns the log directory.
func (l *Log) Dir() string { return l.dir }

// LastSeq returns the last assigned record sequence number.
func (l *Log) LastSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lastSeq
}

// Stats snapshots the write-side counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	st := l.stats
	st.LastSeq = l.lastSeq
	st.SyncedSeq = l.syncedSeq
	return st
}

// Append encodes one ingest batch as a TagWALRecord frame into the pending
// buffer and returns its sequence number. With SyncEvery = 1 it blocks
// until an fsync covers the record (group-committed with concurrent
// appenders); otherwise it returns after buffering, and the flusher makes
// it durable within the SyncEvery/SyncInterval window. The slices are read
// during the call only — callers may reuse them immediately.
func (l *Log) Append(points []int, weights []float64) (uint64, error) {
	l.mu.Lock()
	for l.err == nil && !l.closed && len(l.pending) > maxPendingBytes {
		l.cond.Wait()
	}
	if l.err != nil || l.closed {
		err := l.err
		if err == nil {
			err = fmt.Errorf("wal: log is closed")
		}
		l.mu.Unlock()
		return 0, err
	}
	seq := l.lastSeq + 1
	l.lastSeq = seq
	start := len(l.pending)
	l.pending = appendRecordFrame(l.pending, seq, points, weights)
	l.stats.Appends++
	l.stats.AppendedBytes += int64(len(l.pending) - start)
	l.pendingRecs++
	l.pendingEnd = seq
	select {
	case l.kick <- struct{}{}:
	default:
	}
	if l.opts.SyncEvery <= 1 {
		for l.err == nil && l.syncedSeq < seq {
			l.cond.Wait()
		}
	}
	err := l.err
	l.mu.Unlock()
	return seq, err
}

// appendRecordFrame encodes one record as a complete HSYN envelope:
// seq, point count, points as uvarints, a weights flag, and the packed
// weight floats.
func appendRecordFrame(dst []byte, seq uint64, points []int, weights []float64) []byte {
	frameStart := len(dst)
	dst = codec.AppendFrameHeader(dst, codec.TagWALRecord)
	dst = codec.AppendUvarint(dst, seq)
	dst = codec.AppendInts(dst, points)
	if weights == nil {
		dst = append(dst, 0)
	} else {
		dst = append(dst, 1)
		dst = codec.AppendPackedFloat64s(dst, weights)
	}
	return codec.FinishFrame(dst, frameStart)
}

// flusher is the single background writer: it drains the pending buffer
// with one write per wakeup and fsyncs per the SyncEvery/SyncInterval
// policy.
func (l *Log) flusher() {
	defer close(l.flusherDone)
	timer := time.NewTimer(l.opts.SyncInterval)
	if !timer.Stop() {
		<-timer.C
	}
	armed := false
	for {
		select {
		case <-l.kick:
		case <-timer.C:
			armed = false
		case <-l.done:
			if armed && !timer.Stop() {
				<-timer.C
			}
			l.flushAndSync(true)
			return
		}
		l.flushAndSync(false)
		// Arm the interval timer while written records await their fsync.
		l.mu.Lock()
		wait := time.Duration(0)
		if l.unsyncedRecs > 0 {
			wait = l.opts.SyncInterval - time.Since(l.oldestUnsynced)
			if wait <= 0 {
				wait = time.Millisecond
			}
		}
		l.mu.Unlock()
		if armed && !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		armed = false
		if wait > 0 {
			timer.Reset(wait)
			armed = true
		}
	}
}

// acquireIO takes the single-writer IO baton, returning the current
// segment file. Callers must pair with releaseIO.
func (l *Log) acquireIO() File {
	for l.ioBusy {
		l.cond.Wait()
	}
	l.ioBusy = true
	return l.f
}

func (l *Log) releaseIOLocked() {
	l.ioBusy = false
	l.cond.Broadcast()
}

// flushAndSync writes any pending frames and fsyncs when the policy (or
// force) demands it.
func (l *Log) flushAndSync(force bool) {
	l.mu.Lock()
	f := l.acquireIO()
	batch := l.pending
	recs := l.pendingRecs
	end := l.pendingEnd
	if l.spare == nil {
		l.pending = nil
	} else {
		l.pending = l.spare[:0]
	}
	l.spare = nil
	l.pendingRecs = 0
	hadErr := l.err != nil
	l.mu.Unlock()

	var ioErr error
	wrote := false
	if !hadErr && len(batch) > 0 {
		n, err := f.Write(batch)
		if err == nil && n != len(batch) {
			err = io.ErrShortWrite
		}
		if err != nil {
			ioErr = fmt.Errorf("wal: segment write: %w", err)
		} else {
			wrote = true
		}
	}

	l.mu.Lock()
	if l.spare == nil || cap(batch) > cap(l.spare) {
		l.spare = batch[:0]
	}
	if ioErr != nil && l.err == nil {
		l.err = ioErr
	}
	if wrote {
		l.writtenSeq = end
		if l.unsyncedRecs == 0 {
			l.oldestUnsynced = time.Now()
		}
		l.unsyncedRecs += recs
		l.stats.Flushes++
		if recs > l.stats.MaxGroup {
			l.stats.MaxGroup = recs
		}
	}
	needSync := l.err == nil && l.unsyncedRecs > 0 &&
		(force || l.opts.SyncEvery <= 1 || l.unsyncedRecs >= l.opts.SyncEvery ||
			time.Since(l.oldestUnsynced) >= l.opts.SyncInterval)
	if !needSync {
		l.releaseIOLocked()
		l.cond.Broadcast()
		l.mu.Unlock()
		return
	}
	l.mu.Unlock()

	syncErr := f.Sync()

	l.mu.Lock()
	if syncErr != nil {
		if l.err == nil {
			l.err = fmt.Errorf("wal: fsync: %w", syncErr)
		}
	} else {
		l.syncedSeq = l.writtenSeq
		l.unsyncedRecs = 0
		l.stats.Fsyncs++
	}
	l.releaseIOLocked()
	l.cond.Broadcast()
	l.mu.Unlock()
}

// Sync forces every appended record to stable storage before returning.
func (l *Log) Sync() error {
	l.flushAndSync(true)
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// Fail poisons the log with the caller's error: every subsequent Append,
// Sync, Rotate, and Commit fails with it, exactly as an internal IO failure
// would. The durability layer uses it when the log durably recorded an
// operation the engine then failed to apply — appending further records
// would grow a history that no longer matches any engine state. An already
// failed or nil error is ignored (first error wins, like internal failures).
func (l *Log) Fail(err error) {
	if err == nil {
		return
	}
	l.mu.Lock()
	if l.err == nil {
		l.err = err
	}
	l.cond.Broadcast()
	l.mu.Unlock()
}

// Rotate cuts a new segment: it drains and fsyncs the current one, closes
// it, and opens wal-<boundary>.log as the new append target, returning the
// boundary sequence number. A following Commit may checkpoint the boundary
// itself or any later seq (capture-after-cut — see the commit protocol in
// the package comment). The IO baton is held across the whole
// drain+close+reopen, so records appended concurrently land in one segment
// or the other, never lost and never left unsynced in a closed segment;
// appenders themselves never touch the file, so ingestion does not stall on
// the rotation fsync.
func (l *Log) Rotate() (uint64, error) {
	l.mu.Lock()
	f := l.acquireIO()
	if l.err != nil || l.closed {
		err := l.err
		if err == nil {
			err = fmt.Errorf("wal: log is closed")
		}
		l.releaseIOLocked()
		l.mu.Unlock()
		return 0, err
	}
	batch := l.pending
	recs := l.pendingRecs
	end := l.pendingEnd
	if l.spare == nil {
		l.pending = nil
	} else {
		l.pending = l.spare[:0]
	}
	l.spare = nil
	l.pendingRecs = 0
	l.mu.Unlock()

	var ioErr error
	if len(batch) > 0 {
		n, err := f.Write(batch)
		if err == nil && n != len(batch) {
			err = io.ErrShortWrite
		}
		if err != nil {
			ioErr = fmt.Errorf("wal: segment write: %w", err)
		}
	}
	if ioErr == nil {
		if err := f.Sync(); err != nil {
			ioErr = fmt.Errorf("wal: fsync: %w", err)
		}
	}
	if ioErr == nil {
		if err := f.Close(); err != nil {
			ioErr = fmt.Errorf("wal: closing segment: %w", err)
		}
	}

	l.mu.Lock()
	if l.spare == nil || cap(batch) > cap(l.spare) {
		l.spare = batch[:0]
	}
	if ioErr != nil {
		if l.err == nil {
			l.err = ioErr
		}
		l.releaseIOLocked()
		l.cond.Broadcast()
		l.mu.Unlock()
		return 0, ioErr
	}
	if recs > 0 {
		l.writtenSeq = end
		l.stats.Flushes++
		if recs > l.stats.MaxGroup {
			l.stats.MaxGroup = recs
		}
	}
	l.syncedSeq = l.writtenSeq
	l.unsyncedRecs = 0
	l.stats.Fsyncs++
	boundary := l.writtenSeq
	l.mu.Unlock()

	nf, err := l.opts.OpenFile(segmentPath(l.dir, boundary))

	l.mu.Lock()
	if err != nil {
		if l.err == nil {
			l.err = fmt.Errorf("wal: opening segment: %w", err)
		}
		l.releaseIOLocked()
		l.cond.Broadcast()
		l.mu.Unlock()
		return 0, l.err
	}
	l.f = nf
	l.segStart = boundary
	l.stats.Rotations++
	l.releaseIOLocked()
	l.cond.Broadcast()
	l.mu.Unlock()
	return boundary, nil
}

// Commit durably installs checkpoint seq: it writes snap-<seq>.bin and the
// manifest (temp file, fsync, atomic rename, directory fsync) and then
// removes the segments and snapshots the new checkpoint supersedes. seq may
// be any sequence number at or past the last Rotate boundary, provided an
// fsync already covers it — callers capture their snapshot after rotating
// and call Sync before Commit, so the manifest never names records the log
// could still lose.
func (l *Log) Commit(seq uint64, writeSnapshot func(io.Writer) error) error {
	if err := l.commitLocked(seq, writeSnapshot); err != nil {
		l.mu.Lock()
		if l.err == nil {
			l.err = err
		}
		l.mu.Unlock()
		return err
	}
	return nil
}

func (l *Log) commitLocked(seq uint64, writeSnapshot func(io.Writer) error) error {
	if err := writeFileDurably(snapshotPath(l.dir, seq), func(w io.Writer) error {
		return writeSnapshot(w)
	}); err != nil {
		return fmt.Errorf("wal: writing snapshot %d: %w", seq, err)
	}
	if err := writeFileDurably(filepath.Join(l.dir, manifestName), func(w io.Writer) error {
		enc := codec.NewWriter(w, codec.TagWALManifest)
		enc.Uvarint(seq)
		return enc.Close()
	}); err != nil {
		return fmt.Errorf("wal: writing manifest %d: %w", seq, err)
	}
	if err := syncDir(l.dir); err != nil {
		return err
	}
	// The new manifest is durable: everything it supersedes can go. A crash
	// before (or during) this cleanup only leaves stale files that the next
	// Commit removes.
	l.removeSuperseded(seq)
	return nil
}

// removeSuperseded deletes segments whose records the checkpoint covers and
// snapshots other than the committed one. Segment wal-<start>.log holds
// records start+1 through the next segment's start, so it is redundant
// exactly when the NEXT segment starts at or before seq — a rule that also
// covers checkpoints cut past the rotation boundary, where the active
// segment's start is below seq but its tail is live. Best-effort: a failure
// leaves a stale file, never an inconsistent log.
func (l *Log) removeSuperseded(seq uint64) {
	segs, err := listSegments(l.dir)
	if err == nil {
		for i := 0; i+1 < len(segs); i++ {
			if segs[i+1].start <= seq {
				os.Remove(segs[i].path)
			}
		}
	}
	ents, err := os.ReadDir(l.dir)
	if err == nil {
		for _, e := range ents {
			name := e.Name()
			if !strings.HasPrefix(name, snapPrefix) || !strings.HasSuffix(name, snapSuffix) {
				continue
			}
			s, perr := parseSeq(name, snapPrefix, snapSuffix)
			if perr == nil && s != seq {
				os.Remove(filepath.Join(l.dir, name))
			}
		}
	}
}

// Replay yields every intact record with Seq > after, in order. It reads
// the segment files directly, so it is only meaningful before new appends
// rotate segments away — i.e. during recovery, before ingest resumes.
func (l *Log) Replay(after uint64, fn func(Record) error) error {
	segs, err := listSegments(l.dir)
	if err != nil {
		return err
	}
	for _, s := range segs {
		scan, err := scanSegment(s.path, func(r Record) error {
			if r.Seq <= after {
				return nil
			}
			return fn(r)
		})
		if err != nil {
			return err
		}
		if scan.torn {
			// Open already truncated torn tails; hitting one here means the
			// file changed underneath us.
			return fmt.Errorf("wal: segment %s: %v", filepath.Base(s.path), scan.tornErr)
		}
	}
	return nil
}

// Close flushes and fsyncs everything appended, stops the flusher, and
// closes the active segment.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		err := l.err
		l.mu.Unlock()
		return err
	}
	l.closed = true
	l.cond.Broadcast()
	l.mu.Unlock()
	close(l.done)
	<-l.flusherDone

	l.mu.Lock()
	f := l.acquireIO()
	l.mu.Unlock()
	cerr := f.Close()
	l.mu.Lock()
	if cerr != nil && l.err == nil {
		l.err = fmt.Errorf("wal: closing segment: %w", cerr)
	}
	err := l.err
	l.releaseIOLocked()
	l.mu.Unlock()
	return err
}

// --- Segment scanning. ---

type segInfo struct {
	start uint64
	path  string
}

func listSegments(dir string) ([]segInfo, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs []segInfo
	for _, e := range ents {
		name := e.Name()
		if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
			continue
		}
		start, err := parseSeq(name, segPrefix, segSuffix)
		if err != nil {
			return nil, fmt.Errorf("wal: bad segment name %q", name)
		}
		segs = append(segs, segInfo{start: start, path: filepath.Join(dir, name)})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].start < segs[j].start })
	return segs, nil
}

func parseSeq(name, prefix, suffix string) (uint64, error) {
	return strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, prefix), suffix), 10, 64)
}

type scanResult struct {
	records   int
	firstSeq  uint64
	lastSeq   uint64
	goodBytes int64
	torn      bool
	tornErr   error
}

// countingReader counts the bytes the codec Reader reads — exactly the
// envelope bytes of an intact record, since the Reader never reads past
// what the payload promised — so frame offsets fall out of the scan.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// scanSegment validates one segment record by record. A decode error is
// reported as a torn tail (records before it stay good); fn, when non-nil,
// sees every intact record.
func scanSegment(path string, fn func(Record) error) (scanResult, error) {
	f, err := os.Open(path)
	if err != nil {
		return scanResult{}, err
	}
	defer f.Close()
	return scanRecords(f, fn)
}

// scanRecords is scanSegment on an arbitrary stream (exported for offsets
// via SegmentOffsets and reused by tests on in-memory crash images).
func scanRecords(r io.Reader, fn func(Record) error) (scanResult, error) {
	cr := &countingReader{r: newBufferedReader(r)}
	var res scanResult
	var prevSeq uint64
	first := true
	var points []int
	var weights []float64
	for {
		rec, err := readRecord(cr, &points, &weights)
		if err == io.EOF {
			return res, nil
		}
		if err != nil {
			res.torn = true
			res.tornErr = err
			return res, nil
		}
		if !first && rec.Seq != prevSeq+1 {
			res.torn = true
			res.tornErr = fmt.Errorf("wal: record %d follows %d", rec.Seq, prevSeq)
			return res, nil
		}
		if first {
			res.firstSeq = rec.Seq
			first = false
		}
		prevSeq = rec.Seq
		res.lastSeq = rec.Seq
		res.records++
		res.goodBytes = cr.n
		if fn != nil {
			if err := fn(rec); err != nil {
				return res, err
			}
		}
	}
}

// newBufferedReader smooths syscalls under the countingReader. Buffering
// must sit BELOW the counter so goodBytes stays exact: countingReader
// counts what the codec Reader reads, and the codec Reader never reads past
// what the payload promised, so after an intact record the count lands
// precisely on its frame boundary.
func newBufferedReader(r io.Reader) io.Reader {
	return &bufReader{r: r}
}

// bufReader serves Read calls from an internal read-ahead buffer but only
// hands out what is asked, never claiming bytes the caller didn't consume.
type bufReader struct {
	r   io.Reader
	buf [4096]byte
	i   int
	n   int
}

func (b *bufReader) Read(p []byte) (int, error) {
	if b.i == b.n {
		n, err := b.r.Read(b.buf[:])
		if n == 0 {
			return 0, err
		}
		b.i, b.n = 0, n
	}
	n := copy(p, b.buf[b.i:b.n])
	b.i += n
	return n, nil
}

// readRecord decodes one TagWALRecord envelope. io.EOF means a clean end of
// segment (EOF before any header byte); any other failure is a torn or
// corrupt record.
func readRecord(r io.Reader, points *[]int, weights *[]float64) (Record, error) {
	dec := codec.NewReader(r)
	tag, err := dec.Header()
	if errors.Is(err, io.EOF) {
		return Record{}, io.EOF
	}
	if err != nil {
		return Record{}, err
	}
	if tag != codec.TagWALRecord {
		return Record{}, fmt.Errorf("wal: envelope holds type tag %d, not a WAL record", tag)
	}
	var rec Record
	if rec.Seq, err = dec.Uvarint(); err != nil {
		return Record{}, err
	}
	if *points, err = dec.Ints(*points); err != nil {
		return Record{}, err
	}
	rec.Points = *points
	flag, err := dec.ReadByte()
	if err != nil {
		return Record{}, err
	}
	switch flag {
	case 0:
		rec.Weights = nil
	case 1:
		ws, err := dec.PackedFloat64s(nil)
		if err != nil {
			return Record{}, err
		}
		if len(ws) != len(rec.Points) {
			return Record{}, fmt.Errorf("wal: %d weights for %d points", len(ws), len(rec.Points))
		}
		*weights = ws
		rec.Weights = ws
	default:
		return Record{}, fmt.Errorf("wal: bad weights flag %d", flag)
	}
	if err := dec.Close(); err != nil {
		return Record{}, err
	}
	return rec, nil
}

// SegmentOffsets returns the byte offset of the END of each intact record
// frame in the segment — the crash points the recovery property tests sweep.
func SegmentOffsets(path string) ([]int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	cr := &countingReader{r: newBufferedReader(f)}
	var offs []int64
	var points []int
	var weights []float64
	for {
		_, err := readRecord(cr, &points, &weights)
		if err == io.EOF {
			return offs, nil
		}
		if err != nil {
			return offs, nil
		}
		offs = append(offs, cr.n)
	}
}

// SegmentPath returns the path of the segment whose records follow seq.
func SegmentPath(dir string, start uint64) string { return segmentPath(dir, start) }

// readManifest decodes the TagWALManifest envelope.
func readManifest(path string) (uint64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	dec := codec.NewReader(f)
	tag, err := dec.Header()
	if err != nil {
		return 0, err
	}
	if tag != codec.TagWALManifest {
		return 0, fmt.Errorf("wal: %s holds type tag %d, not a manifest", filepath.Base(path), tag)
	}
	seq, err := dec.Uvarint()
	if err != nil {
		return 0, err
	}
	if err := dec.Close(); err != nil {
		return 0, err
	}
	return seq, nil
}

// writeFileDurably writes path atomically: temp file in the same directory,
// fsync, rename over the target.
func writeFileDurably(path string, write func(io.Writer) error) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// syncDir fsyncs a directory so renames within it are durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
