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
// Recovery filters by sequence number, so records the snapshot already
// covers are skipped wherever they sit.
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
// Recovery (Open) is one pass over the log. It reads the manifest, hands
// the checkpoint's snapshot to the caller's restore function, and then
// reads every segment once, in order: each record's CRC and sequence
// continuity are checked, and each record past the checkpoint goes to the
// caller's apply function as it is read. A short read or checksum mismatch
// on the LAST segment is the expected signature of a crash mid-write, so
// that segment is truncated back to its last complete record and the log
// reopens for appending. Corruption anywhere before the tail is data loss
// and fails loudly. The truncation is the pass's only write and comes after
// every segment has been read, so an Open that fails on the snapshot or on
// any record leaves the directory as it found it.
package wal

import (
	"bufio"
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

// OpenFileFunc opens a segment file for appending: it creates the file if
// absent and appends after its existing bytes. Open hands it the recovered
// last segment, so an opener that truncated would erase the recovered tail.
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
	// unit weights. Both are only valid during the apply callback.
	Points  []int
	Weights []float64
}

// OpenInfo describes what Open recovered.
type OpenInfo struct {
	// SnapshotSeq is the manifest's checkpoint sequence number: the
	// snapshot handed to restore covers records 1..SnapshotSeq.
	SnapshotSeq uint64
	// LastSeq is the last intact record on disk after any tail truncation;
	// apply saw records SnapshotSeq+1 .. LastSeq.
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

// Open recovers the WAL in dir in one pass (see the package comment): it
// hands the manifest's snapshot to restore, reads each segment once,
// passing every record past the checkpoint to apply in sequence order,
// truncates a torn tail on the last segment, and reopens the log for
// appending. An error from restore or apply stops recovery and is returned.
// When Open fails, whatever restore and apply built must be discarded.
//
// A record's Points and Weights are decoded into buffers the next record
// reuses, so apply must copy whatever it keeps of them; Sharded.AddBatch,
// the durable engine's apply, copies every point and weight it takes.
func Open(dir string, opts Options, restore func(io.Reader) error, apply func(Record) error) (*Log, OpenInfo, error) {
	var info OpenInfo
	seq, err := readManifest(filepath.Join(dir, manifestName))
	if err != nil {
		return nil, info, err
	}
	info.SnapshotSeq = seq
	segs, err := listSegments(dir)
	if err != nil {
		return nil, info, err
	}
	if len(segs) == 0 {
		return nil, info, fmt.Errorf("wal: %s has a manifest but no segments", dir)
	}
	// A checkpoint deletes a segment only once the next one starts at or
	// before its seq, so the first segment left never starts past it.
	if first := segs[0]; first.start > seq {
		return nil, info, fmt.Errorf("wal: records %d–%d are missing: the checkpoint covers %d and the first segment, %s, follows record %d",
			seq+1, first.start, seq, filepath.Base(first.path), first.start)
	}
	snap, err := os.Open(snapshotPath(dir, seq))
	if err != nil {
		return nil, info, fmt.Errorf("wal: manifest names checkpoint %d but its snapshot is missing: %w", seq, err)
	}
	err = restore(snap)
	snap.Close() // only read
	if err != nil {
		return nil, info, fmt.Errorf("wal: restoring checkpoint %d: %w", seq, err)
	}
	// Only the last segment may have a torn tail, and it is cut only once
	// every segment has been read.
	var scan scanResult
	last := uint64(0)
	for i, s := range segs {
		if i > 0 && s.start != last {
			return nil, info, fmt.Errorf("wal: segment %s does not follow record %d", filepath.Base(s.path), last)
		}
		scan, err = scanSegment(s.path, func(r Record, _ int64) error {
			if r.Seq <= seq {
				return nil
			}
			if err := apply(r); err != nil {
				return fmt.Errorf("wal: applying record %d: %w", r.Seq, err)
			}
			return nil
		})
		if err != nil {
			return nil, info, err
		}
		if scan.torn && i < len(segs)-1 {
			return nil, info, fmt.Errorf("wal: segment %s is corrupt before the log tail: %v", filepath.Base(s.path), scan.tornErr)
		}
		if scan.records > 0 && scan.firstSeq != s.start+1 {
			return nil, info, fmt.Errorf("wal: segment %s starts at record %d, want %d", filepath.Base(s.path), scan.firstSeq, s.start+1)
		}
		last = s.start + uint64(scan.records)
	}
	if last < seq {
		return nil, info, fmt.Errorf("wal: log ends at record %d but the checkpoint covers %d", last, seq)
	}
	tail := segs[len(segs)-1]
	if scan.torn {
		info.Truncated = true
		if err := os.Truncate(tail.path, scan.goodBytes); err != nil {
			return nil, info, fmt.Errorf("wal: truncating torn tail of %s: %w", filepath.Base(tail.path), err)
		}
	}
	info.LastSeq = last
	l := newLog(dir, opts)
	l.lastSeq = last
	l.writtenSeq = last
	l.syncedSeq = last
	l.segStart = tail.start
	f, err := l.opts.OpenFile(tail.path)
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
	if err := l.refusal(); err != nil {
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

// failLocked records err as the log's failure unless an earlier one is
// already recorded (first error wins). The caller holds mu.
func (l *Log) failLocked(err error) {
	if l.err == nil {
		l.err = err
	}
}

// refusal returns why the log refuses writes, or nil. The caller holds mu.
func (l *Log) refusal() error {
	if l.err == nil && l.closed {
		return errors.New("wal: log is closed")
	}
	return l.err
}

// drain hands the pending frames to one write on f, updates the write-side
// counters, and recycles the written buffer as the spare. A failed log
// drops its pending frames unwritten. The caller holds mu and the IO baton;
// mu is released for the write.
func (l *Log) drain(f File) {
	batch, recs, end := l.pending, l.pendingRecs, l.pendingEnd
	l.pending, l.spare, l.pendingRecs = l.spare[:0], nil, 0
	if l.err == nil && len(batch) > 0 {
		l.mu.Unlock()
		n, err := f.Write(batch)
		if err == nil && n != len(batch) {
			err = io.ErrShortWrite
		}
		l.mu.Lock()
		if err != nil {
			l.failLocked(fmt.Errorf("wal: segment write: %w", err))
		} else {
			l.writtenSeq = end
			if l.unsyncedRecs == 0 {
				l.oldestUnsynced = time.Now()
			}
			l.unsyncedRecs += recs
			l.stats.Flushes++
			l.stats.MaxGroup = max(l.stats.MaxGroup, recs)
		}
	}
	l.spare = batch[:0]
}

// syncFile fsyncs f and marks every written record synced. The caller
// holds mu and the IO baton; mu is released for the fsync.
func (l *Log) syncFile(f File) {
	l.mu.Unlock()
	err := f.Sync()
	l.mu.Lock()
	if err != nil {
		l.failLocked(fmt.Errorf("wal: fsync: %w", err))
		return
	}
	l.syncedSeq = l.writtenSeq
	l.unsyncedRecs = 0
	l.stats.Fsyncs++
}

// flushAndSync writes any pending frames and fsyncs when the policy (or
// force) demands it.
func (l *Log) flushAndSync(force bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	f := l.acquireIO()
	defer l.releaseIOLocked()
	l.drain(f)
	if l.err == nil && l.unsyncedRecs > 0 &&
		(force || l.opts.SyncEvery <= 1 || l.unsyncedRecs >= l.opts.SyncEvery ||
			time.Since(l.oldestUnsynced) >= l.opts.SyncInterval) {
		l.syncFile(f)
	}
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
	l.failLocked(err)
	l.cond.Broadcast()
	l.mu.Unlock()
}

// Rotate cuts a new segment: it drains and fsyncs the current one, closes
// it, and opens wal-<boundary>.log as the new append target, returning the
// boundary sequence number. A following Commit may checkpoint the boundary
// itself or any later seq (capture-after-cut — see the commit protocol in
// the package comment). The IO baton is held across the whole
// drain+fsync+close+reopen, so records appended concurrently land in one
// segment or the other, never lost and never left unsynced in a closed
// segment; appenders themselves never touch the file, so ingestion does not
// stall on the rotation fsync.
func (l *Log) Rotate() (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	f := l.acquireIO()
	defer l.releaseIOLocked()
	if err := l.refusal(); err != nil {
		return 0, err
	}
	l.drain(f)
	if l.err == nil {
		l.syncFile(f)
	}
	if l.err != nil {
		return 0, l.err
	}
	boundary := l.writtenSeq
	l.mu.Unlock()
	var nf File
	err := f.Close()
	if err != nil {
		err = fmt.Errorf("wal: closing segment: %w", err)
	} else if nf, err = l.opts.OpenFile(segmentPath(l.dir, boundary)); err != nil {
		err = fmt.Errorf("wal: opening segment: %w", err)
	}
	l.mu.Lock()
	if err != nil {
		l.failLocked(err)
		return 0, l.err
	}
	l.f = nf
	l.segStart = boundary
	l.stats.Rotations++
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
		l.failLocked(err)
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
	if cerr != nil {
		l.failLocked(fmt.Errorf("wal: closing segment: %w", cerr))
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

// scanSegment is scanRecords over one segment file.
func scanSegment(path string, fn func(rec Record, end int64) error) (scanResult, error) {
	f, err := os.Open(path)
	if err != nil {
		return scanResult{}, err
	}
	defer f.Close()
	return scanRecords(f, fn)
}

// scanRecords reads a segment's records in order. A record that does not
// decode, fails its CRC, or does not follow its predecessor's sequence
// number is reported as a torn tail: the scan stops there, and goodBytes
// ends the intact prefix. fn, when non-nil, sees every intact record with
// the offset its frame ends at, and an error from it stops the scan.
//
// One codec.Reader decodes every record, and each record's points and
// weights are decoded into buffers the next record reuses, so fn must not
// keep them.
func scanRecords(r io.Reader, fn func(rec Record, end int64) error) (scanResult, error) {
	br := bufio.NewReader(r)
	dec := codec.NewReader(br)
	var res scanResult
	var points []int
	var weights []float64
	for {
		dec.Reset(br)
		rec, size, err := readRecord(dec, &points, &weights)
		if err == io.EOF {
			return res, nil
		}
		if err == nil && res.records > 0 && rec.Seq != res.lastSeq+1 {
			err = fmt.Errorf("wal: record %d follows %d", rec.Seq, res.lastSeq)
		}
		if err != nil {
			res.torn, res.tornErr = true, err
			return res, nil
		}
		if res.records == 0 {
			res.firstSeq = rec.Seq
		}
		res.records++
		res.lastSeq = rec.Seq
		res.goodBytes += size
		if fn != nil {
			if err := fn(rec, res.goodBytes); err != nil {
				return res, err
			}
		}
	}
}

// readRecord decodes one TagWALRecord envelope with dec, fresh or just
// Reset, and returns it with its frame's length: the codec Reader reads no
// byte past the envelope, so after Close its Len is exactly the frame. The
// points and weights are decoded into *points and *weights, which grow
// only when too short. io.EOF means a clean end of segment (EOF before any
// header byte); any other failure is a torn or corrupt record.
func readRecord(dec *codec.Reader, points *[]int, weights *[]float64) (Record, int64, error) {
	tag, err := dec.Header()
	if errors.Is(err, io.EOF) {
		return Record{}, 0, io.EOF
	}
	if err != nil {
		return Record{}, 0, err
	}
	if tag != codec.TagWALRecord {
		return Record{}, 0, fmt.Errorf("wal: envelope holds type tag %d, not a WAL record", tag)
	}
	var rec Record
	if rec.Seq, err = dec.Uvarint(); err != nil {
		return Record{}, 0, err
	}
	if *points, err = dec.Ints(*points); err != nil {
		return Record{}, 0, err
	}
	rec.Points = *points
	flag, err := dec.ReadByte()
	if err != nil {
		return Record{}, 0, err
	}
	switch flag {
	case 0:
		rec.Weights = nil
	case 1:
		ws, err := dec.PackedFloat64s(*weights)
		if err != nil {
			return Record{}, 0, err
		}
		if len(ws) != len(rec.Points) {
			return Record{}, 0, fmt.Errorf("wal: %d weights for %d points", len(ws), len(rec.Points))
		}
		*weights = ws
		rec.Weights = ws
	default:
		return Record{}, 0, fmt.Errorf("wal: bad weights flag %d", flag)
	}
	if err := dec.Close(); err != nil {
		return Record{}, 0, err
	}
	return rec, dec.Len(), nil
}

// SegmentOffsets returns the byte offset of the END of each intact record
// frame in the segment — the crash points the recovery property tests sweep.
func SegmentOffsets(path string) ([]int64, error) {
	var offs []int64
	_, err := scanSegment(path, func(_ Record, end int64) error {
		offs = append(offs, end)
		return nil
	})
	return offs, err
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
