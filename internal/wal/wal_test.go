package wal

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// writeSnap returns a snapshot writer that emits a recognizable payload.
func writeSnap(label string) func(io.Writer) error {
	return func(w io.Writer) error {
		_, err := io.WriteString(w, "SNAP:"+label)
		return err
	}
}

func mustCreate(t *testing.T, dir string, opts Options) *Log {
	t.Helper()
	l, err := Create(dir, opts, writeSnap("init"))
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	return l
}

type rec struct {
	seq     uint64
	points  []int
	weights []float64
}

func appendN(t *testing.T, l *Log, n int, withWeights bool) []rec {
	t.Helper()
	var recs []rec
	base := int(l.LastSeq()) * 10
	for i := 0; i < n; i++ {
		points := []int{base + i, base + i + 7, i % 3}
		var weights []float64
		if withWeights {
			weights = []float64{1.5, float64(i) + 0.25, 2}
		}
		seq, err := l.Append(points, weights)
		if err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
		recs = append(recs, rec{seq: seq, points: points, weights: weights})
	}
	return recs
}

// recovered is what Open handed its callbacks: the snapshot's bytes and
// every applied record.
type recovered struct {
	snap string
	recs []rec
}

// openLog runs Open, collecting what it restores and applies.
func openLog(dir string, opts Options) (*Log, OpenInfo, *recovered, error) {
	got := &recovered{}
	l, info, err := Open(dir, opts, func(r io.Reader) error {
		blob, err := io.ReadAll(r)
		got.snap = string(blob)
		return err
	}, func(r Record) error {
		got.recs = append(got.recs, rec{
			seq:     r.Seq,
			points:  append([]int(nil), r.Points...),
			weights: append([]float64(nil), r.Weights...),
		})
		return nil
	})
	return l, info, got, err
}

func sameRecs(t *testing.T, got, want []rec) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].seq != want[i].seq || !reflect.DeepEqual(got[i].points, want[i].points) {
			t.Fatalf("record %d: got %+v want %+v", i, got[i], want[i])
		}
		gw, ww := got[i].weights, want[i].weights
		if len(gw) == 0 && len(ww) == 0 {
			continue
		}
		if !reflect.DeepEqual(gw, ww) {
			t.Fatalf("record %d weights: got %v want %v", i, gw, ww)
		}
	}
}

// TestWALAppendReplayRoundTrip: records written (with and without weights)
// come back bit-identical after close and reopen.
func TestWALAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l := mustCreate(t, dir, Options{})
	want := appendN(t, l, 17, false)
	want = append(want, appendN(t, l, 13, true)...)
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	l2, info, got, err := openLog(dir, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer l2.Close()
	if info.SnapshotSeq != 0 {
		t.Fatalf("SnapshotSeq = %d, want 0", info.SnapshotSeq)
	}
	if info.LastSeq != 30 {
		t.Fatalf("LastSeq = %d, want 30", info.LastSeq)
	}
	if info.Truncated {
		t.Fatal("clean log reported as truncated")
	}
	if got.snap != "SNAP:init" {
		t.Fatalf("snapshot = %q", got.snap)
	}
	sameRecs(t, got.recs, want)

	// Appends resume with the next sequence number.
	seq, err := l2.Append([]int{1}, nil)
	if err != nil || seq != 31 {
		t.Fatalf("resumed Append → %d, %v; want 31", seq, err)
	}
}

// TestWALRotateCommitRecovery: a checkpoint truncates the log — replay
// after reopen yields only the tail, and superseded files are gone.
func TestWALRotateCommitRecovery(t *testing.T) {
	dir := t.TempDir()
	l := mustCreate(t, dir, Options{})
	pre := appendN(t, l, 9, true)
	boundary, err := l.Rotate()
	if err != nil {
		t.Fatalf("Rotate: %v", err)
	}
	if boundary != 9 {
		t.Fatalf("boundary = %d, want 9", boundary)
	}
	if err := l.Commit(boundary, writeSnap("ckpt9")); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	post := appendN(t, l, 5, false)
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	_ = pre

	if _, err := os.Stat(segmentPath(dir, 0)); !os.IsNotExist(err) {
		t.Fatalf("superseded segment survives: %v", err)
	}
	if _, err := os.Stat(snapshotPath(dir, 0)); !os.IsNotExist(err) {
		t.Fatalf("superseded snapshot survives: %v", err)
	}

	l2, info, got, err := openLog(dir, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer l2.Close()
	if info.SnapshotSeq != 9 || info.LastSeq != 14 {
		t.Fatalf("info = %+v, want snapshot 9 last 14", info)
	}
	if got.snap != "SNAP:ckpt9" {
		t.Fatalf("snapshot = %q", got.snap)
	}
	sameRecs(t, got.recs, post)
}

// TestWALCommitPastRotationBoundary: the capture-after-cut protocol —
// records appended between Rotate and Commit land in the new segment with
// seq ≤ the committed checkpoint, the active segment survives pruning even
// though its name is below the checkpoint seq, and recovery replays only
// the records past the snapshot.
func TestWALCommitPastRotationBoundary(t *testing.T) {
	dir := t.TempDir()
	l := mustCreate(t, dir, Options{})
	appendN(t, l, 6, true)
	boundary, err := l.Rotate()
	if err != nil {
		t.Fatalf("Rotate: %v", err)
	}
	if boundary != 6 {
		t.Fatalf("boundary = %d, want 6", boundary)
	}
	// Ingestion continues during the capture: three more records land in
	// wal-6.log, and the engine snapshot covers them too.
	covered := appendN(t, l, 3, false)
	if err := l.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	if err := l.Commit(l.LastSeq(), writeSnap("ckpt9")); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	_ = covered
	post := appendN(t, l, 4, true)
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// wal-0.log is fully covered (its records end at 6 ≤ 9); wal-6.log must
	// survive even though 6 < 9 — its tail holds records 10..13.
	if _, err := os.Stat(segmentPath(dir, 0)); !os.IsNotExist(err) {
		t.Fatalf("superseded segment survives: %v", err)
	}
	if _, err := os.Stat(segmentPath(dir, 6)); err != nil {
		t.Fatalf("active segment pruned: %v", err)
	}

	l2, info, got, err := openLog(dir, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer l2.Close()
	if info.SnapshotSeq != 9 || info.LastSeq != 13 {
		t.Fatalf("info = %+v, want snapshot 9 last 13", info)
	}
	sameRecs(t, got.recs, post)

	// The next checkpoint prunes wal-6.log once a later segment covers it.
	if _, err := l2.Rotate(); err != nil {
		t.Fatalf("Rotate: %v", err)
	}
	if err := l2.Commit(l2.LastSeq(), writeSnap("ckpt13")); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	if _, err := os.Stat(segmentPath(dir, 6)); !os.IsNotExist(err) {
		t.Fatalf("covered segment survives second checkpoint: %v", err)
	}
}

// TestWALRecoveryTornTail: truncating the last segment mid-frame (or
// flipping a bit in its tail) recovers the longest intact prefix — never a
// panic, never an error.
func TestWALRecoveryTornTail(t *testing.T) {
	build := func(t *testing.T) (string, []rec, string) {
		dir := t.TempDir()
		l := mustCreate(t, dir, Options{})
		recs := appendN(t, l, 12, true)
		if err := l.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		return dir, recs, segmentPath(dir, 0)
	}

	t.Run("short", func(t *testing.T) {
		dir, recs, seg := build(t)
		offs, err := SegmentOffsets(seg)
		if err != nil || len(offs) != 12 {
			t.Fatalf("offsets: %v, %v", offs, err)
		}
		// Cut mid-way through the final frame.
		cut := offs[10] + (offs[11]-offs[10])/2
		if err := os.Truncate(seg, cut); err != nil {
			t.Fatal(err)
		}
		l, info, got, err := openLog(dir, Options{})
		if err != nil {
			t.Fatalf("Open after torn tail: %v", err)
		}
		defer l.Close()
		if !info.Truncated || info.LastSeq != 11 {
			t.Fatalf("info = %+v, want truncated last 11", info)
		}
		st, _ := os.Stat(seg)
		if st.Size() != offs[10] {
			t.Fatalf("segment %d bytes after truncate, want %d", st.Size(), offs[10])
		}
		sameRecs(t, got.recs, recs[:11])
	})

	t.Run("bitflip", func(t *testing.T) {
		dir, recs, seg := build(t)
		offs, err := SegmentOffsets(seg)
		if err != nil {
			t.Fatal(err)
		}
		blob, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		// Corrupt a byte inside the last frame's payload.
		blob[offs[10]+8] ^= 0x40
		if err := os.WriteFile(seg, blob, 0o644); err != nil {
			t.Fatal(err)
		}
		l, info, got, err := openLog(dir, Options{})
		if err != nil {
			t.Fatalf("Open after bit flip: %v", err)
		}
		defer l.Close()
		if !info.Truncated || info.LastSeq != 11 {
			t.Fatalf("info = %+v, want truncated last 11", info)
		}
		sameRecs(t, got.recs, recs[:11])
	})

	t.Run("empty-tail", func(t *testing.T) {
		dir, _, seg := build(t)
		if err := os.Truncate(seg, 3); err != nil { // shorter than any header
			t.Fatal(err)
		}
		l, info, _, err := openLog(dir, Options{})
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		defer l.Close()
		if !info.Truncated || info.LastSeq != 0 {
			t.Fatalf("info = %+v, want truncated last 0", info)
		}
	})
}

// TestWALRecoveryRejectsMidLogCorruption: corruption in a segment BEFORE
// the tail is unrecoverable data loss and must fail loudly, not silently
// drop records.
func TestWALRecoveryRejectsMidLogCorruption(t *testing.T) {
	dir := t.TempDir()
	l := mustCreate(t, dir, Options{})
	appendN(t, l, 6, false)
	boundary, err := l.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 6, false)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Both segments still present (no Commit), corrupt the FIRST.
	seg0 := segmentPath(dir, 0)
	blob, err := os.ReadFile(seg0)
	if err != nil {
		t.Fatal(err)
	}
	blob[len(blob)/2] ^= 0xff
	if err := os.WriteFile(seg0, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := openLog(dir, Options{}); err == nil {
		t.Fatalf("Open accepted corruption before the tail (boundary %d)", boundary)
	}
}

// TestWALFailedRecoveryLeavesDirUntouched: a corrupt record in a segment
// before the last fails Open even while the last segment has a torn tail,
// and the one-pass scan truncates nothing before it has read every earlier
// segment: every file is byte-identical afterwards.
func TestWALFailedRecoveryLeavesDirUntouched(t *testing.T) {
	dir := t.TempDir()
	l := mustCreate(t, dir, Options{})
	appendN(t, l, 6, true)
	if _, err := l.Rotate(); err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 6, false)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	seg0, seg6 := segmentPath(dir, 0), segmentPath(dir, 6)
	blob, err := os.ReadFile(seg0)
	if err != nil {
		t.Fatal(err)
	}
	blob[len(blob)/2] ^= 0xff
	if err := os.WriteFile(seg0, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	offs, err := SegmentOffsets(seg6)
	if err != nil || len(offs) != 6 {
		t.Fatalf("offsets: %v, %v", offs, err)
	}
	if err := os.Truncate(seg6, offs[4]+(offs[5]-offs[4])/2); err != nil {
		t.Fatal(err)
	}
	before := dirFiles(t, dir)
	if l2, _, _, err := openLog(dir, Options{}); err == nil {
		l2.Close()
		t.Fatal("Open accepted corruption before the tail")
	}
	if after := dirFiles(t, dir); !reflect.DeepEqual(after, before) {
		t.Fatal("a failed Open changed the directory")
	}
}

// dirFiles returns every file in dir by name, with its bytes.
func dirFiles(t *testing.T, dir string) map[string]string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string, len(ents))
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = string(b)
	}
	return out
}

// TestWALOpenRefusesMissingFirstSegment: with the first segment gone, the
// checkpoint plus the segments left cannot cover records 1–6. Open must
// refuse, naming the missing records, rather than replay 7–10 over
// snapshot 0, and must leave every file as it was.
func TestWALOpenRefusesMissingFirstSegment(t *testing.T) {
	dir := t.TempDir()
	l := mustCreate(t, dir, Options{})
	appendN(t, l, 6, true)
	if _, err := l.Rotate(); err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 4, false)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(segmentPath(dir, 0)); err != nil {
		t.Fatal(err)
	}
	before := dirFiles(t, dir)
	l2, _, got, err := openLog(dir, Options{})
	if err == nil {
		l2.Close()
		t.Fatalf("Open recovered without records 1–6 and applied %d records", len(got.recs))
	}
	if !strings.Contains(err.Error(), "records 1–6 are missing") {
		t.Fatalf("Open failed with %q, which does not name records 1–6", err)
	}
	if got.snap != "" || len(got.recs) > 0 {
		t.Fatalf("Open restored %q and applied %d records before refusing", got.snap, len(got.recs))
	}
	if after := dirFiles(t, dir); !reflect.DeepEqual(after, before) {
		t.Fatal("a failed Open changed the directory")
	}
}

// TestWALOpenFileAppends: Open hands the recovered last segment to
// Options.OpenFile and appends after its records, as FaultFS.Open does.
// Recovering under it, appending, and recovering again finds every record.
func TestWALOpenFileAppends(t *testing.T) {
	dir := t.TempDir()
	l := mustCreate(t, dir, Options{})
	want := appendN(t, l, 5, true)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, _, got, err := openLog(dir, Options{OpenFile: NewFaultFS().Open})
	if err != nil {
		t.Fatal(err)
	}
	sameRecs(t, got.recs, want)
	want = append(want, appendN(t, l2, 4, false)...)
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	l3, info, got, err := openLog(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l3.Close()
	if info.LastSeq != 9 {
		t.Fatalf("LastSeq = %d, want 9", info.LastSeq)
	}
	sameRecs(t, got.recs, want)
}

// TestWALCrashRecoverySweep drives the FaultFS page-cache model: for every
// possible torn length of the unsynced tail, recovery yields a clean,
// contiguous prefix that includes everything fsynced.
func TestWALCrashRecoverySweep(t *testing.T) {
	// Record one run to learn the cache size, then sweep torn lengths.
	probe := func(keep int) {
		fs := NewFaultFS()
		dir := t.TempDir()
		l, err := Create(dir, Options{SyncEvery: 1000, SyncInterval: 1e15, OpenFile: fs.Open}, writeSnap("init"))
		if err != nil {
			t.Fatal(err)
		}
		recs := appendN(t, l, 4, true)
		if err := l.Sync(); err != nil { // records 1..4 durable
			t.Fatal(err)
		}
		recs = append(recs, appendN(t, l, 4, false)...) // 5..8 at risk
		// Push the appended-but-pending bytes into the "page cache"
		// without fsync so a crash can tear them.
		l.flushAndSync(false)
		ff := fs.File(segmentPath(dir, 0))
		if ff == nil {
			t.Fatal("no fault file for segment")
		}
		if ff.UnsyncedLen() == 0 {
			t.Fatal("probe expected unsynced bytes")
		}
		if keep > int(ff.UnsyncedLen()) {
			return
		}
		if err := ff.Crash(keep); err != nil {
			t.Fatal(err)
		}
		// The log is now poisoned for IO but the directory is the crash
		// image; recover from it.
		l2, info, got, err := openLog(dir, Options{})
		if err != nil {
			t.Fatalf("keep=%d: Open: %v", keep, err)
		}
		defer l2.Close()
		if info.LastSeq < 4 {
			t.Fatalf("keep=%d: recovered LastSeq %d lost fsynced records", keep, info.LastSeq)
		}
		sameRecs(t, got.recs, recs[:info.LastSeq])
	}

	// Learn the unsynced size once.
	fs := NewFaultFS()
	dir := t.TempDir()
	l, err := Create(dir, Options{SyncEvery: 1000, SyncInterval: 1e15, OpenFile: fs.Open}, writeSnap("init"))
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 4, true)
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 4, false)
	l.flushAndSync(false)
	size := int(fs.File(segmentPath(dir, 0)).UnsyncedLen())
	if size == 0 {
		t.Fatal("no unsynced bytes to sweep")
	}
	for keep := 0; keep <= size; keep++ {
		probe(keep)
	}
}

// TestWALCrashRecoveryReorderedWrites: a later slice of the unsynced tail
// persists while an earlier hole reads back as zeros — recovery must stop
// at the hole.
func TestWALCrashRecoveryReorderedWrites(t *testing.T) {
	fs := NewFaultFS()
	dir := t.TempDir()
	l, err := Create(dir, Options{SyncEvery: 1000, SyncInterval: 1e15, OpenFile: fs.Open}, writeSnap("init"))
	if err != nil {
		t.Fatal(err)
	}
	recs := appendN(t, l, 3, false)
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 5, true)
	l.flushAndSync(false)
	ff := fs.File(segmentPath(dir, 0))
	n := int(ff.UnsyncedLen())
	if n < 8 {
		t.Fatalf("want a multi-record unsynced tail, have %d bytes", n)
	}
	// Persist only the second half of the tail; the first half is a hole.
	if err := ff.CrashReordered(n/2, n); err != nil {
		t.Fatal(err)
	}
	l2, info, got, err := openLog(dir, Options{})
	if err != nil {
		t.Fatalf("Open after reordered crash: %v", err)
	}
	defer l2.Close()
	if !info.Truncated {
		t.Fatal("zeroed hole not detected as torn tail")
	}
	if info.LastSeq != 3 {
		t.Fatalf("LastSeq = %d, want the fsynced prefix 3", info.LastSeq)
	}
	sameRecs(t, got.recs, recs[:3])
}

// TestWALWriteFailurePoisonsLog: an injected write error surfaces on
// Append/Sync and every later call — no panic, no silent loss.
func TestWALWriteFailurePoisonsLog(t *testing.T) {
	fs := NewFaultFS()
	fs.NextFailWriteAt = 100
	dir := t.TempDir()
	l, err := Create(dir, Options{SyncEvery: 1, OpenFile: fs.Open}, writeSnap("init"))
	if err != nil {
		t.Fatal(err)
	}
	var firstErr error
	for i := 0; i < 64 && firstErr == nil; i++ {
		_, firstErr = l.Append([]int{i, i + 1, i + 2}, []float64{1, 2, 3})
	}
	if firstErr == nil {
		t.Fatal("write failure never surfaced")
	}
	if _, err := l.Append([]int{1}, nil); err == nil {
		t.Fatal("poisoned log accepted a new append")
	}
	if err := l.Close(); err == nil {
		t.Fatal("poisoned log closed clean")
	}
}

// TestWALSyncFailureSurfaces: fsync failure reaches the SyncEvery=1
// appender (which must not hang) and poisons the log.
func TestWALSyncFailureSurfaces(t *testing.T) {
	fs := NewFaultFS()
	fs.NextFailSync = true
	dir := t.TempDir()
	l, err := Create(dir, Options{SyncEvery: 1, OpenFile: fs.Open}, writeSnap("init"))
	// Create's initial Commit never fsyncs through the segment file, so it
	// succeeds; the first append hits the failure.
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append([]int{1, 2}, nil); err == nil {
		t.Fatal("fsync failure never surfaced to the appender")
	}
	if err := l.Sync(); err == nil {
		t.Fatal("Sync reported success on a poisoned log")
	}
}

// TestWALGroupCommitCoalesces: with SyncEvery=1, concurrent appenders share
// fsyncs — and every append is durable when it returns.
func TestWALGroupCommitCoalesces(t *testing.T) {
	dir := t.TempDir()
	l := mustCreate(t, dir, Options{SyncEvery: 1})
	const G, per = 8, 25
	var wg sync.WaitGroup
	for g := 0; g < G; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if _, err := l.Append([]int{g, i}, nil); err != nil {
					t.Errorf("append: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	st := l.Stats()
	if st.Appends != G*per {
		t.Fatalf("appends = %d, want %d", st.Appends, G*per)
	}
	if st.SyncedSeq != uint64(G*per) {
		t.Fatalf("SyncedSeq = %d, want %d (SyncEvery=1 must be durable on return)", st.SyncedSeq, G*per)
	}
	if st.Fsyncs == 0 || st.Fsyncs > st.Appends {
		t.Fatalf("fsyncs = %d for %d appends", st.Fsyncs, st.Appends)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// All records intact on reopen.
	l2, info, got, err := openLog(dir, Options{})
	if err != nil || info.LastSeq != G*per {
		t.Fatalf("reopen: last %d, %v", info.LastSeq, err)
	}
	if seen := len(got.recs); seen != G*per {
		t.Fatalf("replayed %d, want %d", seen, G*per)
	}
	l2.Close()
}

// TestWALSyncEveryCoalescesSequentialAppends: one producer appending in
// sequence fsyncs strictly fewer times at SyncEvery = 64 than at
// SyncEvery = 1. Each append waits until the flusher has written it, so the
// records reach the file one flush at a time, as from a producer slower
// than the flusher, and only the SyncEvery policy decides how many of those
// flushes fsync. SyncInterval is an hour, so the interval never does.
func TestWALSyncEveryCoalescesSequentialAppends(t *testing.T) {
	const appends = 128
	fsyncs := func(syncEvery int) int64 {
		l := mustCreate(t, t.TempDir(), Options{SyncEvery: syncEvery, SyncInterval: time.Hour})
		for i := 0; i < appends; i++ {
			seq, err := l.Append([]int{i + 1, 2 * (i + 1)}, []float64{1.5, float64(i)})
			if err != nil {
				t.Fatalf("Append %d: %v", i, err)
			}
			l.mu.Lock()
			for l.writtenSeq < seq && l.err == nil {
				l.cond.Wait()
			}
			l.mu.Unlock()
		}
		if err := l.Sync(); err != nil {
			t.Fatal(err)
		}
		st := l.Stats()
		if st.Appends != appends || st.AppendedBytes <= 0 || st.Fsyncs <= 0 {
			t.Fatalf("sync-every=%d: log recorded nothing: %+v", syncEvery, st)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		return st.Fsyncs
	}
	every1, every64 := fsyncs(1), fsyncs(64)
	if every64 >= every1 {
		t.Errorf("fsyncs: sync-every=1 %d, sync-every=64 %d — no group-commit coalescing", every1, every64)
	}
}

// TestWALOpenErrors: the paths that must fail do fail.
func TestWALOpenErrors(t *testing.T) {
	if _, _, _, err := openLog(t.TempDir(), Options{}); err == nil {
		t.Fatal("Open on an empty dir succeeded")
	}
	dir := t.TempDir()
	l := mustCreate(t, dir, Options{})
	l.Close()
	if _, err := Create(dir, Options{}, writeSnap("again")); err == nil {
		t.Fatal("Create over an existing log succeeded")
	}
	// A manifest whose snapshot vanished is unrecoverable.
	if err := os.Remove(snapshotPath(dir, 0)); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := openLog(dir, Options{}); err == nil {
		t.Fatal("Open without the manifest's snapshot succeeded")
	}
}

// TestWALManifestIsAtomic: a leftover manifest temp file (crash mid-commit)
// does not confuse recovery.
func TestWALManifestIsAtomic(t *testing.T) {
	dir := t.TempDir()
	l := mustCreate(t, dir, Options{})
	recs := appendN(t, l, 5, false)
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-Commit: tmp files written, rename never happened.
	if err := os.WriteFile(filepath.Join(dir, manifestName+".tmp"), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(snapshotPath(dir, 5)+".tmp", []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	l.Close()
	l2, info, got, err := openLog(dir, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer l2.Close()
	if info.SnapshotSeq != 0 || info.LastSeq != 5 {
		t.Fatalf("info = %+v", info)
	}
	sameRecs(t, got.recs, recs)
}

// TestWALStatsAccounting sanity-checks the counters the /metrics endpoint
// exports.
func TestWALStatsAccounting(t *testing.T) {
	dir := t.TempDir()
	l := mustCreate(t, dir, Options{SyncEvery: 4})
	appendN(t, l, 10, true)
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	st := l.Stats()
	if st.Appends != 10 || st.LastSeq != 10 || st.SyncedSeq != 10 {
		t.Fatalf("stats = %+v", st)
	}
	if st.AppendedBytes <= 0 || st.Flushes <= 0 || st.Fsyncs <= 0 || st.MaxGroup <= 0 {
		t.Fatalf("degenerate stats: %+v", st)
	}
	if _, err := l.Rotate(); err != nil {
		t.Fatal(err)
	}
	if got := l.Stats().Rotations; got != 1 {
		t.Fatalf("rotations = %d", got)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestWALBackpressure: appenders stall (rather than buffering unboundedly)
// when the flusher cannot drain, and resume when it can. Uses a fault file
// with sync disabled but writes allowed — pending drains normally, so this
// just exercises the bound arithmetic with big batches.
func TestWALBackpressure(t *testing.T) {
	dir := t.TempDir()
	l := mustCreate(t, dir, Options{SyncEvery: 1 << 30, SyncInterval: 1e15})
	big := make([]int, 64<<10)
	for i := range big {
		big[i] = i
	}
	for i := 0; i < 40; i++ { // ~40 × ~128KiB of varints ≫ maxPendingBytes
		if _, err := l.Append(big, nil); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, info, _, err := openLog(dir, Options{})
	if err != nil || info.LastSeq != 40 {
		t.Fatalf("reopen: %+v, %v", info, err)
	}
	l2.Close()
}

func TestWALSegmentNamesSortable(t *testing.T) {
	for _, seq := range []uint64{0, 9, 10, 99, 1 << 40} {
		p := segmentPath("d", seq)
		q := snapshotPath("d", seq)
		if filepath.Dir(p) != "d" || filepath.Dir(q) != "d" {
			t.Fatalf("bad paths %q %q", p, q)
		}
	}
	a := segmentPath("", 2)
	b := segmentPath("", 10)
	if !(a < b) {
		t.Fatalf("zero-padded names must sort numerically: %q vs %q", a, b)
	}
}

func TestWALExists(t *testing.T) {
	dir := t.TempDir()
	if Exists(dir) {
		t.Fatal("empty dir reported as a log")
	}
	l := mustCreate(t, dir, Options{})
	defer l.Close()
	if !Exists(dir) {
		t.Fatal("created log not detected")
	}
}

// TestWALFailPoisonsLog: a caller-injected failure (Log.Fail) poisons the
// log exactly like an internal IO error — the first error wins and every
// later Append, Sync, and Rotate returns it.
func TestWALFailPoisonsLog(t *testing.T) {
	l := mustCreate(t, t.TempDir(), Options{})
	if _, err := l.Append([]int{1, 2}, nil); err != nil {
		t.Fatal(err)
	}
	sentinel := errors.New("engine diverged from the log")
	l.Fail(nil) // nil is ignored
	if _, err := l.Append([]int{3}, nil); err != nil {
		t.Fatalf("Append after Fail(nil) = %v, want success", err)
	}
	l.Fail(sentinel)
	l.Fail(errors.New("a later failure")) // first error wins
	if _, err := l.Append([]int{4}, nil); !errors.Is(err, sentinel) {
		t.Fatalf("Append after Fail = %v, want the injected error", err)
	}
	if err := l.Sync(); !errors.Is(err, sentinel) {
		t.Fatalf("Sync after Fail = %v, want the injected error", err)
	}
	if _, err := l.Rotate(); !errors.Is(err, sentinel) {
		t.Fatalf("Rotate after Fail = %v, want the injected error", err)
	}
	if err := l.Close(); err == nil {
		t.Fatal("failed log closed clean")
	}
}
