package stream

import (
	"bytes"
	"fmt"
	"maps"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/wal"
)

const (
	crashN   = 1000
	crashK   = 8
	crashP   = 2  // shards
	crashCap = 32 // bufferCap
)

// crashCall is the deterministic ingest trace shared by the recovery tests
// and the kill-mid-run child process: call i is one AddBatch of 1–5 points,
// every third call with unit (nil) weights.
func crashCall(i int) (pts []int, ws []float64) {
	sz := 1 + i%5
	pts = make([]int, sz)
	if i%3 != 0 {
		ws = make([]float64, sz)
	}
	for j := range pts {
		pts[j] = 1 + (i*131+j*29)%crashN
		if ws != nil {
			ws[j] = 0.25 * float64(1+(i+j)%8)
		}
	}
	return pts, ws
}

// referenceSharded re-fits a fresh in-memory engine on the first calls of
// the trace — the uninterrupted run every recovery is compared against.
func referenceSharded(t *testing.T, calls int) *Sharded {
	t.Helper()
	s, err := NewSharded(crashN, crashK, crashP, crashCap, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < calls; i++ {
		pts, ws := crashCall(i)
		if err := s.AddBatch(pts, ws); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// waitQuiesce waits out every background compaction so the engine's state
// is a pure function of its input trace, not of goroutine timing.
func waitQuiesce(s *Sharded) {
	for _, sh := range s.shards {
		sh.mu.Lock()
		for sh.compacting {
			sh.cond.Wait()
		}
		sh.mu.Unlock()
	}
}

// requireBitIdentical asserts got and want agree bit-for-bit: update and
// compaction counters, EstimateRange over a probe grid (exercising both the
// installed views and the pending-update scans), and the merged Summary's
// encoded bytes. Both engines are quiesced first.
func requireBitIdentical(t *testing.T, label string, got, want *Sharded) {
	t.Helper()
	waitQuiesce(got)
	waitQuiesce(want)
	if g, w := got.Updates(), want.Updates(); g != w {
		t.Fatalf("%s: updates %d, want %d", label, g, w)
	}
	if g, w := got.Compactions(), want.Compactions(); g != w {
		t.Fatalf("%s: compactions %d, want %d (cadence diverged)", label, g, w)
	}
	probe := func(a, b int) {
		g, err1 := got.EstimateRange(a, b)
		w, err2 := want.EstimateRange(a, b)
		if err1 != nil || err2 != nil {
			t.Fatalf("%s: EstimateRange(%d,%d): %v, %v", label, a, b, err1, err2)
		}
		if math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("%s: EstimateRange(%d,%d) = %v (%#x), want %v (%#x)",
				label, a, b, g, math.Float64bits(g), w, math.Float64bits(w))
		}
	}
	probe(1, crashN)
	for a := 1; a <= crashN; a += 97 {
		b := a + 53
		if b > crashN {
			b = crashN
		}
		probe(a, b)
		probe(a, a)
	}
	gh, err := got.Summary()
	if err != nil {
		t.Fatalf("%s: got Summary: %v", label, err)
	}
	wh, err := want.Summary()
	if err != nil {
		t.Fatalf("%s: want Summary: %v", label, err)
	}
	var gb, wb bytes.Buffer
	if _, err := gh.WriteTo(&gb); err != nil {
		t.Fatal(err)
	}
	if _, err := wh.WriteTo(&wb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gb.Bytes(), wb.Bytes()) {
		t.Fatalf("%s: Summary encodings differ (%d vs %d bytes)", label, gb.Len(), wb.Len())
	}
}

func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		blob, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), blob, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// TestDurableShardedRecoveryBoundarySweep is the torn-tail recovery
// property test: one recorded run, then a simulated crash at EVERY WAL
// frame boundary (and inside selected frames). Each recovery must be
// bit-identical to a fresh re-fit of the surviving prefix — and must
// CONTINUE bit-identically when fed the rest of the trace, which is what
// the compaction-cadence normalization buys.
func TestDurableShardedRecoveryBoundarySweep(t *testing.T) {
	if testing.Short() {
		t.Skip("sweeps ~60 recoveries")
	}
	const calls = 60
	recordDir := t.TempDir()
	d, err := NewDurableSharded(crashN, crashK, crashP, crashCap, core.DefaultOptions(), DurableOptions{
		Dir:             recordDir,
		SyncEvery:       1,
		CheckpointEvery: -1, // single segment: every frame boundary is a crash point
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < calls; i++ {
		pts, ws := crashCall(i)
		if err := d.AddBatch(pts, ws); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	seg := wal.SegmentPath(recordDir, 0)
	offs, err := wal.SegmentOffsets(seg)
	if err != nil {
		t.Fatal(err)
	}
	if len(offs) != calls {
		t.Fatalf("recorded %d frames, want %d", len(offs), calls)
	}
	base := copyDir(t, recordDir) // frozen image; d can now be closed
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	recoverAt := func(t *testing.T, cut int64, wantRecords int) {
		dir := copyDir(t, base)
		if err := os.Truncate(wal.SegmentPath(dir, 0), cut); err != nil {
			t.Fatal(err)
		}
		rec, err := RecoverDurableSharded(DurableOptions{Dir: dir, SyncEvery: 1, CheckpointEvery: -1})
		if err != nil {
			t.Fatalf("recover at %d bytes: %v", cut, err)
		}
		defer rec.Close()
		if rec.Replayed() != wantRecords {
			t.Fatalf("cut %d: replayed %d records, want %d", cut, rec.Replayed(), wantRecords)
		}
		ref := referenceSharded(t, wantRecords)
		requireBitIdentical(t, "recovered", rec.Engine(), ref)
		// Resume: the recovered engine fed the rest of the trace must track
		// the uninterrupted run exactly.
		for i := wantRecords; i < calls; i++ {
			pts, ws := crashCall(i)
			if err := rec.AddBatch(pts, ws); err != nil {
				t.Fatal(err)
			}
			if err := ref.AddBatch(pts, ws); err != nil {
				t.Fatal(err)
			}
		}
		requireBitIdentical(t, "resumed", rec.Engine(), ref)
	}

	// Every frame boundary (crash exactly between two records).
	for j := 0; j <= calls; j++ {
		cut := int64(0)
		if j > 0 {
			cut = offs[j-1]
		}
		recoverAt(t, cut, j)
	}
	// Mid-frame cuts: the torn final record must be discarded cleanly.
	for _, j := range []int{0, 7, 23, 41, calls - 1} {
		lo := int64(0)
		if j > 0 {
			lo = offs[j-1]
		}
		recoverAt(t, lo+(offs[j]-lo)/2, j)
	}
}

// TestDurableShardedRecoveryAfterCleanClose: a clean shutdown checkpoints
// everything — recovery replays nothing and matches the reference.
func TestDurableShardedRecoveryAfterCleanClose(t *testing.T) {
	dir := t.TempDir()
	d, err := NewDurableSharded(crashN, crashK, crashP, crashCap, core.DefaultOptions(), DurableOptions{
		Dir: dir, SyncEvery: 4, CheckpointEvery: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	const calls = 40
	for i := 0; i < calls; i++ {
		pts, ws := crashCall(i)
		if err := d.AddBatch(pts, ws); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err := RecoverDurableSharded(DurableOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if rec.Replayed() != 0 {
		t.Fatalf("clean close left %d records to replay", rec.Replayed())
	}
	requireBitIdentical(t, "clean-close", rec.Engine(), referenceSharded(t, calls))
}

// TestDurableShardedWALCheckpointTruncates: count-triggered checkpoints
// rotate and truncate the log while ingestion continues, and recovery from
// the multi-checkpoint directory still matches the reference.
func TestDurableShardedWALCheckpointTruncates(t *testing.T) {
	dir := t.TempDir()
	d, err := NewDurableSharded(crashN, crashK, crashP, crashCap, core.DefaultOptions(), DurableOptions{
		Dir: dir, SyncEvery: 1, CheckpointEvery: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	const calls = 75
	for i := 0; i < calls; i++ {
		pts, ws := crashCall(i)
		if err := d.AddBatch(pts, ws); err != nil {
			t.Fatal(err)
		}
	}
	// Force the single-flight background checkpoints to settle.
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st := d.Stats()
	if st.Checkpoints < 2 {
		t.Fatalf("checkpoints = %d, want ≥ 2", st.Checkpoints)
	}
	if st.WAL.Rotations < 2 {
		t.Fatalf("rotations = %d, want ≥ 2", st.WAL.Rotations)
	}
	if st.WAL.LastSeq != calls {
		t.Fatalf("LastSeq = %d, want %d", st.WAL.LastSeq, calls)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err := RecoverDurableSharded(DurableOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	requireBitIdentical(t, "multi-checkpoint", rec.Engine(), referenceSharded(t, calls))
}

// TestDurableShardedRejectsInvalidBeforeLogging: a bad update must fail
// without reaching the WAL, so every logged record replays cleanly.
func TestDurableShardedRejectsInvalidBeforeLogging(t *testing.T) {
	d, err := NewDurableSharded(crashN, crashK, crashP, crashCap, core.DefaultOptions(), DurableOptions{
		Dir: t.TempDir(), CheckpointEvery: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := d.Add(0, 1); err == nil {
		t.Fatal("Add(0) accepted")
	}
	if err := d.Add(crashN+1, 1); err == nil {
		t.Fatal("Add(n+1) accepted")
	}
	if err := d.AddBatch([]int{1, crashN + 7}, nil); err == nil {
		t.Fatal("batch with invalid point accepted")
	}
	if err := d.AddBatch([]int{1, 2}, []float64{1}); err == nil {
		t.Fatal("mismatched weights accepted")
	}
	if got := d.Stats().WAL.Appends; got != 0 {
		t.Fatalf("%d invalid updates reached the WAL", got)
	}
}

// TestDurableMaintainerRecoveryBitIdentical: the single-lane durable
// engine, a one-shard DurableSharded, recovers from crashes at several
// record boundaries bit-identically to a one-shard Sharded fed the same
// prefix, and resumes on the original cadence. requireBitIdentical quiesces
// both engines first: a one-shard Sharded compacts in the background.
func TestDurableMaintainerRecoveryBitIdentical(t *testing.T) {
	dir := t.TempDir()
	d, err := NewDurableSharded(crashN, crashK, 1, crashCap, core.DefaultOptions(), DurableOptions{
		Dir: dir, SyncEvery: 1, CheckpointEvery: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	const calls = 50
	for i := 0; i < calls; i++ {
		pts, ws := crashCall(i)
		if err := d.AddBatch(pts, ws); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	seg := wal.SegmentPath(dir, 0)
	offs, err := wal.SegmentOffsets(seg)
	if err != nil || len(offs) != calls {
		t.Fatalf("offsets: %d, %v", len(offs), err)
	}
	base := copyDir(t, dir)
	d.Close()

	for _, j := range []int{0, 1, 17, 33, calls} {
		cutDir := copyDir(t, base)
		cut := int64(0)
		if j > 0 {
			cut = offs[j-1]
		}
		if err := os.Truncate(wal.SegmentPath(cutDir, 0), cut); err != nil {
			t.Fatal(err)
		}
		rec, err := RecoverDurableSharded(DurableOptions{Dir: cutDir, CheckpointEvery: -1})
		if err != nil {
			t.Fatalf("recover at %d records: %v", j, err)
		}
		ref, err := NewSharded(crashN, crashK, 1, crashCap, core.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < j; i++ {
			pts, ws := crashCall(i)
			if err := ref.AddBatch(pts, ws); err != nil {
				t.Fatal(err)
			}
		}
		requireBitIdentical(t, fmt.Sprintf("recovered at %d records", j), rec.Engine(), ref)
		for i := j; i < calls; i++ {
			pts, ws := crashCall(i)
			if err := ref.AddBatch(pts, ws); err != nil {
				t.Fatal(err)
			}
			if err := rec.AddBatch(pts, ws); err != nil {
				t.Fatal(err)
			}
		}
		requireBitIdentical(t, fmt.Sprintf("resumed from %d records", j), rec.Engine(), ref)
		if err := rec.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDurableShardedWALCheckpointInterval: with count-triggered checkpoints
// off, the CheckpointInterval ticker alone cuts checkpoints and rotates the
// log, and Close still commits cleanly after it.
func TestDurableShardedWALCheckpointInterval(t *testing.T) {
	d, err := NewDurableSharded(crashN, crashK, crashP, crashCap, core.DefaultOptions(), DurableOptions{
		Dir: t.TempDir(), CheckpointEvery: -1, CheckpointInterval: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		pts, ws := crashCall(i)
		if err := d.AddBatch(pts, ws); err != nil {
			t.Fatal(err)
		}
	}
	for deadline := time.Now().Add(10 * time.Second); ; {
		st := d.Stats()
		if st.Checkpoints >= 2 && st.WAL.Rotations >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("after 10s: %d checkpoints, %d rotations, want ≥ 2 each", st.Checkpoints, st.WAL.Rotations)
		}
		time.Sleep(time.Millisecond)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDurableShardedRecoveryRefusesMaintainerWAL: a WAL directory whose
// checkpoint holds a Maintainer, plain or windowed (what a serial engine's
// durable wrapper wrote), is refused with an error naming the maintainer
// checkpoint. Open must not fall back to creating a fresh engine over it:
// every file keeps its name and size.
func TestDurableShardedRecoveryRefusesMaintainerWAL(t *testing.T) {
	plain, err := NewMaintainer(crashN, crashK, crashCap, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	windowed, err := NewWindowedMaintainer(crashN, crashK, 3, crashCap, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	sizes := func(t *testing.T, dir string) map[string]int64 {
		t.Helper()
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		out := make(map[string]int64, len(ents))
		for _, e := range ents {
			fi, err := e.Info()
			if err != nil {
				t.Fatal(err)
			}
			out[e.Name()] = fi.Size()
		}
		return out
	}
	for _, tc := range []struct {
		name string
		m    *Maintainer
	}{{"plain", plain}, {"windowed", windowed}} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			l, err := wal.Create(dir, wal.Options{SyncEvery: 1}, tc.m.Snapshot)
			if err != nil {
				t.Fatal(err)
			}
			pts, ws := crashCall(1)
			if _, err := l.Append(pts, ws); err != nil {
				t.Fatal(err)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			before := sizes(t, dir)
			opts := DurableOptions{Dir: dir, SyncEvery: 1, CheckpointEvery: -1}
			for _, open := range []struct {
				name string
				fn   func() (*DurableSharded, error)
			}{
				{"RecoverDurableSharded", func() (*DurableSharded, error) { return RecoverDurableSharded(opts) }},
				{"OpenDurableSharded", func() (*DurableSharded, error) {
					return OpenDurableSharded(crashN, crashK, crashP, crashCap, core.DefaultOptions(), opts)
				}},
			} {
				d, err := open.fn()
				if err == nil {
					d.Close()
					t.Fatalf("%s accepted a maintainer checkpoint", open.name)
				}
				if !strings.Contains(err.Error(), "checkpoint holds a maintainer") {
					t.Fatalf("%s: %v, want an error naming the maintainer checkpoint", open.name, err)
				}
				if got := sizes(t, dir); !maps.Equal(got, before) {
					t.Fatalf("%s changed the directory: %v, was %v", open.name, got, before)
				}
			}
		})
	}
}

// TestDurableShardedWALFaultPoisonsIngest: injected IO failures surface as
// ingest errors, never panics, and the engine refuses further durable
// writes.
func TestDurableShardedWALFaultPoisonsIngest(t *testing.T) {
	fs := wal.NewFaultFS()
	fs.NextFailWriteAt = 400
	d, err := NewDurableSharded(crashN, crashK, crashP, crashCap, core.DefaultOptions(), DurableOptions{
		Dir: t.TempDir(), SyncEvery: 1, CheckpointEvery: -1, OpenFile: fs.Open,
	})
	if err != nil {
		t.Fatal(err)
	}
	var ingestErr error
	for i := 0; i < 256 && ingestErr == nil; i++ {
		pts, ws := crashCall(i)
		ingestErr = d.AddBatch(pts, ws)
	}
	if ingestErr == nil {
		t.Fatal("injected write failure never surfaced")
	}
	if err := d.Add(1, 1); err == nil {
		t.Fatal("poisoned engine accepted a new update")
	}
	if err := d.Close(); err == nil {
		t.Fatal("poisoned engine closed clean")
	}
}
