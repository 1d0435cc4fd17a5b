package stream

import (
	"bytes"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/rng"
)

// streamFixture returns a deterministic update stream with weighted inserts,
// deletions, and hot points — the adversarial shapes of the maintenance
// setting.
func streamFixture(n, total int, seed uint64) (points []int, weights []float64) {
	r := rng.New(seed)
	points = make([]int, total)
	weights = make([]float64, total)
	for i := range points {
		switch i % 7 {
		case 0: // hot point
			points[i] = 1 + int(r.Uint64()%8)
		default:
			points[i] = 1 + int(r.Uint64()%uint64(n))
		}
		w := r.NormFloat64()
		if i%11 == 0 {
			w = -w // deletions
		}
		weights[i] = w
	}
	return points, weights
}

func histogramsBitIdentical(t *testing.T, got, want *core.Histogram, label string) {
	t.Helper()
	if got.N() != want.N() || got.NumPieces() != want.NumPieces() {
		t.Fatalf("%s: shape n=%d pieces=%d, want n=%d pieces=%d",
			label, got.N(), got.NumPieces(), want.N(), want.NumPieces())
	}
	for i, pc := range want.Pieces() {
		gpc := got.Pieces()[i]
		if gpc.Interval != pc.Interval || math.Float64bits(gpc.Value) != math.Float64bits(pc.Value) {
			t.Fatalf("%s: piece %d = %+v, want %+v", label, i, gpc, pc)
		}
	}
}

func TestMaintainerSnapshotRestoreResumesBitIdentically(t *testing.T) {
	const n, k, total = 5000, 8, 9000
	points, weights := streamFixture(n, total, 1207)

	uninterrupted, err := NewMaintainer(n, k, 0, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	interrupted, err := NewMaintainer(n, k, 0, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Feed the first part to both; cut mid-buffer so the snapshot carries a
	// non-empty pending log.
	cut := total/2 + 17
	for i := 0; i < cut; i++ {
		if err := uninterrupted.Add(points[i], weights[i]); err != nil {
			t.Fatal(err)
		}
		if err := interrupted.Add(points[i], weights[i]); err != nil {
			t.Fatal(err)
		}
	}
	if len(interrupted.buffer) == 0 {
		t.Fatal("fixture does not leave a pending buffer at the cut; adjust the cut")
	}
	preCompactions := interrupted.Compactions()

	var blob bytes.Buffer
	if err := interrupted.Snapshot(&blob); err != nil {
		t.Fatal(err)
	}
	if interrupted.Compactions() != preCompactions {
		t.Fatal("Snapshot forced a compaction")
	}
	snapBytes := append([]byte{}, blob.Bytes()...)

	restored, err := RestoreMaintainer(bytes.NewReader(snapBytes))
	if err != nil {
		t.Fatal(err)
	}
	if restored.Updates() != interrupted.Updates() || restored.Compactions() != interrupted.Compactions() {
		t.Fatalf("restored counters %d/%d, want %d/%d",
			restored.Updates(), restored.Compactions(), interrupted.Updates(), interrupted.Compactions())
	}

	// EstimateRange at the snapshot point must agree bit-for-bit.
	for a := 1; a < n; a += 613 {
		b := a + 400
		if b > n {
			b = n
		}
		want, err1 := interrupted.EstimateRange(a, b)
		got, err2 := restored.EstimateRange(a, b)
		if err1 != nil || err2 != nil || math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("EstimateRange(%d, %d) = %v, want %v", a, b, got, want)
		}
	}

	// Snapshot of the restored maintainer reproduces the checkpoint bytes.
	blob.Reset()
	if err := restored.Snapshot(&blob); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snapBytes, blob.Bytes()) {
		t.Fatal("snapshot → restore → snapshot bytes differ")
	}

	// Resume: the restored maintainer and the uninterrupted one see the same
	// remaining stream and must land on bit-identical summaries with the
	// same compaction cadence.
	for i := cut; i < total; i++ {
		if err := uninterrupted.Add(points[i], weights[i]); err != nil {
			t.Fatal(err)
		}
		if err := restored.Add(points[i], weights[i]); err != nil {
			t.Fatal(err)
		}
	}
	if restored.Compactions() != uninterrupted.Compactions() {
		t.Fatalf("compaction cadence diverged: %d vs %d",
			restored.Compactions(), uninterrupted.Compactions())
	}
	hw, err := uninterrupted.Summary()
	if err != nil {
		t.Fatal(err)
	}
	hg, err := restored.Summary()
	if err != nil {
		t.Fatal(err)
	}
	histogramsBitIdentical(t, hg, hw, "resumed summary")
}

func TestShardedSnapshotRestoreResumesBitIdentically(t *testing.T) {
	const n, k, shards, total = 4000, 6, 4, 12000
	points, weights := streamFixture(n, total, 99)

	run := func(interruptAt int) *core.Histogram {
		s, err := NewSharded(n, k, shards, 128, core.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < total; i++ {
			if i == interruptAt {
				var blob bytes.Buffer
				if err := s.Snapshot(&blob); err != nil {
					t.Fatal(err)
				}
				// "Crash": drop the live engine, restore from bytes.
				s, err = RestoreSharded(bytes.NewReader(blob.Bytes()))
				if err != nil {
					t.Fatal(err)
				}
				if s.Shards() != shards {
					t.Fatalf("restored %d shards, want %d", s.Shards(), shards)
				}
			}
			if err := s.Add(points[i], weights[i]); err != nil {
				t.Fatal(err)
			}
		}
		h, err := s.Summary()
		if err != nil {
			t.Fatal(err)
		}
		if got := s.Updates(); got != total {
			t.Fatalf("Updates = %d, want %d", got, total)
		}
		return h
	}

	want := run(-1) // uninterrupted
	for _, at := range []int{0, 1000, total/2 + 31, total - 1} {
		got := run(at)
		histogramsBitIdentical(t, got, want, "sharded resume")
	}
}

func TestShardedSnapshotEstimateRangeAgrees(t *testing.T) {
	const n, k, shards, total = 3000, 5, 3, 5000
	points, weights := streamFixture(n, total, 314)
	s, err := NewSharded(n, k, shards, 64, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < total; i++ {
		if err := s.Add(points[i], weights[i]); err != nil {
			t.Fatal(err)
		}
	}
	var blob bytes.Buffer
	if err := s.Snapshot(&blob); err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreSharded(bytes.NewReader(blob.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for a := 1; a < n; a += 401 {
		b := a + 350
		if b > n {
			b = n
		}
		want, err1 := s.EstimateRange(a, b)
		got, err2 := restored.EstimateRange(a, b)
		if err1 != nil || err2 != nil || math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("EstimateRange(%d, %d) = %v (%v), want %v (%v)", a, b, got, err2, want, err1)
		}
	}
	// Counters must carry over.
	if restored.Updates() != s.Updates() || restored.Compactions() != s.Compactions() {
		t.Fatalf("restored counters %d/%d, want %d/%d",
			restored.Updates(), restored.Compactions(), s.Updates(), s.Compactions())
	}
}

// TestCheckpointLargeDomain pins the fix for value integers (domain size,
// counters) being capped by the length-prefix sanity bound: a maintainer
// over a 300M-point domain must snapshot AND restore.
func TestCheckpointLargeDomain(t *testing.T) {
	const n = 300_000_000
	m, err := NewMaintainer(n, 3, 16, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if err := m.Add(1+i*7_000_000, 1); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := m.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreMaintainer(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("large-domain checkpoint failed to restore: %v", err)
	}
	want, _ := m.EstimateRange(1, n)
	got, err := restored.EstimateRange(1, n)
	if err != nil || math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("EstimateRange(1, n) = %v (%v), want %v", got, err, want)
	}
}

func TestCheckpointRejectsMalformed(t *testing.T) {
	m, err := NewMaintainer(100, 3, 16, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 60; i++ {
		if err := m.Add(1+(i*7)%100, float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := m.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	for cut := 0; cut < len(good); cut++ {
		if _, err := RestoreMaintainer(bytes.NewReader(good[:cut])); err == nil {
			t.Fatalf("accepted truncation at %d/%d", cut, len(good))
		}
	}
	for pos := 6; pos < len(good)-1; pos += 2 {
		bad := append([]byte{}, good...)
		bad[pos] ^= 0x20
		if _, err := RestoreMaintainer(bytes.NewReader(bad)); err == nil {
			t.Fatalf("corruption at byte %d decoded silently", pos)
		}
	}

	// A maintainer checkpoint is not a sharded checkpoint.
	if _, err := RestoreSharded(bytes.NewReader(good)); err == nil {
		t.Fatal("RestoreSharded accepted a maintainer checkpoint")
	}
}

// TestConstructorsRejectUncheckpointableConfig: a checkpoint carries n, k
// and the buffer capacity under codec.MaxInt, so every constructor refuses a
// larger one instead of building an engine whose snapshot cannot restore,
// and the durable constructor refuses before it creates its WAL directory.
func TestConstructorsRejectUncheckpointableConfig(t *testing.T) {
	const n, big = 600, codec.MaxInt + 1
	opts := core.DefaultOptions()
	dir := filepath.Join(t.TempDir(), "wal")
	constructors := map[string]func(n, k, bufferCap int) error{
		"NewMaintainer": func(n, k, c int) error { _, err := NewMaintainer(n, k, c, opts); return err },
		"NewSharded":    func(n, k, c int) error { _, err := NewSharded(n, k, 2, c, opts); return err },
		"NewWindowedMaintainer": func(n, k, c int) error {
			_, err := NewWindowedMaintainer(n, k, 4, c, opts)
			return err
		},
		"NewWindowedSharded": func(n, k, c int) error { _, err := NewWindowedSharded(n, k, 4, 2, c, opts); return err },
		"NewDurableSharded": func(n, k, c int) error {
			d, err := NewDurableSharded(n, k, 1, c, opts, DurableOptions{Dir: dir})
			if err == nil {
				d.Close()
			}
			return err
		},
	}
	for name, build := range constructors {
		if err := build(n, big, 64); err == nil {
			t.Errorf("%s accepted k = 2^62", name)
		}
		if err := build(n, 10, big); err == nil {
			t.Errorf("%s accepted buffer capacity 2^62", name)
		}
		if err := build(big, 10, 64); err == nil {
			t.Errorf("%s accepted n = 2^62", name)
		}
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatalf("a refused NewDurableSharded created its WAL directory: %v", err)
	}
}

// TestLargestCheckpointableConfigRoundTrips: k = codec.MaxInt, a buffer
// capacity of codec.MaxInt (a log that grows by append), the default buffer
// of a 2^61-point domain at that k, and the largest domain, n =
// codec.MaxInt, snapshot and restore with their pending updates intact.
func TestLargestCheckpointableConfigRoundTrips(t *testing.T) {
	const n = 600
	points, weights := streamFixture(n, 100, 77)
	m, err := NewMaintainer(n, codec.MaxInt, 0, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	big, err := NewMaintainer(n, 10, codec.MaxInt, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	wide, err := NewMaintainer(1<<61, codec.MaxInt, 0, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSharded(n, codec.MaxInt, 2, 0, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	top, err := NewMaintainer(codec.MaxInt, 4, 64, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []interface {
		AddBatch([]int, []float64) error
		Snapshot(io.Writer) error
		EstimateRange(a, b int) (float64, error)
	}{m, big, wide, s, top} {
		if err := e.AddBatch(points, weights); err != nil {
			t.Fatal(err)
		}
		var blob bytes.Buffer
		if err := e.Snapshot(&blob); err != nil {
			t.Fatal(err)
		}
		var restored interface {
			EstimateRange(a, b int) (float64, error)
		}
		if _, ok := e.(*Sharded); ok {
			restored, err = RestoreSharded(&blob)
		} else {
			restored, err = RestoreMaintainer(&blob)
		}
		if err != nil {
			t.Fatalf("%T: restoring a fresh snapshot: %v", e, err)
		}
		for a := 1; a <= n; a += 97 {
			want, err := e.EstimateRange(a, n)
			if err != nil {
				t.Fatal(err)
			}
			got, err := restored.EstimateRange(a, n)
			if err != nil || math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%T: EstimateRange(%d, %d) = %v, %v after restore, want %v", e, a, n, got, err, want)
			}
		}
	}
}

// TestDurableAtDomainTopRecovers: a durable engine over the largest domain,
// n = codec.MaxInt, recovers from its create-time checkpoint plus a logged
// tail, and from a later checkpoint whose compacted summaries hold a piece
// reaching the top, and answers as the live engine does both times.
func TestDurableAtDomainTopRecovers(t *testing.T) {
	const n, calls = codec.MaxInt, 40
	dir := t.TempDir()
	d, err := NewDurableSharded(n, 4, 2, 16, core.DefaultOptions(), DurableOptions{Dir: dir, SyncEvery: 1, CheckpointEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	for i := 0; i < calls; i++ {
		if err := d.AddBatch([]int{n - i*i*1000, 1 + i}, []float64{float64(1 + i%3), 1}); err != nil {
			t.Fatal(err)
		}
	}
	recoverCopy := func(label string, wantReplayed int) {
		t.Helper()
		rec, err := RecoverDurableSharded(DurableOptions{Dir: copyDir(t, dir), CheckpointEvery: -1})
		if err != nil {
			t.Fatalf("%s: recovering at n = codec.MaxInt: %v", label, err)
		}
		defer rec.Close()
		if rec.Replayed() != wantReplayed {
			t.Fatalf("%s: replayed %d records, want %d", label, rec.Replayed(), wantReplayed)
		}
		requireBitIdentical(t, label, rec.Engine(), d.Engine())
		for _, r := range [][2]int{{1, n}, {n, n}, {n - 5000, n}, {n / 2, n - 1}} {
			got, err1 := rec.EstimateRange(r[0], r[1])
			want, err2 := d.EstimateRange(r[0], r[1])
			if err1 != nil || err2 != nil || math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: EstimateRange(%d, %d) = %v, %v after recovery, want %v, %v", label, r[0], r[1], got, err1, want, err2)
			}
		}
	}
	recoverCopy("create-time checkpoint plus tail", calls)
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if d.Engine().Compactions() == 0 {
		t.Fatal("no compaction: the checkpoint holds no summary")
	}
	recoverCopy("compacted checkpoint", 0)
}
