package stream

import (
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/wal"
)

// BenchmarkRecoverDurableSharded times RecoverDurableSharded on a WAL shaped
// like the one perfbench's stream_rw set-up recovers: a windowed engine
// (n = 2^20, k = 64, 16 epochs, 2 shards, bufCap 4,096) checkpointed empty,
// then 4,096 batches of 1,024 Zipf(1.1) points whose hot set moves every 64
// batches, with an epoch marker after each 64: 4,160 records in one segment.
// The fixture is written once; every iteration recovers a fresh copy of it,
// made outside the timer. The timed recovery includes the checkpoint it
// commits after replaying.
func BenchmarkRecoverDurableSharded(b *testing.B) {
	const (
		n, k, epochs, shards, bufCap = 1 << 20, 64, 16, 2, 4096
		batches, batch, advanceEvery = 4096, 1024, 64
		patterns                     = 32
	)
	root := b.TempDir()
	fixture := filepath.Join(root, "fixture")
	eng, err := NewWindowedSharded(n, k, epochs, shards, bufCap, core.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	l, err := wal.Create(fixture, wal.Options{SyncEvery: 256, SyncInterval: time.Hour}, eng.Snapshot)
	if err != nil {
		b.Fatal(err)
	}
	zipf := rand.NewZipf(rand.New(rand.NewPCG(1, 2)), 1.1, 1, n-1)
	points := make([]int, batch)
	for i := range batches {
		shift := uint64(i/advanceEvery%patterns) * (n / patterns)
		for j := range points {
			points[j] = 1 + int((zipf.Uint64()*0x9E3779B97F4A7C15>>20+shift)%n)
		}
		if _, err := l.Append(points, nil); err != nil {
			b.Fatal(err)
		}
		if (i+1)%advanceEvery == 0 {
			if _, err := l.Append(nil, nil); err != nil {
				b.Fatal(err)
			}
		}
	}
	if err := l.Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := range b.N {
		b.StopTimer()
		dir := filepath.Join(root, fmt.Sprint(i))
		if err := copyWAL(fixture, dir); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		d, err := RecoverDurableSharded(DurableOptions{Dir: dir, CheckpointEvery: -1})
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if got, want := d.Replayed(), batches+batches/advanceEvery; got != want {
			b.Fatalf("replayed %d records, want %d", got, want)
		}
		if err := d.Close(); err != nil {
			b.Fatal(err)
		}
		if err := os.RemoveAll(dir); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

// copyWAL copies the WAL directory src to dst and fsyncs every copied file,
// so the copy's write-back does not land inside a timed recovery.
func copyWAL(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		in, err := os.Open(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		out, err := os.Create(filepath.Join(dst, e.Name()))
		if err == nil {
			_, err = io.Copy(out, in)
			if err == nil {
				err = out.Sync()
			}
			if cerr := out.Close(); err == nil {
				err = cerr
			}
		}
		in.Close() // only read
		if err != nil {
			return err
		}
	}
	return nil
}
