package bench

import (
	"bytes"
	"math/rand"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/stream"
)

// TestReplicateBenchQuick is the replication bytes bar: with ingest confined
// to 1/8 of the shards between rounds, steady-state delta bytes must come in
// at ≤ 1/4 of full-snapshot shipping — the margin between the protocol's
// ideal (1/8, plus the fixed header) and "not actually shipping deltas at
// all" (1.0). Both modes replay the same skewed ingest over real loopback
// HTTP, and both must leave the replica answering bit-identically to the
// primary, so the delta rounds cannot get under the bound by shipping
// garbage.
func TestReplicateBenchQuick(t *testing.T) {
	const (
		n, k, shards, bufferCap = 20_000, 16, 8, 1024
		hot, rounds, batch      = 1, 12, 128
		warmBatch               = 12_000
		name                    = "repl"
	)
	opts := core.DefaultOptions()
	opts.Workers = 1

	var totals [2]int64 // delta, full
	for mode := range totals {
		eng, err := stream.NewSharded(n, k, shards, bufferCap, opts)
		if err != nil {
			t.Fatal(err)
		}
		ps := serve.NewServer(&serve.Config{Workers: 1})
		if err := ps.Host(name, eng); err != nil {
			t.Fatal(err)
		}
		psrv := httptest.NewServer(ps.Handler())
		defer psrv.Close()
		rsrv := httptest.NewServer(serve.NewServer(&serve.Config{Workers: 1}).Handler())
		defer rsrv.Close()
		primary := serve.NewClient(psrv.URL, psrv.Client(), true)
		replica := serve.NewClient(rsrv.URL, rsrv.Client(), true)

		// Same seed in both modes: identical warm-up and batches.
		rng := rand.New(rand.NewSource(42))
		// Uniform warm-up gives every shard real state, so "full" reships
		// the cold shards each round the way a production snapshot would.
		warm := make([]int, warmBatch)
		for i := range warm {
			warm[i] = 1 + rng.Intn(n)
		}
		if err := eng.AddBatch(warm, nil); err != nil {
			t.Fatal(err)
		}

		fullSnapshot := func() []byte {
			var buf bytes.Buffer
			if err := primary.Snapshot(name, &buf); err != nil {
				t.Fatal(err)
			}
			return buf.Bytes()
		}
		var rp *serve.Replicator
		if mode == 0 {
			if rp, err = serve.NewReplicator(name, primary, []*serve.Client{replica}, time.Second); err != nil {
				t.Fatal(err)
			}
			if err := rp.SyncOnce(0); err != nil { // bootstrap: the complete frame, not counted
				t.Fatal(err)
			}
		} else if err := replica.PushBytes(name, fullSnapshot()); err != nil {
			t.Fatal(err)
		}

		for round := 0; round < rounds; round++ {
			// Points whose shards all land inside the hot subset, so a round
			// dirties at most hot shards.
			pts := make([]int, 0, batch)
			for len(pts) < batch {
				if p := 1 + rng.Intn(n); eng.ShardOf(p) < hot {
					pts = append(pts, p)
				}
			}
			if err := eng.AddBatch(pts, nil); err != nil {
				t.Fatal(err)
			}
			if mode == 0 {
				before := rp.Status()[0].DeltaBytes
				if err := rp.SyncOnce(0); err != nil {
					t.Fatal(err)
				}
				totals[mode] += rp.Status()[0].DeltaBytes - before
			} else {
				full := fullSnapshot()
				if err := replica.PushBytes(name, full); err != nil {
					t.Fatal(err)
				}
				totals[mode] += int64(len(full))
			}
		}

		as := []int{1, 1, n / 4, n / 2}
		bs := []int{n, n / 2, 3 * n / 4, n}
		want, err := primary.Ranges(name, as, bs)
		if err != nil {
			t.Fatal(err)
		}
		got, err := replica.Ranges(name, as, bs)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("mode %d: replica [%d,%d] = %v, primary %v", mode, as[i], bs[i], got[i], want[i])
			}
		}
	}

	delta, full := totals[0], totals[1]
	if delta <= 0 || full <= 0 {
		t.Fatalf("bytes: delta=%d full=%d", delta, full)
	}
	if ratio := float64(delta) / float64(full); ratio > 0.25 {
		t.Errorf("delta/full bytes = %.3f (delta %d, full %d), want ≤ 0.25 with 1/8 shards hot",
			ratio, delta, full)
	}
}
