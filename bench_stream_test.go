package histapprox

import (
	"fmt"
	"math"
	"testing"
)

// BenchmarkQueryStreamRanges measures batched windowed range reads on a
// streaming engine shaped like a served one: a 2-shard windowed engine over
// 2^20 points with sealed epochs in its ring, read at window 4 and half-life
// 2. The cells vary the batch size (1/4/16/256 ranges, log-uniform widths)
// and how full each shard's pending log is (empty, half, or one update short
// of a compaction), the part of a read that grows with ingest. Names are
// benchstat-friendly (BenchmarkQueryStreamRanges/pending=full/ranges=16).
func BenchmarkQueryStreamRanges(b *testing.B) {
	const (
		n, k, epochs, shards, bufCap = 1 << 20, 64, 16, 2, 4096
		window, halflife             = 4, 2
	)
	state := uint64(6151)
	next := func() uint64 {
		state = state*6364136223846793005 + 1442695040888963407
		return state >> 33
	}
	for _, pending := range []struct {
		name string
		per  int // pending updates per shard
	}{{"empty", 0}, {"half", bufCap / 2}, {"full", bufCap - 1}} {
		eng, err := NewWindowedShardedMaintainer(n, k, epochs, shards, bufCap, nil)
		if err != nil {
			b.Fatal(err)
		}
		for e := 0; e < 6; e++ {
			for i := 0; i < 3*bufCap; i++ {
				if err := eng.Add(1+int(next()%n), 1); err != nil {
					b.Fatal(err)
				}
			}
			if err := eng.Advance(); err != nil {
				b.Fatal(err)
			}
		}
		// A live epoch with a compacted view: SummaryOver drains every shard,
		// so each pending log then fills to exactly pending.per updates
		// without triggering a compaction.
		for i := 0; i < 3*bufCap; i++ {
			if err := eng.Add(1+int(next()%n), 1); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := eng.SummaryOver(0, 0); err != nil {
			b.Fatal(err)
		}
		for sh := 0; sh < shards; sh++ {
			for added := 0; added < pending.per; {
				p := 1 + int(next()%n)
				if eng.ShardOf(p) != sh {
					continue
				}
				if err := eng.Add(p, 1); err != nil {
					b.Fatal(err)
				}
				added++
			}
		}
		for _, ranges := range []int{1, 4, 16, 256} {
			as, bs := make([]int, ranges), make([]int, ranges)
			for i := range as {
				w := int(math.Exp(float64(next()%(1<<20)) / (1 << 20) * math.Log(n)))
				w = min(max(w, 1), n)
				as[i] = 1 + int(next()%uint64(n-w+1))
				bs[i] = as[i] + w - 1
			}
			out := make([]float64, ranges)
			b.Run(fmt.Sprintf("pending=%s/ranges=%d", pending.name, ranges), func(b *testing.B) {
				b.ReportAllocs()
				for b.Loop() {
					if err := eng.EstimateRangesOver(as, bs, window, halflife, out); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(ranges), "ranges/op")
			})
		}
	}
}
