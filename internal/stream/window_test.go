package stream

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/core"
)

// The windowed/decayed contract, pinned bit-for-bit:
//
//  1. Every sealed epoch's ring slot is bit-identical to a brute-force
//     re-fit: a fresh Maintainer fed exactly that epoch's updates.
//  2. EstimateRangeOver(a, b, w, hl) is bit-identical to the explicitly
//     mass-scaled sum over the re-fit slots (in the engine's summation
//     order) plus the live epoch's answer.
//  3. SummaryOver is bit-identical to MergeAll over the explicitly scaled
//     re-fit summaries.
//  4. All of the above survive snapshot→restore and WAL recovery
//     mid-window.

// epochSchedule cuts the fixture stream of windowTotal updates into epochs
// of deliberately adversarial sizes: empty epochs, sub-buffer epochs, and
// epochs spanning many compactions.
var epochSchedule = []int{137, 0, 523, 64, 1, 900, 0, 311}

const (
	windowN     = 4000
	windowK     = 8
	windowCap   = 64
	windowTotal = 137 + 523 + 64 + 1 + 900 + 311 // sum of epochSchedule
)

// epochStart returns the fixture index where epoch e begins (e may be
// len(epochSchedule), marking the stream's end).
func epochStart(e int) int {
	start := 0
	for i := 0; i < e; i++ {
		start += epochSchedule[i]
	}
	return start
}

// epochBounds returns the fixture index range [start, end) of epoch e.
func epochBounds(e int) (start, end int) {
	start = epochStart(e)
	return start, start + epochSchedule[e]
}

// feedEpochs drives m through the first `epochs` entries of the schedule
// (advancing after each) and then feeds `tail` updates of the next epoch
// without advancing — the mid-window live state.
func feedEpochs(t *testing.T, add func(p int, w float64) error, advance func() error, epochs, tail int, points []int, weights []float64) {
	t.Helper()
	idx := 0
	for e := 0; e < epochs; e++ {
		for i := 0; i < epochSchedule[e]; i++ {
			if err := add(points[idx], weights[idx]); err != nil {
				t.Fatal(err)
			}
			idx++
		}
		if err := advance(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < tail; i++ {
		if err := add(points[idx], weights[idx]); err != nil {
			t.Fatal(err)
		}
		idx++
	}
}

// refitEpoch brute-force re-fits one epoch's raw updates on a fresh plain
// maintainer and returns its full-history summary — the oracle a sealed
// ring slot must match bit-for-bit.
func refitEpoch(t *testing.T, e int, points []int, weights []float64) *core.Histogram {
	t.Helper()
	m, err := NewMaintainer(windowN, windowK, windowCap, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	start, end := epochBounds(e)
	for i := start; i < end; i++ {
		if err := m.Add(points[i], weights[i]); err != nil {
			t.Fatal(err)
		}
	}
	h, err := m.Summary()
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// liveOracle re-fits the live (unsealed) epoch: a fresh plain maintainer fed
// the tail updates, queried without compacting — mirroring the windowed
// engine's view + pending-buffer scan.
func liveOracle(t *testing.T, epochs, tail int, points []int, weights []float64) *Maintainer {
	t.Helper()
	m, err := NewMaintainer(windowN, windowK, windowCap, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	start := epochStart(epochs)
	for i := start; i < start+tail; i++ {
		if err := m.Add(points[i], weights[i]); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

// addLiveTerms mirrors estimateOver's live-epoch term order on a re-fit
// maintainer, extending the oracle's single running accumulator: installed
// view mass, then pending updates in arrival order. Bit-identity demands the
// oracle add terms in exactly the engine's order — float addition is not
// associative, so summing the live epoch separately and adding the subtotal
// would drift by an ulp.
func addLiveTerms(acc float64, m *Maintainer, a, b int) float64 {
	if !m.view.empty() {
		acc += m.view.rangeSum(a, b)
	}
	for _, e := range m.buffer {
		if a <= e.Index && e.Index <= b {
			acc += e.Value
		}
	}
	return acc
}

// probeRanges is the query grid every bit-identity check sweeps.
func probeRanges(n int) [][2]int {
	out := [][2]int{{1, n}, {1, 1}, {n, n}}
	for a := 1; a <= n; a += 379 {
		b := a + 211
		if b > n {
			b = n
		}
		out = append(out, [2]int{a, b}, [2]int{a, a})
	}
	return out
}

func bitsEqual(t *testing.T, label string, got, want float64) {
	t.Helper()
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s = %v (%#x), want %v (%#x)",
			label, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// TestWindowedMatchesPerEpochRefit pins contract points 1 and 2 (undecayed)
// on the serial engine across the adversarial schedule, for every window
// span and several mid-window cut points.
func TestWindowedMatchesPerEpochRefit(t *testing.T) {
	points, weights := streamFixture(windowN, windowTotal, 42)
	const W = 4 // retains the live epoch + 3 sealed
	for _, cut := range []struct{ epochs, tail int }{
		{0, 50},  // first epoch, mid-buffer
		{2, 0},   // epoch boundary, empty live epoch
		{5, 437}, // ring full, eviction happened, live epoch spans compactions
		{8, 0},   // every epoch sealed
	} {
		m, err := NewWindowedMaintainer(windowN, windowK, W, windowCap, core.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		feedEpochs(t, m.Add, m.Advance, cut.epochs, cut.tail, points, weights)

		// Contract 1: each retained slot equals the brute-force re-fit of
		// its epoch, oldest evicted first.
		sealed := cut.epochs
		if sealed > W-1 {
			sealed = W - 1
		}
		if len(m.win.slots) != sealed {
			t.Fatalf("cut %+v: %d slots retained, want %d", cut, len(m.win.slots), sealed)
		}
		for i, slot := range m.win.slots {
			e := cut.epochs - sealed + i
			histogramsBitIdentical(t, slot, refitEpoch(t, e, points, weights), "sealed epoch slot")
		}

		// Contract 2 (halflife 0): windowed answers equal the refit sum in
		// the engine's summation order, for every valid window span.
		live := liveOracle(t, cut.epochs, cut.tail, points, weights)
		for w := 0; w <= W; w++ {
			included := sealed
			if w >= 1 && w-1 < sealed {
				included = w - 1
			}
			for _, pr := range probeRanges(windowN) {
				a, b := pr[0], pr[1]
				var want float64
				for i := sealed - included; i < sealed; i++ {
					e := cut.epochs - sealed + i
					want += refitEpoch(t, e, points, weights).RangeSum(a, b)
				}
				want = addLiveTerms(want, live, a, b)
				got, err := m.EstimateRangeOver(a, b, w, 0)
				if err != nil {
					t.Fatal(err)
				}
				bitsEqual(t, "EstimateRangeOver", got, want)
				if w == 0 {
					// The plain query on a windowed engine is the full
					// retained window.
					plain, err := m.EstimateRange(a, b)
					if err != nil {
						t.Fatal(err)
					}
					bitsEqual(t, "EstimateRange delegation", plain, got)
				}
			}
		}
	}
}

// TestDecayedMatchesMassScaledRefit pins contract points 2 and 3 with decay:
// answers and merged summaries must equal the explicitly mass-scaled
// re-fits.
func TestDecayedMatchesMassScaledRefit(t *testing.T) {
	points, weights := streamFixture(windowN, windowTotal, 97)
	const W, epochs, tail = 4, 5, 437
	m, err := NewWindowedMaintainer(windowN, windowK, W, windowCap, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	feedEpochs(t, m.Add, m.Advance, epochs, tail, points, weights)
	live := liveOracle(t, epochs, tail, points, weights)

	for _, hl := range []float64{0.5, 1, 2.75} {
		for w := 0; w <= W; w++ {
			included := W - 1
			if w >= 1 {
				included = w - 1
			}
			// Scaled refit sum in the engine's order: oldest slot first at
			// age = included, ..., newest at age 1, live epoch unscaled.
			for _, pr := range probeRanges(windowN) {
				a, b := pr[0], pr[1]
				var want float64
				for i := 0; i < included; i++ {
					e := epochs - included + i
					factor := math.Exp2(-float64(included-i) / hl)
					want += factor * refitEpoch(t, e, points, weights).RangeSum(a, b)
				}
				want = addLiveTerms(want, live, a, b)
				got, err := m.EstimateRangeOver(a, b, w, hl)
				if err != nil {
					t.Fatal(err)
				}
				bitsEqual(t, "decayed EstimateRangeOver", got, want)
			}

			// Contract 3: SummaryOver equals MergeAll over explicitly
			// scaled re-fit inputs (the live epoch compacted, unscaled).
			inputs := make([]*core.Histogram, 0, W)
			for i := 0; i < included; i++ {
				e := epochs - included + i
				h := refitEpoch(t, e, points, weights)
				factor := math.Exp2(-float64(included-i) / hl)
				vals := make([]float64, h.NumPieces())
				for j, pc := range h.Pieces() {
					vals[j] = factor * pc.Value
				}
				inputs = append(inputs, core.NewHistogram(h.N(), h.Partition(), vals))
			}
			liveSum, err := live.Summary()
			if err != nil {
				t.Fatal(err)
			}
			inputs = append(inputs, liveSum)
			want, err := MergeAll(inputs, windowK, core.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			got, err := m.SummaryOver(w, hl)
			if err != nil {
				t.Fatal(err)
			}
			histogramsBitIdentical(t, got, want, "decayed SummaryOver")
		}
	}
}

// TestWindowedShardedMatchesShardOracle pins the sharded engine against S
// independent windowed maintainers advanced in lockstep — the shard-major
// summation order EstimateRangeOver documents.
func TestWindowedShardedMatchesShardOracle(t *testing.T) {
	points, weights := streamFixture(windowN, windowTotal, 7)
	const W, P, epochs, tail = 3, 4, 5, 437
	s, err := NewWindowedSharded(windowN, windowK, W, P, windowCap, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	oracles := make([]*Maintainer, P)
	for i := range oracles {
		if oracles[i], err = NewWindowedMaintainer(windowN, windowK, W, windowCap, core.DefaultOptions()); err != nil {
			t.Fatal(err)
		}
	}
	add := func(p int, w float64) error {
		if err := s.Add(p, w); err != nil {
			return err
		}
		return oracles[s.ShardOf(p)].Add(p, w)
	}
	advance := func() error {
		if err := s.Advance(); err != nil {
			return err
		}
		for _, o := range oracles {
			if err := o.Advance(); err != nil {
				return err
			}
		}
		return nil
	}
	feedEpochs(t, add, advance, epochs, tail, points, weights)
	if got, want := s.Tick(), uint64(epochs); got != want {
		t.Fatalf("Tick() = %d, want %d", got, want)
	}
	// Quiesce background compactions so every shard's pending log matches
	// its oracle's buffer entry-for-entry (deterministic, not timing-bound).
	waitQuiesce(s)
	for _, hl := range []float64{0, 1.5} {
		for w := 0; w <= W; w++ {
			for _, pr := range probeRanges(windowN) {
				a, b := pr[0], pr[1]
				// Mirror the engine's grouping exactly: each shard's terms
				// (scaled slots oldest first, then view, then pending
				// updates) accumulate into a per-shard subtotal, and the
				// subtotals are added shard-major.
				var want float64
				for _, o := range oracles {
					var sub float64
					slots := o.win.included(w)
					for i, h := range slots {
						sub += decayFactor(len(slots)-i, hl) * h.RangeSum(a, b)
					}
					want += addLiveTerms(sub, o, a, b)
				}
				got, err := s.EstimateRangeOver(a, b, w, hl)
				if err != nil {
					t.Fatal(err)
				}
				bitsEqual(t, "sharded EstimateRangeOver", got, want)
			}
		}
	}
	// SummaryOver must succeed and answer range sums consistently with the
	// certified guarantee's shape (exact total mass over the whole domain).
	h, err := s.SummaryOver(2, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	want, err := s.EstimateRangeOver(1, windowN, 2, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	if got := h.RangeSum(1, windowN); math.Abs(got-want) > 1e-6*math.Max(1, math.Abs(want)) {
		t.Fatalf("SummaryOver total mass %v, want %v", got, want)
	}
}

// TestWindowedSnapshotRestoreMidWindow pins contract point 4 for both
// engines: a mid-window snapshot restores bit-identically (including ring
// and tick), re-encodes to identical bytes, and resumes bit-identically
// through further updates and epoch seals.
func TestWindowedSnapshotRestoreMidWindow(t *testing.T) {
	points, weights := streamFixture(windowN, windowTotal, 1234)
	const W, epochs, tail = 4, 5, 437

	t.Run("maintainer", func(t *testing.T) {
		m, err := NewWindowedMaintainer(windowN, windowK, W, windowCap, core.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		feedEpochs(t, m.Add, m.Advance, epochs, tail, points, weights)
		if len(m.buffer) == 0 {
			t.Fatal("cut leaves no pending buffer; adjust tail")
		}
		var blob bytes.Buffer
		if err := m.Snapshot(&blob); err != nil {
			t.Fatal(err)
		}
		snap := append([]byte{}, blob.Bytes()...)
		restored, err := RestoreMaintainer(bytes.NewReader(snap))
		if err != nil {
			t.Fatal(err)
		}
		if !restored.Windowed() || restored.WindowEpochs() != W || restored.Tick() != m.Tick() {
			t.Fatalf("restored windowed=%v epochs=%d tick=%d, want true/%d/%d",
				restored.Windowed(), restored.WindowEpochs(), restored.Tick(), W, m.Tick())
		}
		blob.Reset()
		if err := restored.Snapshot(&blob); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(snap, blob.Bytes()) {
			t.Fatal("snapshot → restore → snapshot bytes differ")
		}
		// Resume both through the rest of the schedule, windowed answers
		// checked after every epoch seal.
		idx := 0
		for e := 0; e < epochs; e++ {
			idx += epochSchedule[e]
		}
		idx += tail
		for e := epochs; e < len(epochSchedule); e++ {
			_, end := epochBounds(e)
			for ; idx < end; idx++ {
				if err := m.Add(points[idx], weights[idx]); err != nil {
					t.Fatal(err)
				}
				if err := restored.Add(points[idx], weights[idx]); err != nil {
					t.Fatal(err)
				}
			}
			if err := m.Advance(); err != nil {
				t.Fatal(err)
			}
			if err := restored.Advance(); err != nil {
				t.Fatal(err)
			}
			for w := 0; w <= W; w++ {
				want, err1 := m.EstimateRangeOver(1, windowN, w, 1.5)
				got, err2 := restored.EstimateRangeOver(1, windowN, w, 1.5)
				if err1 != nil || err2 != nil {
					t.Fatal(err1, err2)
				}
				bitsEqual(t, "resumed EstimateRangeOver", got, want)
			}
		}
	})

	t.Run("sharded", func(t *testing.T) {
		s, err := NewWindowedSharded(windowN, windowK, W, 4, windowCap, core.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		feedEpochs(t, s.Add, s.Advance, epochs, tail, points, weights)
		var blob bytes.Buffer
		if err := s.Snapshot(&blob); err != nil {
			t.Fatal(err)
		}
		snap := append([]byte{}, blob.Bytes()...)
		restored, err := RestoreSharded(bytes.NewReader(snap))
		if err != nil {
			t.Fatal(err)
		}
		if !restored.Windowed() || restored.WindowEpochs() != W || restored.Tick() != s.Tick() {
			t.Fatalf("restored windowed=%v epochs=%d tick=%d, want true/%d/%d",
				restored.Windowed(), restored.WindowEpochs(), restored.Tick(), W, s.Tick())
		}
		blob.Reset()
		if err := restored.Snapshot(&blob); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(snap, blob.Bytes()) {
			t.Fatal("snapshot → restore → snapshot bytes differ")
		}
		for _, hl := range []float64{0, 2} {
			for w := 0; w <= W; w++ {
				for _, pr := range probeRanges(windowN) {
					want, err1 := s.EstimateRangeOver(pr[0], pr[1], w, hl)
					got, err2 := restored.EstimateRangeOver(pr[0], pr[1], w, hl)
					if err1 != nil || err2 != nil {
						t.Fatal(err1, err2)
					}
					bitsEqual(t, "restored sharded EstimateRangeOver", got, want)
				}
			}
		}
	})
}

// TestWindowedDeltaReplication pins the replication path: a complete delta
// rebuilds a windowed engine bit-identically (ring included), and an
// incremental delta after further epochs carries the rotated rings of the
// changed shards.
func TestWindowedDeltaReplication(t *testing.T) {
	points, weights := streamFixture(windowN, windowTotal, 55)
	const W, P, epochs, tail = 3, 4, 3, 200
	s, err := NewWindowedSharded(windowN, windowK, W, P, windowCap, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	feedEpochs(t, s.Add, s.Advance, epochs, tail, points, weights)

	// A background compaction installing after the capture would move the
	// primary to other coordinates than the replica's (same mass, another
	// summation order), so wait out in-flight compactions first; with no
	// ingest after the capture, the primary then stays at cp's versions.
	waitQuiesce(s)
	cp, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	frame, err := cp.AppendDelta(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	d, err := ParseShardedDelta(frame)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Complete() {
		t.Fatal("nil-since delta is not complete")
	}
	replica, err := NewShardedFromDelta(d)
	if err != nil {
		t.Fatal(err)
	}
	if !replica.Windowed() || replica.WindowEpochs() != W || replica.Tick() != s.Tick() {
		t.Fatalf("replica windowed=%v epochs=%d tick=%d, want true/%d/%d",
			replica.Windowed(), replica.WindowEpochs(), replica.Tick(), W, s.Tick())
	}
	checkAgree := func(label string, at *Checkpoint) {
		t.Helper()
		if got, want := s.Versions(nil), at.Versions(nil); !slices.Equal(got, want) {
			t.Fatalf("%s: primary at versions %v, replica at %v", label, got, want)
		}
		for w := 0; w <= W; w++ {
			for _, pr := range probeRanges(windowN) {
				want, err1 := s.EstimateRangeOver(pr[0], pr[1], w, 1.0)
				got, err2 := replica.EstimateRangeOver(pr[0], pr[1], w, 1.0)
				if err1 != nil || err2 != nil {
					t.Fatal(err1, err2)
				}
				bitsEqual(t, label, got, want)
			}
		}
	}
	checkAgree("rebuilt replica", cp)

	// Advance the primary (rotating every ring) plus a little more ingest,
	// then ship only the changed shards.
	base := cp.Versions(nil)
	idx := 0
	for e := 0; e < epochs; e++ {
		idx += epochSchedule[e]
	}
	idx += tail
	for i := 0; i < 100; i++ {
		if err := s.Add(points[idx+i], weights[idx+i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Advance(); err != nil {
		t.Fatal(err)
	}
	cp2, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	frame2, err := cp2.AppendDelta(nil, base)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := ParseShardedDelta(frame2)
	if err != nil {
		t.Fatal(err)
	}
	// Advance bumps every shard's version, so every shard must be carried.
	if d2.ChangedShards() != P {
		t.Fatalf("delta after Advance carries %d of %d shards", d2.ChangedShards(), P)
	}
	if err := replica.ApplyDelta(d2); err != nil {
		t.Fatal(err)
	}
	if replica.Tick() != s.Tick() {
		t.Fatalf("replica tick %d after delta, want %d", replica.Tick(), s.Tick())
	}
	checkAgree("delta-applied replica", cp2)

	// Shape mismatch: a windowed delta must not apply to a plain engine.
	plain, err := NewSharded(windowN, windowK, P, windowCap, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := plain.ApplyDelta(d2); err == nil {
		t.Fatal("windowed delta applied to a plain engine")
	}
}

// TestWindowedWALRecoveryMidWindow pins contract point 4 for the durable
// layer: epoch boundaries are WAL records, so recovery after a crash
// mid-window resumes the ring bit-identically and keeps resuming through
// further epochs.
func TestWindowedWALRecoveryMidWindow(t *testing.T) {
	points, weights := streamFixture(windowN, windowTotal, 2026)
	const W, epochs, tail = 3, 3, 200

	t.Run("sharded", func(t *testing.T) {
		dir := t.TempDir()
		d, err := NewDurableSharded(windowN, windowK, 2, windowCap, core.DefaultOptions(), DurableOptions{
			Dir: dir, SyncEvery: 1, CheckpointEvery: -1, WindowEpochs: W,
		})
		if err != nil {
			t.Fatal(err)
		}
		feedEpochs(t, d.Add, d.Advance, epochs, tail, points, weights)
		if err := d.Sync(); err != nil {
			t.Fatal(err)
		}
		// Crash: recover from a copy of the live directory, no Close.
		rec, err := RecoverDurableSharded(DurableOptions{Dir: copyDir(t, dir), SyncEvery: 1, CheckpointEvery: -1})
		if err != nil {
			t.Fatal(err)
		}
		defer rec.Close()
		defer d.Close()
		if !rec.Windowed() || rec.Engine().WindowEpochs() != W || rec.Engine().Tick() != uint64(epochs) {
			t.Fatalf("recovered windowed=%v epochs=%d tick=%d, want true/%d/%d",
				rec.Windowed(), rec.Engine().WindowEpochs(), rec.Engine().Tick(), W, epochs)
		}
		// Quiesce background compactions on both sides: the view/pending split
		// at query time is timing-dependent, and the fold is lossy, so the two
		// engines only answer bit-identically once both have installed every
		// full-buffer fold (the fold *boundaries* are deterministic).
		waitQuiesce(d.Engine())
		waitQuiesce(rec.Engine())
		for w := 0; w <= W; w++ {
			for _, pr := range probeRanges(windowN) {
				want, err1 := d.EstimateRangeOver(pr[0], pr[1], w, 1.0)
				got, err2 := rec.EstimateRangeOver(pr[0], pr[1], w, 1.0)
				if err1 != nil || err2 != nil {
					t.Fatal(err1, err2)
				}
				bitsEqual(t, "recovered EstimateRangeOver", got, want)
			}
		}
		// Resume both through one more epoch seal.
		idx := 0
		for e := 0; e < epochs; e++ {
			idx += epochSchedule[e]
		}
		idx += tail
		for i := 0; i < 150; i++ {
			if err := d.Add(points[idx+i], weights[idx+i]); err != nil {
				t.Fatal(err)
			}
			if err := rec.Add(points[idx+i], weights[idx+i]); err != nil {
				t.Fatal(err)
			}
		}
		if err := d.Advance(); err != nil {
			t.Fatal(err)
		}
		if err := rec.Advance(); err != nil {
			t.Fatal(err)
		}
		want, err1 := d.EstimateRangeOver(1, windowN, W, 0.5)
		got, err2 := rec.EstimateRangeOver(1, windowN, W, 0.5)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		bitsEqual(t, "resumed recovered EstimateRangeOver", got, want)
	})

	// The single-lane durable engine: a one-shard DurableSharded recovers
	// to the state of a one-shard windowed Sharded fed the same schedule.
	// Both are quiesced before comparing, as above.
	t.Run("maintainer", func(t *testing.T) {
		dir := t.TempDir()
		d, err := NewDurableSharded(windowN, windowK, 1, windowCap, core.DefaultOptions(), DurableOptions{
			Dir: dir, SyncEvery: 1, CheckpointEvery: -1, WindowEpochs: W,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		feedEpochs(t, d.Add, d.Advance, epochs, tail, points, weights)
		if err := d.Sync(); err != nil {
			t.Fatal(err)
		}
		rec, err := RecoverDurableSharded(DurableOptions{Dir: copyDir(t, dir), SyncEvery: 1, CheckpointEvery: -1})
		if err != nil {
			t.Fatal(err)
		}
		defer rec.Close()
		if !rec.Windowed() || rec.Engine().Shards() != 1 || rec.Engine().Tick() != uint64(epochs) {
			t.Fatalf("recovered windowed=%v shards=%d tick=%d, want true/1/%d",
				rec.Windowed(), rec.Engine().Shards(), rec.Engine().Tick(), epochs)
		}
		ref, err := NewWindowedSharded(windowN, windowK, W, 1, windowCap, core.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		feedEpochs(t, ref.Add, ref.Advance, epochs, tail, points, weights)
		waitQuiesce(ref)
		waitQuiesce(rec.Engine())
		for w := 0; w <= W; w++ {
			want, err1 := ref.EstimateRangeOver(1, windowN, w, 1.0)
			got, err2 := rec.EstimateRangeOver(1, windowN, w, 1.0)
			if err1 != nil || err2 != nil {
				t.Fatal(err1, err2)
			}
			bitsEqual(t, "recovered single-lane EstimateRangeOver", got, want)
		}
	})
}

// TestWindowedValidation pins the parameter-validation surface.
func TestWindowedValidation(t *testing.T) {
	if _, err := NewWindowedMaintainer(100, 4, 0, 0, core.DefaultOptions()); err == nil {
		t.Fatal("0-epoch window accepted")
	}
	if _, err := NewWindowedSharded(100, 4, -1, 2, 0, core.DefaultOptions()); err == nil {
		t.Fatal("negative window accepted")
	}
	plain, err := NewMaintainer(100, 4, 0, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := plain.Advance(); err == nil {
		t.Fatal("Advance on a plain maintainer accepted")
	}
	if _, err := plain.EstimateRangeOver(1, 10, 0, 0); err == nil {
		t.Fatal("windowed query on a plain maintainer accepted")
	}
	plainS, err := NewSharded(100, 4, 2, 0, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := plainS.Advance(); err == nil {
		t.Fatal("Advance on a plain sharded engine accepted")
	}
	if _, err := plainS.SummaryOver(0, 0); err == nil {
		t.Fatal("windowed summary on a plain sharded engine accepted")
	}

	m, err := NewWindowedMaintainer(100, 4, 3, 0, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []struct {
		w  int
		hl float64
	}{
		{-1, 0}, {4, 0}, {0, -1}, {0, math.NaN()}, {0, math.Inf(1)},
	} {
		if _, err := m.EstimateRangeOver(1, 100, bad.w, bad.hl); err == nil {
			t.Fatalf("window=%d halflife=%v accepted", bad.w, bad.hl)
		}
		if _, err := m.SummaryOver(bad.w, bad.hl); err == nil {
			t.Fatalf("SummaryOver window=%d halflife=%v accepted", bad.w, bad.hl)
		}
	}
	if _, err := m.EstimateRangeOver(0, 200, 1, 0); err == nil {
		t.Fatal("out-of-domain range accepted")
	}
	// A 1-epoch window never retains sealed slots: advancing just resets.
	one, err := NewWindowedMaintainer(100, 4, 1, 0, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := one.Add(5, 2); err != nil {
		t.Fatal(err)
	}
	if err := one.Advance(); err != nil {
		t.Fatal(err)
	}
	if got, _ := one.EstimateRange(1, 100); got != 0 {
		t.Fatalf("1-epoch window retained mass %v after Advance", got)
	}
	if one.Tick() != 1 {
		t.Fatalf("tick %d, want 1", one.Tick())
	}
}

// TestWindowQueryCostWithinFullHistory: on a wrapped 8-epoch ring (n =
// 20,000, k = 16), a 3-epoch window query costs at most 3× the full-history
// query. The windowed path combines m ring slots instead of all of them, so
// the true ratio sits at or below 1; the 3× bound absorbs scheduler noise.
func TestWindowQueryCostWithinFullHistory(t *testing.T) {
	const (
		n, k, epochs, bufferCap = 20_000, 16, 8, 1024
		perEpoch, tail          = 2_000, 300
		mEpochs, queries        = 3, 4_000
	)
	opts := core.DefaultOptions()
	opts.Workers = 1
	m, err := NewWindowedMaintainer(n, k, epochs, bufferCap, opts)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	add := func(count int) {
		for i := 0; i < count; i++ {
			if err := m.Add(1+rng.Intn(n), 1+rng.Float64()); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Seal epochs+2 epochs so the ring has wrapped and every slot is live,
	// then leave a tail in the live epoch.
	for e := 0; e < epochs+2; e++ {
		add(perEpoch)
		if err := m.Advance(); err != nil {
			t.Fatal(err)
		}
	}
	add(tail)
	// SummaryOver folds the tail into the live view, so neither timed loop
	// pays a pending-log scan the other does not.
	if _, err := m.SummaryOver(0, 0); err != nil {
		t.Fatal(err)
	}
	as := make([]int, queries)
	bs := make([]int, queries)
	for i := range as {
		as[i] = 1 + rng.Intn(n)
		bs[i] = as[i] + rng.Intn(n-as[i]+1)
	}
	cost := func(window int) time.Duration {
		// An untimed warm-up builds the lazy slot indexes.
		for i := 0; i < queries/10+1; i++ {
			if _, err := m.EstimateRangeOver(as[i], bs[i], window, 0); err != nil {
				t.Fatal(err)
			}
		}
		start := time.Now()
		for i := range as {
			if _, err := m.EstimateRangeOver(as[i], bs[i], window, 0); err != nil {
				t.Fatal(err)
			}
		}
		return time.Since(start)
	}
	full := cost(0)
	windowed := cost(mEpochs)
	if full <= 0 || windowed <= 0 {
		t.Fatalf("non-positive timings: full %v, window %v", full, windowed)
	}
	if ratio := float64(windowed) / float64(full); ratio > 3 {
		t.Errorf("%d-epoch window query is %.2fx the full-history query, want ≤ 3x", mEpochs, ratio)
	}
}

// TestShardedAdvanceSealsHealthyShardsOnError pins the lockstep contract: a
// per-shard seal failure does not stop the sweep — every healthy shard's
// ring still rotates (so Tick, read from shard 0, stays honest) and the
// failure is in the joined error. The failed shard stays poisoned, so
// windowed answers from the engine keep failing rather than silently
// serving out-of-lockstep rings.
func TestShardedAdvanceSealsHealthyShardsOnError(t *testing.T) {
	const P = 4
	s, err := NewWindowedSharded(windowN, windowK, 3, P, windowCap, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 100; i++ {
		if err := s.Add(i, 1); err != nil {
			t.Fatal(err)
		}
	}
	sentinel := errors.New("injected shard failure")
	bad := s.shards[1]
	bad.mu.Lock()
	bad.err = sentinel
	bad.mu.Unlock()
	if err := s.Advance(); !errors.Is(err, sentinel) {
		t.Fatalf("Advance = %v, want the injected shard error", err)
	}
	for i, sh := range s.shards {
		want := uint64(1)
		if i == 1 {
			want = 0
		}
		if got := sh.m.win.tick; got != want {
			t.Errorf("shard %d tick = %d after Advance, want %d", i, got, want)
		}
	}
	if _, err := s.EstimateRangeOver(1, windowN, 0, 0); !errors.Is(err, sentinel) {
		t.Fatalf("windowed query on the poisoned engine = %v, want the injected error", err)
	}
}

// TestDurableAdvanceSealFailurePoisonsWAL pins the marker/seal asymmetry:
// when the epoch marker reaches the log but the engine seal then fails, the
// log durably records a boundary the engine never took — so the durable
// wrapper must poison the WAL, refusing to grow a history that replays
// differently than the live run.
func TestDurableAdvanceSealFailurePoisonsWAL(t *testing.T) {
	d, err := NewDurableSharded(windowN, windowK, 2, windowCap, core.DefaultOptions(), DurableOptions{
		Dir: t.TempDir(), CheckpointEvery: -1, WindowEpochs: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Add(1, 1); err != nil {
		t.Fatal(err)
	}
	sentinel := errors.New("injected shard failure")
	bad := d.Engine().shards[0]
	bad.mu.Lock()
	bad.err = sentinel
	bad.mu.Unlock()
	if err := d.Advance(); !errors.Is(err, sentinel) {
		t.Fatalf("durable Advance = %v, want the injected shard error", err)
	}
	if err := d.Add(2, 1); !errors.Is(err, sentinel) {
		t.Fatalf("ingest after a failed durable seal = %v, want the poison error", err)
	}
	if err := d.Sync(); !errors.Is(err, sentinel) {
		t.Fatalf("Sync after a failed durable seal = %v, want the poison error", err)
	}
}

// TestConcurrentAdvanceIngestRecovery pins the epoch-marker ordering fence:
// Advance holds the durability mutex exclusively, so with a sealer running
// concurrently with ingest every logged batch lands on the same side of the
// marker in the WAL as it did in the live engine, and crash recovery
// reproduces the per-epoch split — and every windowed answer — bit-
// identically. (With the marker on the shared read side, a batch could be
// logged after the marker but applied before the seal, silently moving it
// one epoch earlier on replay.)
func TestConcurrentAdvanceIngestRecovery(t *testing.T) {
	points, weights := streamFixture(windowN, windowTotal, 77)
	const W, seals = 4, 25
	dir := t.TempDir()
	d, err := NewDurableSharded(windowN, windowK, 2, windowCap, core.DefaultOptions(), DurableOptions{
		Dir: dir, CheckpointEvery: -1, WindowEpochs: W,
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		for i := 0; i < seals; i++ {
			if err := d.Advance(); err != nil {
				done <- err
				return
			}
			time.Sleep(100 * time.Microsecond)
		}
		done <- nil
	}()
	for i := 0; i < windowTotal; i++ {
		if err := d.Add(points[i], weights[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	rec, err := RecoverDurableSharded(DurableOptions{Dir: copyDir(t, dir), CheckpointEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	defer d.Close()
	if got, want := rec.Engine().Tick(), d.Engine().Tick(); got != want {
		t.Fatalf("recovered tick = %d, want %d", got, want)
	}
	waitQuiesce(d.Engine())
	waitQuiesce(rec.Engine())
	for w := 0; w <= W; w++ {
		for _, pr := range probeRanges(windowN) {
			want, err1 := d.EstimateRangeOver(pr[0], pr[1], w, 1.0)
			got, err2 := rec.EstimateRangeOver(pr[0], pr[1], w, 1.0)
			if err1 != nil || err2 != nil {
				t.Fatal(err1, err2)
			}
			bitsEqual(t, "recovered concurrent EstimateRangeOver", got, want)
		}
	}
}
