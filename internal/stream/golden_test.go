package stream

import (
	"bytes"
	"encoding/binary"
	"flag"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
)

var updateGolden = flag.Bool("update-golden", false,
	"rewrite the delta frame fixtures under testdata/ (only on a deliberate format change)")

// goldenEpoch replaces the random engine epoch so delta frames are a pure
// function of the input stream.
const goldenEpoch uint64 = 0x0123_4567_89ab_cdef

// goldenDeltaEngine builds a quiesced 3-shard engine fed a fixed stream,
// windowed (3 epochs, two seals) when windowed is set.
func goldenDeltaEngine(t testing.TB, windowed bool) *Sharded {
	t.Helper()
	const n, k, shards, bufCap = 600, 4, 3, 64
	opts := core.DefaultOptions()
	opts.Workers = 1
	var s *Sharded
	var err error
	if windowed {
		s, err = NewWindowedSharded(n, k, 3, shards, bufCap, opts)
	} else {
		s, err = NewSharded(n, k, shards, bufCap, opts)
	}
	if err != nil {
		t.Fatal(err)
	}
	s.epoch = goldenEpoch
	points, weights := streamFixture(n, 500, 17)
	for i := range points {
		if err := s.Add(points[i], weights[i]); err != nil {
			t.Fatal(err)
		}
		if windowed && (i == 149 || i == 349) {
			if err := s.Advance(); err != nil {
				t.Fatal(err)
			}
		}
	}
	waitQuiesce(s)
	return s
}

// goldenDeltaFrames returns the fixture's frames: for the plain engine a
// complete delta and a partial one (after updates to shard 0 only), for the
// windowed engine one complete delta. source is the engine state each frame
// was captured from, for the rebuild checks.
func goldenDeltaFrames(t testing.TB, windowed bool) (frames [][]byte, source []*Sharded) {
	t.Helper()
	s := goldenDeltaEngine(t, windowed)
	cp, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	full, err := cp.AppendDelta(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if windowed {
		return [][]byte{full}, []*Sharded{s}
	}
	// A second engine replays the same stream, so the first capture's
	// source stays intact for the rebuild check.
	s2 := goldenDeltaEngine(t, false)
	base := cp.Versions(nil)
	for i := 1; i <= 600; i++ {
		if s2.ShardOf(i) == 0 {
			if err := s2.Add(i, float64(i%5)-1.5); err != nil {
				t.Fatal(err)
			}
		}
	}
	waitQuiesce(s2)
	cp2, err := s2.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	part, err := cp2.AppendDelta(nil, base)
	if err != nil {
		t.Fatal(err)
	}
	return [][]byte{full, part}, []*Sharded{s, s2}
}

// TestDeltaGoldenFixturesV1 pins the delta frame bytes the way the root
// TestGoldenFixturesV1 pins snapshots: TagShardedDelta (complete and
// partial) and TagShardedDeltaW frames of a fixed engine must match the
// committed fixtures bit for bit, and every committed frame must parse and
// rebuild an engine answering like its source. Each fixture file holds its
// frames in order, each preceded by its length as a uvarint. Regenerate
// (only on a deliberate format change) via:
// go test -run DeltaGolden ./internal/stream -update-golden
func TestDeltaGoldenFixturesV1(t *testing.T) {
	for _, tc := range []struct {
		file     string
		windowed bool
	}{
		{"delta_v1.bin", false},
		{"delta_windowed_v1.bin", true},
	} {
		frames, source := goldenDeltaFrames(t, tc.windowed)
		var got []byte
		for _, f := range frames {
			got = binary.AppendUvarint(got, uint64(len(f)))
			got = append(got, f...)
		}
		path := filepath.Join("testdata", tc.file)
		if *updateGolden {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: missing golden fixture (run with -update-golden): %v", tc.file, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: delta encoding changed: %d bytes vs %d-byte fixture", tc.file, len(got), len(want))
		}
		var replica *Sharded
		for j := 0; len(want) > 0; j++ {
			size, w := binary.Uvarint(want)
			if w <= 0 || uint64(len(want)-w) < size {
				t.Fatalf("%s: bad length prefix for frame %d", tc.file, j)
			}
			frame := want[w : w+int(size)]
			want = want[w+int(size):]
			d, err := ParseShardedDelta(frame)
			if err != nil {
				t.Fatalf("%s frame %d: %v", tc.file, j, err)
			}
			if d.Epoch() != goldenEpoch {
				t.Fatalf("%s frame %d: epoch %#x, want %#x", tc.file, j, d.Epoch(), goldenEpoch)
			}
			if j == 0 {
				if !d.Complete() {
					t.Fatalf("%s frame 0 is not a complete delta", tc.file)
				}
				if replica, err = NewShardedFromDelta(d); err != nil {
					t.Fatalf("%s frame 0: %v", tc.file, err)
				}
			} else {
				if d.Complete() || d.ChangedShards() == 0 {
					t.Fatalf("%s frame %d carries %d of %d shards, want a partial delta",
						tc.file, j, d.ChangedShards(), d.TotalShards())
				}
				if err := replica.ApplyDelta(d); err != nil {
					t.Fatalf("%s frame %d: %v", tc.file, j, err)
				}
			}
			if j >= len(source) {
				t.Fatalf("%s holds more frames than recorded", tc.file)
			}
			assertSameEstimates(t, source[j], replica, 600)
			if tc.windowed {
				for window := 1; window <= 3; window++ {
					a, b := 17, 480
					want, err1 := source[j].EstimateRangeOver(a, b, window, 0)
					got, err2 := replica.EstimateRangeOver(a, b, window, 0)
					if err1 != nil || err2 != nil || math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%s: window %d answer %v (%v), want %v (%v)", tc.file, window, got, err2, want, err1)
					}
				}
			}
		}
	}
}
