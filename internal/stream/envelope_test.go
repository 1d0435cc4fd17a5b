package stream

import (
	"bytes"
	"io"
	"math"
	"testing"

	"repro/internal/codec"
	"repro/internal/core"
)

// Hostile-input tests for the five stream envelopes: a declared size must
// never size an allocation, and no payload may panic a decoder.

const hugeSize = 1 << 40

// appendTinyConfig appends the config header of a 100-point, k = 4 engine
// declaring buffer capacity bufCap and, when epochs > 0, a window span.
func appendTinyConfig(dst []byte, bufCap, epochs uint64) []byte {
	dst = codec.AppendUvarint(dst, 100)
	dst = codec.AppendUvarint(dst, 4)
	dst = codec.AppendFloat64(dst, 1)
	dst = codec.AppendFloat64(dst, 1)
	dst = codec.AppendVarint(dst, 1)
	dst = codec.AppendUvarint(dst, bufCap)
	if epochs > 0 {
		dst = codec.AppendUvarint(dst, epochs)
	}
	return dst
}

// Empty state (no view, empty log) and empty epoch ring bodies.
var (
	emptyState = []byte{0, 0, 0, 0, 0}
	emptyRing  = []byte{0, 0}
)

// frameOf wraps payload parts in a complete envelope with a valid CRC.
func frameOf(tag byte, parts ...[]byte) []byte {
	dst := codec.AppendFrameHeader(nil, tag)
	for _, p := range parts {
		dst = append(dst, p...)
	}
	return codec.FinishFrame(dst, 0)
}

// hugeDeclarations returns one small, well-formed envelope of each stream
// kind whose header declares a 2^40-entry buffer or a 2^40-epoch window;
// maintainer marks the envelopes holding a lone Maintainer.
func hugeDeclarations() []struct {
	name       string
	maintainer bool
	body       []byte
} {
	bigCap := appendTinyConfig(nil, hugeSize, 0)
	bigWin := appendTinyConfig(nil, 16, hugeSize)
	// Delta prefix: epoch 1, one shard, one changed: shard 0 from 0 to 0.
	oneShard := []byte{1, 1, 1, 0, 0, 0}
	return []struct {
		name       string
		maintainer bool
		body       []byte
	}{
		{"maintainer", true, frameOf(codec.TagMaintainer, bigCap, emptyState)},
		{"sharded", false, frameOf(codec.TagSharded, bigCap, []byte{1}, emptyState)},
		{"windowed maintainer", true, frameOf(codec.TagWindowed, bigWin, []byte{0}, emptyState, emptyRing)},
		{"windowed sharded", false, frameOf(codec.TagWindowed, bigWin, []byte{1, 1}, emptyState, emptyRing)},
		{"delta", false, frameOf(codec.TagShardedDelta, bigCap, oneShard, emptyState)},
		{"windowed delta", false, frameOf(codec.TagShardedDeltaW, bigWin, oneShard, emptyState, emptyRing)},
	}
}

// testEngine is the surface Maintainer and Sharded share.
type testEngine interface {
	Add(i int, w float64) error
	Advance() error
	EstimateRange(a, b int) (float64, error)
	EstimateRangeOver(a, b, window int, halflife float64) (float64, error)
	Windowed() bool
	Snapshot(w io.Writer) error
}

// TestHugeDeclaredSizesAllocateNothing feeds each stream envelope a header
// declaring a 2^40-entry buffer or a 2^40-epoch window. A declared size must
// not size an allocation — preallocating either one is a fatal "out of
// memory", not an error — so every envelope must decode into an engine that
// ingests, seals and answers.
func TestHugeDeclaredSizesAllocateNothing(t *testing.T) {
	for _, tc := range hugeDeclarations() {
		var e testEngine
		var err error
		switch tag := tc.body[5]; {
		case tag == codec.TagShardedDelta || tag == codec.TagShardedDeltaW:
			var d *ShardedDelta
			if d, err = ParseShardedDelta(tc.body); err != nil {
				break
			}
			var s *Sharded
			if s, err = NewShardedFromDelta(d); err != nil {
				break
			}
			e, err = s, s.ApplyDelta(d)
		case tc.maintainer:
			e, err = RestoreMaintainer(bytes.NewReader(tc.body))
		default:
			e, err = RestoreSharded(bytes.NewReader(tc.body))
		}
		if err != nil {
			t.Fatalf("%s (%d bytes): %v", tc.name, len(tc.body), err)
		}
		if err := e.Add(5, 2); err != nil {
			t.Fatalf("%s: Add: %v", tc.name, err)
		}
		if got, err := e.EstimateRange(1, 100); err != nil || got != 2 {
			t.Fatalf("%s: EstimateRange = %v (%v), want 2", tc.name, got, err)
		}
		if e.Windowed() {
			if err := e.Advance(); err != nil {
				t.Fatalf("%s: Advance: %v", tc.name, err)
			}
			if got, err := e.EstimateRangeOver(1, 100, 0, 0); err != nil || got != 2 {
				t.Fatalf("%s: windowed answer %v (%v) after a seal, want 2", tc.name, got, err)
			}
		}
		var snap bytes.Buffer
		if err := e.Snapshot(&snap); err != nil {
			t.Fatalf("%s: Snapshot: %v", tc.name, err)
		}
		if tc.maintainer {
			_, err = RestoreMaintainer(&snap)
		} else {
			_, err = RestoreSharded(&snap)
		}
		if err != nil {
			t.Fatalf("%s: restoring the engine's own snapshot: %v", tc.name, err)
		}
	}
}

// seedEnvelopes returns one real envelope of each stream kind: plain and
// windowed Maintainer and Sharded snapshots, and the golden delta frames.
func seedEnvelopes(tb testing.TB) [][]byte {
	tb.Helper()
	opts := core.DefaultOptions()
	opts.Workers = 1
	points, weights := streamFixture(600, 300, 5)
	var envs [][]byte
	snap := func(e testEngine) {
		var buf bytes.Buffer
		if err := e.Snapshot(&buf); err != nil {
			tb.Fatal(err)
		}
		envs = append(envs, buf.Bytes())
	}
	for _, epochs := range []int{0, 3} {
		m, err := NewMaintainer(600, 4, 64, opts)
		if epochs > 0 {
			m, err = NewWindowedMaintainer(600, 4, epochs, 64, opts)
		}
		if err != nil {
			tb.Fatal(err)
		}
		for i := range points {
			if err := m.Add(points[i], weights[i]); err != nil {
				tb.Fatal(err)
			}
			if epochs > 0 && i == 150 {
				if err := m.Advance(); err != nil {
					tb.Fatal(err)
				}
			}
		}
		snap(m)
	}
	for _, windowed := range []bool{false, true} {
		snap(goldenDeltaEngine(tb, windowed))
		frames, _ := goldenDeltaFrames(tb, windowed)
		envs = append(envs, frames...)
	}
	return envs
}

// FuzzStreamEnvelope frames a payload of at most 4 KiB under each of the
// five stream tags with a valid CRC, so mutations get past the checksum into
// the payload decoders, delta parsing included. Snapshots go restore →
// Snapshot → restore; deltas go ParseShardedDelta → NewShardedFromDelta and
// ApplyDelta, or ApplyDelta onto a fresh engine of the seeds' shape. The
// contract: an error or a working engine, never a panic. The size cap keeps
// a fuzzed shard count's per-shard engine footprint from dominating a run.
func FuzzStreamEnvelope(f *testing.F) {
	for _, env := range seedEnvelopes(f) {
		f.Add(env[6 : len(env)-4])
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		if len(payload) > 4096 {
			return
		}
		for _, tag := range []byte{codec.TagMaintainer, codec.TagSharded, codec.TagWindowed} {
			fuzzSnapshot(t, frameOf(tag, payload))
		}
		for _, tag := range []byte{codec.TagShardedDelta, codec.TagShardedDeltaW} {
			fuzzDelta(t, frameOf(tag, payload))
		}
	})
}

// sameAnswer fails unless both engines answer the range [1, 1] bit for bit.
func sameAnswer(t *testing.T, got, want testEngine) {
	t.Helper()
	g, err1 := got.EstimateRange(1, 1)
	w, err2 := want.EstimateRange(1, 1)
	if err1 != nil || err2 != nil || math.Float64bits(g) != math.Float64bits(w) {
		t.Fatalf("EstimateRange(1, 1) = %v (%v), want %v (%v)", g, err1, w, err2)
	}
}

func fuzzSnapshot(t *testing.T, body []byte) {
	v, err := restore(bytes.NewReader(body))
	if err != nil {
		return
	}
	e := v.(testEngine)
	var first, second bytes.Buffer
	if err := e.Snapshot(&first); err != nil {
		t.Fatalf("snapshot of a restored engine: %v", err)
	}
	again, err := restore(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatalf("restoring a restored engine's snapshot: %v", err)
	}
	if err := again.(testEngine).Snapshot(&second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatal("snapshot bytes changed across restore")
	}
	sameAnswer(t, again.(testEngine), e)
}

func fuzzDelta(t *testing.T, body []byte) {
	d, err := ParseShardedDelta(body)
	if err != nil {
		return
	}
	if !d.Complete() {
		opts := core.DefaultOptions()
		opts.Workers = 1
		base, err := NewSharded(600, 4, 3, 64, opts)
		if d.windowEpochs > 0 {
			base, err = NewWindowedSharded(600, 4, 3, 3, 64, opts)
		}
		if err != nil {
			t.Fatal(err)
		}
		if base.ApplyDelta(d) == nil {
			if _, err := base.EstimateRange(1, 600); err != nil {
				t.Fatalf("engine patched by a partial delta: %v", err)
			}
		}
		return
	}
	s, err := NewShardedFromDelta(d)
	if err != nil {
		t.Fatalf("complete delta parsed but did not rebuild: %v", err)
	}
	if err := s.ApplyDelta(d); err != nil {
		t.Fatalf("complete delta does not apply to its own rebuild: %v", err)
	}
	cp, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	frame, err := cp.AppendDelta(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := ParseShardedDelta(frame)
	if err != nil {
		t.Fatalf("re-encoded delta does not parse: %v", err)
	}
	again, err := NewShardedFromDelta(d2)
	if err != nil {
		t.Fatal(err)
	}
	sameAnswer(t, again, s)
}
