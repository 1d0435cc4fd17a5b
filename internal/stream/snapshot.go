package stream

import (
	"fmt"
	"io"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/interval"
	"repro/internal/sparse"
)

// The stream state codec: one writer, one reader and one installer behind
// every streaming-engine envelope.
//
// A Maintainer or Sharded is checkpointed mid-stream — summary views AND the
// pending (uncompacted) update logs — and restored in a fresh process that
// resumes bit-identically: the same summaries, the same EstimateRange
// answers, and the same future compaction groupings as the uninterrupted
// run, because a checkpoint never forces a compaction (that would change
// when merging runs happen and therefore what they see). Timing telemetry
// (compaction/pause duration rings) is not state and starts empty.
//
// Five envelopes carry one layout. Every one opens with the engine
// configuration
//
//	config = Int(n) | Int(k) | Float64(δ) | Float64(γ) | Varint(workers) | Int(bufferCap)
//	         [| Int(windowEpochs)]   — windowed envelopes only
//
// and carries shard states:
//
//	TagMaintainer     config | state
//	TagSharded        config | Int(shards) | state × shards
//	TagWindowed       config | Byte(mode) | mode 0: state; mode 1: Int(shards) | state × shards
//	TagShardedDelta   config | Uvarint(epoch) | Int(shards) | Int(changed)
//	(TagShardedDeltaW)       | {Int(shard), Uvarint(from), Uvarint(to)} × changed | state × changed
//
// A state is one maintainer's installed view, counters and pending log —
// the log in arrival order, because dedup order is part of the
// floating-point semantics — followed, in a windowed envelope, by its epoch
// ring:
//
//	state = Int(updates) | Int(compactions) | Byte(hasView)
//	        [| pieces | Float64(view error)]
//	        | Ints(indices) | PackedFloat64s(weights)
//	        [| Uvarint(tick) | Int(slots) | pieces × slots]
//	pieces = DeltaInts(right endpoints) | PackedFloat64s(values)
//
// Sealed ring slots are O(k)-piece summaries over [1, n], oldest first.
// Prefix masses are derived: install rebuilds them with the live engine's
// left-to-right accumulation, so restored views answer bit-identically.
//
// Full snapshots decode from a streamed codec.Reader, whose CRC is checked
// after the object is built; deltas from a codec.FramePayload, whose CRC
// ParseFrame checks first. decodeState reads both through codec.Source. No
// decoded size sizes an allocation ahead of the bytes that back it: the
// codec's sequences grow with their input, and rings and shard lists grow
// by append.

// Windowed-envelope body modes.
const (
	windowedModeMaintainer byte = 0
	windowedModeSharded    byte = 1
)

// engineConfig is the configuration header every stream envelope opens
// with.
type engineConfig struct {
	n, k      int
	opts      core.Options
	bufferCap int
	// windowEpochs is the sliding-window span (0 when plain); only windowed
	// envelopes carry it.
	windowEpochs int
}

func (c *engineConfig) append(dst []byte) []byte {
	dst = codec.AppendUvarint(dst, uint64(c.n))
	dst = codec.AppendUvarint(dst, uint64(c.k))
	dst = codec.AppendFloat64(dst, c.opts.Delta)
	dst = codec.AppendFloat64(dst, c.opts.Gamma)
	dst = codec.AppendVarint(dst, int64(c.opts.Workers))
	dst = codec.AppendUvarint(dst, uint64(c.bufferCap))
	if c.windowEpochs > 0 {
		dst = codec.AppendUvarint(dst, uint64(c.windowEpochs))
	}
	return dst
}

// decodeConfig reads and validates the header append wrote; windowed says
// whether the envelope carries the window span.
func decodeConfig(src codec.Source, windowed bool) (c engineConfig, err error) {
	if c.n, err = src.Int(); err != nil {
		return
	}
	if c.k, err = src.Int(); err != nil {
		return
	}
	if c.opts.Delta, err = src.FiniteFloat64(); err != nil {
		return
	}
	if c.opts.Gamma, err = src.FiniteFloat64(); err != nil {
		return
	}
	var workers int64
	if workers, err = src.Varint(); err != nil {
		return
	}
	c.opts.Workers = int(workers)
	if c.bufferCap, err = src.Int(); err != nil {
		return
	}
	if c.n < 1 || c.k < 1 {
		err = fmt.Errorf("stream: checkpoint with n=%d, k=%d", c.n, c.k)
		return
	}
	if err = c.opts.Validate(); err != nil {
		return
	}
	if c.bufferCap < 1 {
		err = fmt.Errorf("stream: checkpoint with buffer capacity %d", c.bufferCap)
		return
	}
	if windowed {
		if c.windowEpochs, err = src.Int(); err != nil {
			return
		}
		if c.windowEpochs < 1 {
			err = fmt.Errorf("stream: windowed checkpoint with %d epochs", c.windowEpochs)
		}
	}
	return
}

// newSharded builds the empty engine the configuration describes.
func (c *engineConfig) newSharded(shards int) (*Sharded, error) {
	if c.windowEpochs > 0 {
		return NewWindowedSharded(c.n, c.k, c.windowEpochs, shards, c.bufferCap, c.opts)
	}
	return NewSharded(c.n, c.k, shards, c.bufferCap, c.opts)
}

// maintainerState is one maintainer's checkpoint-observable state, detached
// from its engine: counters, installed view, a pending update log (the
// Maintainer's own buffer, or the owning shard's logs) and, on a windowed
// engine, the epoch ring.
type maintainerState struct {
	updates     int
	compactions int
	// part and values are the installed view (part nil when empty), viewErr
	// its certified error.
	part    interval.Partition
	values  []float64
	viewErr float64
	log     []sparse.Entry
	ring    *capturedRing
}

// capturedRing is an epoch ring detached from its engine: the slot
// histograms are immutable, so capture is a pointer copy.
type capturedRing struct {
	tick  uint64
	slots []*core.Histogram
}

// captureState copies the maintainer's state plus the given pending log.
// The copies make the capture safe to encode after the owner's lock is
// released: the view's backing arrays are double-buffered compaction
// scratch that the next compaction recycles.
func captureState(m *Maintainer, log []sparse.Entry) maintainerState {
	st := maintainerState{
		updates:     m.updates,
		compactions: m.compactions,
		log:         append([]sparse.Entry(nil), log...),
	}
	if !m.view.empty() {
		st.part = append(interval.Partition(nil), m.view.part...)
		st.values = append([]float64(nil), m.view.values...)
		st.viewErr = m.view.err
	}
	if m.win != nil {
		st.ring = &capturedRing{tick: m.win.tick, slots: append([]*core.Histogram(nil), m.win.slots...)}
	}
	return st
}

// appendState appends one state, its epoch ring included when it has one.
func appendState(dst []byte, st *maintainerState) []byte {
	dst = codec.AppendUvarint(dst, uint64(st.updates))
	dst = codec.AppendUvarint(dst, uint64(st.compactions))
	if st.part == nil {
		dst = append(dst, 0)
	} else {
		dst = append(dst, 1)
		dst = codec.AppendDeltaInts(dst, st.part.Boundaries())
		dst = codec.AppendPackedFloat64s(dst, st.values)
		dst = codec.AppendFloat64(dst, st.viewErr)
	}
	idxs := make([]int, len(st.log))
	weights := make([]float64, len(st.log))
	for i, e := range st.log {
		idxs[i], weights[i] = e.Index, e.Value
	}
	dst = codec.AppendInts(dst, idxs)
	dst = codec.AppendPackedFloat64s(dst, weights)
	if r := st.ring; r != nil {
		dst = codec.AppendUvarint(dst, r.tick)
		dst = codec.AppendUvarint(dst, uint64(len(r.slots)))
		for _, h := range r.slots {
			pieces := h.Pieces()
			ends := make([]int, len(pieces))
			values := make([]float64, len(pieces))
			for i, pc := range pieces {
				ends[i], values[i] = pc.Hi, pc.Value
			}
			dst = codec.AppendDeltaInts(dst, ends)
			dst = codec.AppendPackedFloat64s(dst, values)
		}
	}
	return dst
}

// decodePieces reads a piece list and validates it as a partition of [1, n]
// with one value per piece.
func decodePieces(src codec.Source, n int) (interval.Partition, []float64, error) {
	ends, err := src.DeltaInts(nil)
	if err != nil {
		return nil, nil, err
	}
	values, err := src.PackedFloat64s(nil)
	if err != nil {
		return nil, nil, err
	}
	if len(values) != len(ends) {
		return nil, nil, fmt.Errorf("stream: %d values for %d pieces", len(values), len(ends))
	}
	part, err := interval.FromBoundaries(n, ends)
	if err != nil {
		return nil, nil, err
	}
	return part, values, nil
}

// decodeState reads and fully validates one state appendState wrote over a
// domain of n; epochs > 0 reads the epoch ring of that window span. A
// decoded state installs without further checks.
func decodeState(src codec.Source, n, epochs int) (st maintainerState, err error) {
	if st.updates, err = src.Int(); err != nil {
		return
	}
	if st.compactions, err = src.Int(); err != nil {
		return
	}
	flag, err := src.ReadByte()
	if err != nil {
		return
	}
	switch flag {
	case 0:
	case 1:
		if st.part, st.values, err = decodePieces(src, n); err != nil {
			err = fmt.Errorf("stream: checkpoint summary: %w", err)
			return
		}
		if st.viewErr, err = src.FiniteFloat64(); err != nil {
			return
		}
		if st.viewErr < 0 {
			err = fmt.Errorf("stream: negative summary error %v", st.viewErr)
			return
		}
	default:
		err = fmt.Errorf("stream: bad view flag %d", flag)
		return
	}
	idxs, err := src.Ints(nil)
	if err != nil {
		return
	}
	weights, err := src.PackedFloat64s(nil)
	if err != nil {
		return
	}
	if len(weights) != len(idxs) {
		err = fmt.Errorf("stream: %d buffered values for %d points", len(weights), len(idxs))
		return
	}
	st.log = make([]sparse.Entry, len(idxs))
	for i, idx := range idxs {
		if idx < 1 || idx > n {
			err = fmt.Errorf("stream: buffered point %d out of [1, %d]", idx, n)
			return
		}
		st.log[i] = sparse.Entry{Index: idx, Value: weights[i]}
	}
	if epochs > 0 {
		st.ring, err = decodeRing(src, n, epochs)
	}
	return
}

func decodeRing(src codec.Source, n, epochs int) (*capturedRing, error) {
	tick, err := src.Uvarint()
	if err != nil {
		return nil, err
	}
	count, err := src.SliceLen()
	if err != nil {
		return nil, err
	}
	if count > epochs-1 {
		return nil, fmt.Errorf("stream: %d sealed epochs in a %d-epoch window", count, epochs)
	}
	if uint64(count) > tick {
		return nil, fmt.Errorf("stream: %d sealed epochs after %d ticks", count, tick)
	}
	ring := &capturedRing{tick: tick}
	for i := range count {
		part, values, err := decodePieces(src, n)
		if err != nil {
			return nil, fmt.Errorf("stream: epoch slot %d: %w", i, err)
		}
		ring.slots = append(ring.slots, core.NewHistogram(n, part, values))
	}
	return ring, nil
}

// install replaces m's checkpoint-observable state with st — counters,
// view, epoch ring — and *log, its owner's pending log, with a copy of st's
// log; a staged-but-uninstalled view and the memoized histogram are dropped.
// The prefix masses are recomputed with the same left-to-right accumulation
// stageLog uses, so the installed view serves bit-identical range sums.
func (st *maintainerState) install(m *Maintainer, log *[]sparse.Entry) {
	m.updates = st.updates
	m.compactions = st.compactions
	m.view = summaryView{}
	if st.part != nil {
		pre := make([]float64, 0, len(st.part)+1)
		pre = append(pre, 0)
		for i, iv := range st.part {
			pre = append(pre, pre[i]+float64(iv.Len())*st.values[i])
		}
		m.prefixBufs[m.curPrefix] = pre
		m.view = summaryView{part: st.part, values: st.values, prefix: pre, err: st.viewErr}
	}
	m.staged = summaryView{}
	m.stagedOK = false
	m.hist = nil
	if st.ring != nil {
		m.win.tick = st.ring.tick
		m.win.slots = append(m.win.slots[:0], st.ring.slots...)
	}
	*log = append((*log)[:0], st.log...)
}

// installStates swaps states[j] into shard shards[j] (shard j when shards is
// nil), each under its shard lock after any in-flight compaction, so
// concurrent readers see a shard's old or new state, never a torn one. It
// is the one installer behind restore, NewShardedFromDelta and ApplyDelta.
func (s *Sharded) installStates(shards []int, states []maintainerState) error {
	for j := range states {
		idx := j
		if shards != nil {
			idx = shards[j]
		}
		sh := s.shards[idx]
		sh.mu.Lock()
		for sh.compacting {
			sh.cond.Wait()
		}
		err := sh.err
		if err == nil {
			states[j].install(sh.m, &sh.active)
			sh.updates = states[j].updates
			sh.version++
		}
		sh.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// appendSnapshot appends one complete full-state envelope for the given
// states: TagWindowed when the engine is windowed, else TagMaintainer for a
// lone maintainer's state or TagSharded for shard states.
func (c *engineConfig) appendSnapshot(dst []byte, states []maintainerState, maintainer bool) []byte {
	start := len(dst)
	tag := codec.TagSharded
	switch {
	case c.windowEpochs > 0:
		tag = codec.TagWindowed
	case maintainer:
		tag = codec.TagMaintainer
	}
	dst = codec.AppendFrameHeader(dst, tag)
	dst = c.append(dst)
	if c.windowEpochs > 0 {
		mode := windowedModeSharded
		if maintainer {
			mode = windowedModeMaintainer
		}
		dst = append(dst, mode)
	}
	if !maintainer {
		dst = codec.AppendUvarint(dst, uint64(len(states)))
	}
	for i := range states {
		dst = appendState(dst, &states[i])
	}
	return codec.FinishFrame(dst, start)
}

// Snapshot writes a checkpoint of the maintainer — summary view plus the
// pending update log, without compacting — as one binary envelope (see
// internal/codec). A maintainer restored from it resumes bit-identically:
// feeding both the original and the restored maintainer the same subsequent
// updates yields identical summaries, compaction cadence, and EstimateRange
// answers.
func (m *Maintainer) Snapshot(w io.Writer) error {
	c := engineConfig{n: m.n, k: m.k, opts: m.opts, bufferCap: m.bufferCap}
	if m.win != nil {
		c.windowEpochs = m.win.epochs
	}
	_, err := w.Write(c.appendSnapshot(nil, []maintainerState{captureState(m, m.buffer)}, true))
	return err
}

// DecodePayload reads and validates a streaming checkpoint payload
// (everything between envelope header and footer) of the given type tag —
// TagMaintainer, TagSharded or TagWindowed — and rebuilds the engine it
// holds: a *Maintainer or a *Sharded. Exported for the tag dispatchers.
func DecodePayload(dec *codec.Reader, tag byte) (any, error) {
	if tag != codec.TagMaintainer && tag != codec.TagSharded && tag != codec.TagWindowed {
		return nil, fmt.Errorf("stream: envelope holds type tag %d, not a streaming checkpoint", tag)
	}
	c, err := decodeConfig(dec, tag == codec.TagWindowed)
	if err != nil {
		return nil, err
	}
	maintainer := tag == codec.TagMaintainer
	if tag == codec.TagWindowed {
		mode, err := dec.ReadByte()
		if err != nil {
			return nil, err
		}
		if mode != windowedModeMaintainer && mode != windowedModeSharded {
			return nil, fmt.Errorf("stream: bad windowed checkpoint mode %d", mode)
		}
		maintainer = mode == windowedModeMaintainer
	}
	shards := 1
	if !maintainer {
		if shards, err = dec.SliceLen(); err != nil {
			return nil, err
		}
		if shards < 1 {
			return nil, fmt.Errorf("stream: checkpoint with %d shards", shards)
		}
	}
	var states []maintainerState
	for range shards {
		st, err := decodeState(dec, c.n, c.windowEpochs)
		if err != nil {
			return nil, err
		}
		states = append(states, st)
	}
	if !maintainer {
		s, err := c.newSharded(shards)
		if err != nil {
			return nil, err
		}
		if err := s.installStates(nil, states); err != nil {
			return nil, err
		}
		return s, nil
	}
	m, err := NewMaintainer(c.n, c.k, c.bufferCap, c.opts)
	if err != nil {
		return nil, err
	}
	if c.windowEpochs > 0 {
		m.win = newWindowRing(c.windowEpochs)
	}
	states[0].install(m, &m.buffer)
	return m, nil
}

// restore reads one streaming checkpoint envelope and returns its engine.
func restore(r io.Reader) (any, error) {
	dec := codec.NewReader(r)
	tag, err := dec.Header()
	if err != nil {
		return nil, err
	}
	v, err := DecodePayload(dec, tag)
	if err != nil {
		return nil, err
	}
	if err := dec.Close(); err != nil {
		return nil, err
	}
	return v, nil
}

// RestoreMaintainer reads a Maintainer checkpoint written by Snapshot and
// rebuilds the maintainer, validating configuration, summary partition, and
// buffered updates as strictly as the JSON decoders validate theirs.
func RestoreMaintainer(r io.Reader) (*Maintainer, error) {
	v, err := restore(r)
	if err != nil {
		return nil, err
	}
	m, ok := v.(*Maintainer)
	if !ok {
		return nil, fmt.Errorf("stream: checkpoint holds a sharded engine, not a maintainer")
	}
	return m, nil
}

// RestoreSharded reads a Sharded checkpoint written by Snapshot or
// Checkpoint.WriteTo and rebuilds the engine with the same shard count
// (point-to-shard routing is a pure function of the shard count, so
// restored shards continue receiving exactly the points they held before).
func RestoreSharded(r io.Reader) (*Sharded, error) {
	v, err := restore(r)
	if err != nil {
		return nil, err
	}
	s, ok := v.(*Sharded)
	if !ok {
		return nil, fmt.Errorf("stream: checkpoint holds a maintainer, not a sharded engine")
	}
	return s, nil
}
