package stream

import (
	"fmt"

	"repro/internal/codec"
)

// Delta checkpoints: replication proportional to change, not state.
//
// A full TagSharded envelope re-ships every shard on every sync even when one
// shard changed. The delta frame (TagShardedDelta, or TagShardedDeltaW for a
// windowed engine) instead carries {shard, fromVersion, toVersion} triples
// plus ONLY the changed shards' states, in the layout snapshot.go describes.
// Versions are the per-shard counters Sharded maintains (bumped on every
// pending-log mutation and every compaction install), captured consistently
// with the state by Checkpoint; the epoch scopes them to one engine life, so
// a restarted primary can never alias a replica's stale vector.
//
// Delta frames are serving-layer wire artifacts, not persistent snapshots:
// they are parsed in place from one buffer whose CRC-32C is verified before
// any field is read. A delta built with a nil since-vector includes every
// shard with fromVersion 0: the "complete" delta, which doubles as the
// full-resync payload (a replica can rebuild an engine from it with no
// prior state).

// AppendDelta appends one complete delta envelope to dst and returns the
// extended slice: TagShardedDelta for a plain engine or TagShardedDeltaW for
// a windowed one, whose header adds the window span and whose states carry
// their epoch rings. since is the requesting replica's version vector (from
// this checkpoint's epoch): shards whose captured version differs from
// since[i] are included with fromVersion since[i]. A nil since requests a
// complete delta: every shard, fromVersion 0. A checkpoint is immutable, so
// repeated calls with the same since emit identical bytes.
func (c *Checkpoint) AppendDelta(dst []byte, since []uint64) ([]byte, error) {
	if since != nil && len(since) != len(c.states) {
		return nil, fmt.Errorf("stream: since vector has %d entries for %d shards", len(since), len(c.states))
	}
	start := len(dst)
	tag := codec.TagShardedDelta
	if c.windowEpochs > 0 {
		tag = codec.TagShardedDeltaW
	}
	dst = codec.AppendFrameHeader(dst, tag)
	dst = c.engineConfig.append(dst)
	dst = codec.AppendUvarint(dst, c.epoch)
	dst = codec.AppendUvarint(dst, uint64(len(c.states)))
	changed := make([]int, 0, len(c.states))
	for i := range c.states {
		if since == nil || c.versions[i] != since[i] {
			changed = append(changed, i)
		}
	}
	dst = codec.AppendUvarint(dst, uint64(len(changed)))
	for _, i := range changed {
		var from uint64
		if since != nil {
			from = since[i]
		}
		dst = codec.AppendUvarint(dst, uint64(i))
		dst = codec.AppendUvarint(dst, from)
		dst = codec.AppendUvarint(dst, c.versions[i])
	}
	for _, i := range changed {
		dst = appendState(dst, &c.states[i])
	}
	return codec.FinishFrame(dst, start), nil
}

// ShardedDelta is a parsed, validated delta frame, ready to apply.
type ShardedDelta struct {
	engineConfig
	epoch    uint64
	total    int
	shards   []int
	from, to []uint64
	states   []maintainerState
}

// Epoch returns the engine epoch the delta was captured from.
func (d *ShardedDelta) Epoch() uint64 { return d.epoch }

// TotalShards returns the shard count of the source engine.
func (d *ShardedDelta) TotalShards() int { return d.total }

// ChangedShards returns how many shards the delta carries.
func (d *ShardedDelta) ChangedShards() int { return len(d.shards) }

// Shard returns the j-th carried shard's index and version transition.
func (d *ShardedDelta) Shard(j int) (shard int, from, to uint64) {
	return d.shards[j], d.from[j], d.to[j]
}

// ToVersions returns the version vector a replica holds after applying the
// delta on top of base (the replica's current vector, nil for a complete
// delta): carried shards move to their toVersion, the rest keep base.
func (d *ShardedDelta) ToVersions(base []uint64) []uint64 {
	out := make([]uint64, d.total)
	copy(out, base)
	for j, idx := range d.shards {
		out[idx] = d.to[j]
	}
	return out
}

// Complete reports whether the delta carries every shard from version zero —
// a self-contained full state a replica can rebuild an engine from with no
// prior state (see NewShardedFromDelta).
func (d *ShardedDelta) Complete() bool {
	if len(d.shards) != d.total {
		return false
	}
	for _, f := range d.from {
		if f != 0 {
			return false
		}
	}
	return true
}

// ParseShardedDelta validates one complete delta frame (magic, version, tag,
// CRC-32C footer) and decodes it in place — states reference freshly decoded
// slices, never the input buffer, so the frame buffer may be recycled after
// the call. Both layouts are accepted: TagShardedDelta (plain engine) and
// TagShardedDeltaW (windowed engine). States get the checks full
// checkpoints get, so applying them cannot fail midway through mutating a
// live engine, plus the delta-specific ones: strictly increasing shard
// indices inside the engine's shard count, and per-shard version
// transitions that do not go backwards.
func ParseShardedDelta(frame []byte) (*ShardedDelta, error) {
	tag, payload, err := codec.ParseFrame(frame)
	if err != nil {
		return nil, err
	}
	if tag != codec.TagShardedDelta && tag != codec.TagShardedDeltaW {
		return nil, fmt.Errorf("stream: envelope holds type tag %d, not a sharded delta", tag)
	}
	p := codec.NewFramePayload(payload)
	d := &ShardedDelta{}
	if d.engineConfig, err = decodeConfig(&p, tag == codec.TagShardedDeltaW); err != nil {
		return nil, err
	}
	if d.epoch, err = p.Uvarint(); err != nil {
		return nil, err
	}
	if d.total, err = p.SliceLen(); err != nil {
		return nil, err
	}
	if d.total < 1 {
		return nil, fmt.Errorf("stream: delta with %d shards", d.total)
	}
	changed, err := p.SliceLen()
	if err != nil {
		return nil, err
	}
	if changed > d.total {
		return nil, fmt.Errorf("stream: delta carries %d of %d shards", changed, d.total)
	}
	prev := -1
	for range changed {
		idx, err := p.Int()
		if err != nil {
			return nil, err
		}
		if idx <= prev || idx >= d.total {
			return nil, fmt.Errorf("stream: delta shard index %d after %d (of %d)", idx, prev, d.total)
		}
		prev = idx
		from, err := p.Uvarint()
		if err != nil {
			return nil, err
		}
		to, err := p.Uvarint()
		if err != nil {
			return nil, err
		}
		if to < from {
			return nil, fmt.Errorf("stream: shard %d version going backwards (%d → %d)", idx, from, to)
		}
		d.shards = append(d.shards, idx)
		d.from = append(d.from, from)
		d.to = append(d.to, to)
	}
	for _, idx := range d.shards {
		st, err := decodeState(&p, d.n, d.windowEpochs)
		if err != nil {
			return nil, fmt.Errorf("stream: delta shard %d: %w", idx, err)
		}
		d.states = append(d.states, st)
	}
	if err := p.Done(); err != nil {
		return nil, err
	}
	return d, nil
}

// NewShardedFromDelta rebuilds a fresh engine from a complete delta — the
// full-resync path: a replica with no usable base state (fresh boot, restart,
// epoch change) asks the primary for a nil-since delta and reconstructs. The
// rebuilt engine answers EstimateRange bit-identically to the source at
// capture, like RestoreSharded from a full envelope.
func NewShardedFromDelta(d *ShardedDelta) (*Sharded, error) {
	if !d.Complete() {
		return nil, fmt.Errorf("stream: delta carries %d of %d shards — not a complete state", len(d.shards), d.total)
	}
	s, err := d.newSharded(d.total)
	if err != nil {
		return nil, err
	}
	if err := s.installStates(d.shards, d.states); err != nil {
		return nil, err
	}
	return s, nil
}

// ApplyDelta swaps ONLY the named shards' states into the live engine —
// the in-place half of delta replication. Each carried shard is replaced
// under its lock (waiting out an in-flight compaction first, like Snapshot),
// so concurrent readers serve either the old or the new state of a shard,
// never a torn one. The caller is responsible for version bookkeeping: this
// method checks only that the delta's shape matches the engine (domain,
// piece budget, merging options, shard count, buffer capacity); whether
// fromVersions match the replica's tracked vector is the serving layer's
// check, since a bare engine does not know which fleet vector it embodies.
func (s *Sharded) ApplyDelta(d *ShardedDelta) error {
	if d.n != s.n || d.k != s.k {
		return fmt.Errorf("stream: delta for n=%d k=%d against engine n=%d k=%d", d.n, d.k, s.n, s.k)
	}
	if d.total != len(s.shards) {
		return fmt.Errorf("stream: delta for %d shards against engine with %d", d.total, len(s.shards))
	}
	if d.bufferCap != s.shards[0].bufCap {
		return fmt.Errorf("stream: delta buffer capacity %d against engine's %d", d.bufferCap, s.shards[0].bufCap)
	}
	if d.opts.Delta != s.opts.Delta || d.opts.Gamma != s.opts.Gamma {
		return fmt.Errorf("stream: delta merging options (δ=%v, γ=%v) against engine's (δ=%v, γ=%v)",
			d.opts.Delta, d.opts.Gamma, s.opts.Delta, s.opts.Gamma)
	}
	if d.windowEpochs != s.windowEpochs {
		return fmt.Errorf("stream: delta with %d-epoch window against engine's %d", d.windowEpochs, s.windowEpochs)
	}
	return s.installStates(d.shards, d.states)
}
