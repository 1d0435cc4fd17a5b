package stream

import (
	"io"

	"repro/internal/sparse"
)

// Checkpoint is an immutable capture of a sharded engine's state: every
// shard's installed summary view plus its pending updates, detached from the
// live engine. It exists for serving layers that stream snapshots to remote
// replicas: Capture runs in O(pending) under the shard locks and NEVER waits
// for an in-flight background compaction (an in-flight log is captured as
// pending updates instead), so a snapshot request cannot stall behind a
// merging run the way Sharded.Snapshot can. Encoding — the expensive half —
// happens afterwards via WriteTo, outside every lock, against state no later
// ingestion can touch.
//
// The captured state is exact: the checkpoint represents the same maintained
// vector as the engine at capture time, and a Sharded restored from it (via
// RestoreSharded) answers every EstimateRange bit-identically to the source
// at the moment of capture — the pending-update scan visits the captured
// entries in the same arrival order the source scans its in-flight + active
// logs. What Checkpoint trades away against Snapshot is only the
// *resume-cadence* guarantee: because an in-flight compaction's log is
// demoted back to pending, the restored engine may group future merging runs
// differently than the uninterrupted engine would have. Replication wants
// the non-blocking capture; crash-restart wants Snapshot's bit-identical
// resume.
type Checkpoint struct {
	engineConfig
	states []maintainerState
	// epoch and versions are the replication coordinates of the capture:
	// the engine instance it came from and, per shard, the version counter
	// at the moment that shard was captured (read under the same lock as
	// the state, so the pair is consistent). AppendDelta uses them to emit
	// {shard, fromVersion, toVersion} triples.
	epoch    uint64
	versions []uint64
}

// Checkpoint captures the engine's current state without waiting for
// background compactions. Shards are visited one at a time under their
// locks, giving the same per-shard consistency Summary and Snapshot offer
// under concurrent ingestion: each shard contributes exactly the updates it
// had absorbed when visited.
func (s *Sharded) Checkpoint() (*Checkpoint, error) { return s.capture(false) }

// capture is Checkpoint, first waiting out each shard's in-flight
// compaction when wait is set.
func (s *Sharded) capture(wait bool) (*Checkpoint, error) {
	c := &Checkpoint{
		engineConfig: engineConfig{
			n: s.n, k: s.k, opts: s.opts,
			bufferCap:    s.shards[0].bufCap,
			windowEpochs: s.windowEpochs,
		},
		states:   make([]maintainerState, len(s.shards)),
		epoch:    s.epoch,
		versions: make([]uint64, len(s.shards)),
	}
	var combined []sparse.Entry
	for i, sh := range s.shards {
		sh.mu.Lock()
		for wait && sh.compacting {
			sh.cond.Wait()
		}
		if sh.err != nil {
			err := sh.err
			sh.mu.Unlock()
			return nil, err
		}
		// The in-flight log (if a compaction is running) precedes the active
		// log in arrival order; captured together they are exactly the
		// updates the installed view does not yet contain. Both are safe to
		// read under mu: the compactor only reads inflight, and install runs
		// under mu.
		combined = append(append(combined[:0], sh.inflight...), sh.active...)
		c.states[i] = captureState(sh.m, combined)
		c.states[i].updates = sh.updates
		c.versions[i] = sh.version
		sh.mu.Unlock()
	}
	return c, nil
}

// Snapshot writes a checkpoint of the sharded engine as one binary envelope:
// every shard's installed summary view plus its pending update log. It does
// not force any compaction — in-flight background compactions are waited
// out (work the uninterrupted run performs anyway), but buffered updates
// stay buffered, so the restored engine's future compaction groupings (and
// therefore its floating-point results) match the uninterrupted run's
// exactly. Shards are captured one at a time under their locks, giving the
// same per-shard consistency Summary offers under concurrent ingestion.
func (s *Sharded) Snapshot(w io.Writer) error {
	c, err := s.capture(true)
	if err != nil {
		return err
	}
	_, err = c.WriteTo(w)
	return err
}

// Shards returns the captured shard count.
func (c *Checkpoint) Shards() int { return len(c.states) }

// Epoch returns the captured engine's replication epoch.
func (c *Checkpoint) Epoch() uint64 { return c.epoch }

// Versions appends the captured per-shard version vector to dst and returns
// it. Comparable only against vectors from the same Epoch.
func (c *Checkpoint) Versions(dst []uint64) []uint64 {
	return append(dst[:0], c.versions...)
}

// Updates returns the total updates the captured engine had ingested.
func (c *Checkpoint) Updates() int {
	total := 0
	for i := range c.states {
		total += c.states[i].updates
	}
	return total
}

// WriteTo encodes the checkpoint as one envelope — TagSharded, or
// TagWindowed for a windowed engine; the same bytes Sharded.Snapshot writes,
// so RestoreSharded (and the top-level Decode) reads it — in a single Write.
// A checkpoint is immutable: WriteTo may be called any number of times and
// always emits identical bytes.
func (c *Checkpoint) WriteTo(w io.Writer) (int64, error) {
	n, err := w.Write(c.appendSnapshot(nil, c.states, false))
	return int64(n), err
}
