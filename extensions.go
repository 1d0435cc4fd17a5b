package histapprox

import (
	"repro/internal/core"
	"repro/internal/quantile"
	"repro/internal/stream"
	"repro/internal/wavelet"
)

// --- Streaming and mergeable summaries (the maintenance setting of
// [GMP97, GGI+02] that motivates fast histogram construction). ---

// StreamingHistogram maintains an O(k)-piece histogram summary under a
// stream of point updates with O(1) amortized update cost: updates are
// buffered and periodically recompacted through one merging run. Range
// queries between compactions go through EstimateRange, which combines the
// indexed summary with the pending buffer without forcing a compaction.
type StreamingHistogram = stream.Maintainer

// NewStreamingHistogram builds a maintainer over [1, n] targeting k-piece
// summaries. bufferCap ≤ 0 picks a default proportional to the summary
// size. Pass nil opts for DefaultOptions.
func NewStreamingHistogram(n, k, bufferCap int, opts *Options) (*StreamingHistogram, error) {
	return stream.NewMaintainer(n, k, bufferCap, resolveOpts(opts))
}

// NewWindowedStreamingHistogram builds a maintainer whose summaries cover a
// sliding window of the newest epochs: Advance seals the live epoch into a
// ring of at most epochs−1 per-epoch summaries (evicting the oldest), and
// EstimateRangeOver / SummaryOver answer over the newest `window` epochs,
// optionally down-weighting older epochs by an exponential half-life. Decay
// scales each sealed summary's masses by the elapsed-epoch factor as it
// enters the combined answer — the merging guarantee is scale-invariant, so
// the √(1+δ)·opt certificate survives the reweighting. epochs ≥ 1; the other
// parameters follow NewStreamingHistogram.
func NewWindowedStreamingHistogram(n, k, epochs, bufferCap int, opts *Options) (*StreamingHistogram, error) {
	return stream.NewWindowedMaintainer(n, k, epochs, bufferCap, resolveOpts(opts))
}

// MergeHistograms combines the summaries of two disjoint data sets over the
// same domain into one O(k)-piece summary: the pointwise sum is formed
// exactly on the common refinement of the two partitions, then recompacted
// with one merging run. For more than two summaries use MergeSummaries,
// which sweeps the m-way refinement in one pass.
func MergeHistograms(h1, h2 *Histogram, k int, opts *Options) (*Histogram, error) {
	return stream.Merge(h1, h2, k, resolveOpts(opts))
}

// MergeSummaries combines any number of histogram summaries of disjoint
// data sets over the same domain into one O(k)-piece summary: a single
// sweep over the m-way common refinement plus one recompaction (instead of
// the pairwise chain's m−1 refine-and-recompact steps), recursing through a
// deterministic parallel aggregation tree for large m. The output is
// bit-identical for every opts.Workers value. Pass nil opts for
// DefaultOptions.
func MergeSummaries(hs []*Histogram, k int, opts *Options) (*Histogram, error) {
	return stream.MergeAll(hs, k, resolveOpts(opts))
}

// ShardedHistogram is the multi-core streaming intake engine: point updates
// hash across per-core shards, each an independently compacting
// StreamingHistogram whose merging runs happen on background goroutines
// behind a double-buffered update log — Add/AddBatch never block on a
// merging run while compaction keeps up. Summary merges the per-shard
// summaries through MergeSummaries, so the global result carries the same
// merging guarantee as the serial maintainer. All methods are safe for
// concurrent use; Stats reports throughput counters and recent
// compaction/pause durations for capacity planning.
type ShardedHistogram = stream.Sharded

// IngestStats is a snapshot of a ShardedHistogram's ingestion counters and
// recent compaction/pause durations.
type IngestStats = stream.IngestStats

// NewShardedMaintainer builds a sharded streaming maintainer over [1, n]
// targeting k-piece global summaries. shards ≤ 0 defaults to one shard per
// core — runtime.GOMAXPROCS(0), the same convention as Options.Workers —
// never an error; bufferCap is the per-shard compaction period (0 picks the
// default); nil opts means DefaultOptions. For a fixed shard count and a
// fixed single-producer update order the global summary is bit-identical
// across runs (note the per-core default makes the shard count — and hence
// the exact floating-point results — machine-dependent; pass an explicit
// positive count for cross-machine reproducibility).
func NewShardedMaintainer(n, k, shards, bufferCap int, opts *Options) (*ShardedHistogram, error) {
	return stream.NewSharded(n, k, shards, bufferCap, resolveOpts(opts))
}

// NewWindowedShardedMaintainer builds a sharded maintainer with a sliding
// epoch window, following the NewWindowedStreamingHistogram contract per
// shard: Advance seals every shard's live epoch in lockstep, and windowed /
// decayed queries combine the per-shard rings. shards ≤ 0 defaults to one
// shard per core, as in NewShardedMaintainer.
func NewWindowedShardedMaintainer(n, k, epochs, shards, bufferCap int, opts *Options) (*ShardedHistogram, error) {
	return stream.NewWindowedSharded(n, k, epochs, shards, bufferCap, resolveOpts(opts))
}

// --- Crash-safe durability: write-ahead logging + incremental checkpoints. ---

// DurableShardedHistogram is a ShardedHistogram whose ingest calls are
// write-ahead logged before they are applied: every acknowledged Add/AddBatch
// survives a process crash (per the group-commit fsync policy), periodic
// checkpoints bound the log and the recovery time, and recovery replays the
// log tail to a state bit-identical to an uninterrupted run over the
// surviving updates — same floats, same compaction cadence. A torn or
// corrupted log tail (the bytes an OS crash can leave behind) is detected by
// checksum and truncated cleanly, never a panic. It is the only durable
// engine: a single-lane durable engine is one with shards = 1.
type DurableShardedHistogram = stream.DurableSharded

// DurabilityOptions configures a durable engine: the WAL directory, the
// group-commit fsync policy (SyncEvery/SyncInterval — SyncEvery=1 fsyncs
// before every ingest call returns), and the checkpoint cadence.
type DurabilityOptions = stream.DurableOptions

// DurabilityStats snapshots a durable engine's counters: ingest stats, WAL
// appends/bytes/fsyncs/group-commit sizes, and checkpoint totals/durations.
type DurabilityStats = stream.DurableStats

// OpenDurableShardedMaintainer opens (or creates) a durable sharded
// maintainer persisted in d.Dir: if the directory holds a WAL, the engine is
// recovered — snapshot restored, log tail replayed — and otherwise a fresh
// engine and log are created. The n/k/shards/bufferCap/opts parameters apply
// only to creation; recovery restores them from the snapshot.
func OpenDurableShardedMaintainer(n, k, shards, bufferCap int, opts *Options, d DurabilityOptions) (*DurableShardedHistogram, error) {
	return stream.OpenDurableSharded(n, k, shards, bufferCap, resolveOpts(opts), d)
}

// RecoverDurableShardedMaintainer recovers a durable sharded maintainer from
// an existing WAL directory, failing if d.Dir holds none.
func RecoverDurableShardedMaintainer(d DurabilityOptions) (*DurableShardedHistogram, error) {
	return stream.RecoverDurableSharded(d)
}

// --- Quantile queries from a summary. ---

// CDF answers cumulative-distribution and quantile queries from a
// non-negative histogram summary in O(log pieces) per query.
type CDF = quantile.CDF

// NewCDF validates h (non-negative pieces, positive mass) and precomputes
// prefix masses.
func NewCDF(h *Histogram) (*CDF, error) { return quantile.New(h) }

// --- Wavelet synopsis baseline. ---

// WaveletSynopsis is a B-term Haar wavelet synopsis — the classical ℓ2
// synopsis alternative to V-optimal histograms, provided for comparison.
type WaveletSynopsis = wavelet.Synopsis

// NewWaveletSynopsis keeps the B largest-magnitude coefficients of the
// orthonormal Haar transform of data, the ℓ2-optimal B-term wavelet
// approximation. Its Error method reports the exact ℓ2 reconstruction error
// via Parseval.
func NewWaveletSynopsis(data []float64, b int) (*WaveletSynopsis, error) {
	return wavelet.NewSynopsis(data, b)
}

// FitSummary runs the merging algorithm starting from an arbitrary interval
// summary (a partition of [1, n] with per-interval length/Σ/Σ² statistics)
// instead of raw data. This is the low-level entry point for building
// custom summary pipelines; most callers want Fit, NewStreamingHistogram,
// or MergeHistograms.
func FitSummary(n int, boundaries []int, sums, sumSqs []float64, k int, opts *Options) (*Histogram, float64, error) {
	part, stats, err := summaryInput(n, boundaries, sums, sumSqs)
	if err != nil {
		return nil, 0, err
	}
	res, err := core.ConstructHistogramFromSummary(n, part, stats, k, resolveOpts(opts))
	if err != nil {
		return nil, 0, err
	}
	return res.Histogram, res.Error, nil
}
