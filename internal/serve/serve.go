// Package serve is the HTTP serving layer: it hosts a registry of named
// synopses — histograms, hierarchies, CDFs, wavelet estimators, selectivity
// estimators, and the streaming intake engines — behind three endpoint
// families:
//
//	GET/POST /v1/{name}/at        point queries (single via ?x=, batch via body)
//	GET/POST /v1/{name}/range     range queries (single via ?a=&b=, batch via body)
//	POST     /v1/{name}/add       ingest batches (streaming engines only)
//	GET      /v1/{name}/snapshot  stream the synopsis as one binary envelope
//	PUT      /v1/{name}/snapshot  replace (or create) the synopsis from an envelope
//	GET      /v1                  list hosted synopses
//
// Batch bodies are JSON or binary, negotiated by Content-Type (see wire.go);
// responses follow the request's codec. Snapshot bodies are the PR 4
// versioned binary envelopes verbatim, so a served synopsis replicates to
// another server — or to a file, and back — with the same bytes the library
// checkpoints.
//
// Concurrency model: every hosted synopsis lives behind an atomic.Pointer.
// A request loads the pointer once and serves entirely from that immutable
// (or internally synchronized) object; a snapshot push decodes and validates
// the complete replacement first and then publishes it with a single atomic
// store. Readers never take a registry lock, in-flight requests keep
// serving the object they loaded, and no request can observe a half-swapped
// synopsis. The streaming engines add their own synchronization (Sharded is
// internally locked per shard; a served Maintainer is wrapped in a mutex),
// and sharded snapshots are captured by stream.Checkpoint, which never
// stalls behind an in-flight merging run.
package serve

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/quantile"
	"repro/internal/stream"
	"repro/internal/synopsis"
	"repro/internal/wavelet"
)

// Config tunes a Server. The zero value is ready to use.
type Config struct {
	// Workers is the fan-out for batched query serving, following the
	// Options.Workers convention: ≤ 0 means all cores, 1 forces the serial
	// path. Per-request fan-out composes with cross-request concurrency, so
	// serving many small batches is usually fastest with Workers = 1.
	Workers int
	// MaxBatch caps the number of queries or updates accepted in one request
	// body. 0 means DefaultMaxBatch.
	MaxBatch int
	// MaxSnapshotBytes caps the size of a pushed snapshot body. 0 means
	// DefaultMaxSnapshotBytes.
	MaxSnapshotBytes int64
}

// DefaultMaxBatch bounds per-request batch sizes when Config.MaxBatch is 0.
const DefaultMaxBatch = 1 << 20

// DefaultMaxSnapshotBytes bounds pushed snapshot bodies when
// Config.MaxSnapshotBytes is 0. Synopses are O(k) numbers; 64 MiB is orders
// of magnitude above any real checkpoint.
const DefaultMaxSnapshotBytes = 64 << 20

// Server is the registry of hosted synopses plus the handler configuration.
// All methods are safe for concurrent use.
type Server struct {
	cfg     Config
	entries sync.Map // string → *entry
	// bufs recycles the request/response scratch of the zero-copy binary
	// serving path (see pool.go and handler.go).
	bufs wirePool
	// snapshotEncodes counts how many GET /snapshot requests actually ran an
	// encoder rather than serving the memoized body — a test hook pinning
	// the memoization contract.
	snapshotEncodes atomic.Int64
	// deltaEncodes is snapshotEncodes' twin for GET /snapshot?since= delta
	// requests: fan-out replication relies on N replicas at the same version
	// vector sharing one encoded frame.
	deltaEncodes atomic.Int64
	// repl is the replicator driving this server's fan-out, if one is
	// attached; /metrics renders per-replica lag and sync families from it.
	repl atomic.Pointer[Replicator]
	// notReady inverts the readiness flag so the zero value starts ready:
	// a server is ready unless whoever is driving recovery says otherwise.
	// GET /readyz answers 503 while not ready; /healthz stays 200 (the
	// process is alive, just not yet serving traffic).
	notReady atomic.Bool
}

// entry is one registry slot. The pointer — not the entry — is what a
// snapshot push swaps, so a name keeps its identity across hot-swaps and
// in-flight requests keep the object they loaded.
type entry struct {
	ptr atomic.Pointer[served]
	// snap memoizes the preserialized GET /snapshot body for immutable
	// synopses. The cache records which published object it was built from,
	// so the same atomic store that publishes a replacement synopsis also
	// invalidates the cache: a reader only trusts a cache whose owner is the
	// pointer it just loaded, and a racing writer stashing a body for the
	// previous object is simply ignored and overwritten by the next reader.
	snap atomic.Pointer[snapCache]
	// stats tallies requests served under this name. The counters belong to
	// the entry, not the published object, so they describe the name across
	// hot-swaps — exactly what a /metrics scraper graphing a dashboard wants.
	stats entryCounters
	// delta memoizes the last encoded GET /snapshot?since= frame, keyed by
	// the published pointer AND the since string, validated against the
	// engine's live version vector at read time (a delta source is mutable,
	// so unlike snap the owner check alone cannot prove freshness).
	delta atomic.Pointer[deltaCache]
	// applyMu serializes PUT delta applies on this name: the fleet-state
	// check and the in-place shard swap must be one atomic step with respect
	// to other appliers (readers stay lock-free as always).
	applyMu sync.Mutex
	// fleet is the replication coordinate this entry's engine embodies: the
	// primary epoch and version vector of the last delta applied to it. Only
	// PUT delta applies maintain it; a primary serving GETs never needs it.
	fleet atomic.Pointer[fleetState]
}

// fleetState is a replica's record of which primary state its engine holds.
type fleetState struct {
	epoch    uint64
	versions []uint64
}

// deltaCache is one memoized delta frame. to is the version vector the frame
// brings a replica to; the cache is live only while the engine still sits at
// exactly that vector.
type deltaCache struct {
	owner *served
	since string
	to    []uint64
	body  []byte
}

// entryCounters are the per-name request tallies /metrics exposes. They
// count requests, not batch elements (batch sizes are the client's business;
// engine-side update totals come from the ingest stats families).
type entryCounters struct {
	points    atomic.Int64
	ranges    atomic.Int64
	ingests   atomic.Int64
	snapshots atomic.Int64
}

// snapCache is one memoized snapshot body, valid only while owner is the
// entry's published object.
type snapCache struct {
	owner *served
	body  []byte
}

// NewServer builds a server with the given configuration (nil for defaults).
func NewServer(cfg *Config) *Server {
	s := &Server{}
	if cfg != nil {
		s.cfg = *cfg
	}
	if s.cfg.MaxBatch <= 0 {
		s.cfg.MaxBatch = DefaultMaxBatch
	}
	if s.cfg.MaxSnapshotBytes <= 0 {
		s.cfg.MaxSnapshotBytes = DefaultMaxSnapshotBytes
	}
	return s
}

// SetReady flips the readiness gate served by GET /readyz. A durable server
// boots not-ready, recovers its engines, hosts them, and only then calls
// SetReady(true) — load balancers hold traffic until replay has finished.
func (s *Server) SetReady(ready bool) { s.notReady.Store(!ready) }

// Ready reports whether GET /readyz currently answers 200.
func (s *Server) Ready() bool { return !s.notReady.Load() }

// queryParams carries the per-request knobs a served synopsis may need: the
// fan-out for batch kernels, for hierarchies the requested piece budget k,
// and for windowed streaming engines the sliding-window span (?window=, in
// epochs; 0 means every retained epoch) and exponential-decay half-life
// (?halflife=, in epochs; 0 means no decay).
type queryParams struct {
	workers  int
	k        int
	window   int
	halflife float64
}

// windowed reports whether the request asked for a windowed or decayed
// answer — the signal that makes every synopsis kind other than a windowed
// streaming engine reject the request instead of silently ignoring the
// parameters.
func (q queryParams) windowed() bool { return q.window > 0 || q.halflife > 0 }

// windowedServed is the optional sliding-window face of a served synopsis:
// only adapters backed by a windowed streaming engine accept ?window= /
// ?halflife= queries.
type windowedServed interface {
	windowedQueries() bool
}

// served is one hosted synopsis behind its serving adapter. Implementations
// must be safe for concurrent use: either the underlying object is immutable
// (histogram, hierarchy, CDF, estimator) or the adapter synchronizes.
type served interface {
	// kind names the synopsis type for listings and errors.
	kind() string
	// pointBatch answers point queries into out (grown only when too small,
	// reused otherwise — the zero-copy path recycles it per request; nil is
	// always valid). Invalid queries return an error (mapped to a 4xx),
	// never a panic.
	pointBatch(xs []int, q queryParams, out []float64) ([]float64, error)
	// rangeBatch answers range-sum queries [as[i], bs[i]] into out, under
	// the same reuse contract as pointBatch.
	rangeBatch(as, bs []int, q queryParams, out []float64) ([]float64, error)
	// snapshot writes the synopsis as one binary envelope.
	snapshot(w io.Writer) error
}

// ingester is the optional intake face of a served synopsis.
type ingester interface {
	ingest(points []int, weights []float64) error
}

// deltaSource is the optional replication face: adapters backed by a sharded
// engine expose it, and GET /snapshot?since= serves version-vector deltas
// from it. Note that exposing deltaSource does NOT make an adapter a delta
// PUT target — in-place applies are restricted to the bare sharded adapter,
// because swapping shard states under a write-ahead-logged engine would leave
// the WAL blind to the change.
type deltaSource interface {
	deltaEngine() *stream.Sharded
}

// Host registers (or atomically replaces) the synopsis served under name.
// Supported values: *core.Histogram, *core.Hierarchy, *quantile.CDF,
// *wavelet.Synopsis, synopsis.Synopsis, *stream.Maintainer, *stream.Sharded,
// and *stream.DurableSharded (the one write-ahead-logged engine; a
// single-lane durable engine is one with one shard).
func (s *Server) Host(name string, v any) error {
	if name == "" {
		return fmt.Errorf("serve: empty synopsis name")
	}
	sv, err := adapt(v)
	if err != nil {
		return err
	}
	e, _ := s.entries.LoadOrStore(name, &entry{})
	ent := e.(*entry)
	// The pointer store is the publish AND the snapshot-cache invalidation:
	// a memoized body is only trusted while its owner matches the published
	// pointer. The explicit clears just release the stale bodies to the GC.
	ent.ptr.Store(&sv)
	ent.snap.Store(nil)
	ent.delta.Store(nil)
	return nil
}

// Load decodes one binary envelope from r and hosts the decoded synopsis
// under name — restore-on-boot for servers fed from checkpoint files, and
// the decoding half of a snapshot push.
func (s *Server) Load(name string, r io.Reader) error {
	v, err := decodeAny(r)
	if err != nil {
		return err
	}
	return s.Host(name, v)
}

// lookup returns the synopsis currently served under name.
func (s *Server) lookup(name string) (served, bool) {
	e, ok := s.lookupEntry(name)
	if !ok {
		return nil, false
	}
	p := e.ptr.Load()
	if p == nil {
		return nil, false
	}
	return *p, true
}

// lookupEntry returns the registry slot for name — the handle snapshot
// serving needs to reach both the published pointer and its memoized body.
func (s *Server) lookupEntry(name string) (*entry, bool) {
	e, ok := s.entries.Load(name)
	if !ok {
		return nil, false
	}
	return e.(*entry), true
}

// Names returns the hosted names with their kinds, sorted by name.
func (s *Server) Names() []NameInfo {
	var out []NameInfo
	s.entries.Range(func(key, value any) bool {
		if p := value.(*entry).ptr.Load(); p != nil {
			out = append(out, NameInfo{Name: key.(string), Kind: (*p).kind()})
		}
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// NameInfo is one row of the registry listing.
type NameInfo struct {
	Name string `json:"name"`
	Kind string `json:"kind"`
}

// adapt wraps a synopsis value in its serving adapter.
func adapt(v any) (served, error) {
	switch obj := v.(type) {
	case *core.Histogram:
		return histServed{h: obj}, nil
	case *core.Hierarchy:
		return &hierServed{hier: obj}, nil
	case *quantile.CDF:
		return cdfServed{c: obj}, nil
	case *wavelet.Synopsis:
		est, err := synopsis.FromWavelet(obj)
		if err != nil {
			return nil, err
		}
		return estServed{est: est, name: "wavelet", enc: func(w io.Writer) error {
			_, err := obj.WriteTo(w)
			return err
		}}, nil
	case *stream.Maintainer:
		ms := &maintServed{m: obj}
		ms.eng = ms
		return ms, nil
	case *stream.Sharded:
		return shardServed{streamQueries{obj}, obj}, nil
	case *stream.DurableSharded:
		s := obj.Engine()
		return durableShardServed{shardServed{streamQueries{s}, s}, obj}, nil
	default:
		if est, ok := v.(synopsis.Synopsis); ok {
			return estServed{est: est, name: "estimator", enc: func(w io.Writer) error {
				return synopsis.EncodeEstimator(w, est)
			}}, nil
		}
		return nil, fmt.Errorf("serve: cannot host a %T", v)
	}
}

// decodeAny reads one binary envelope and returns the servable object inside
// — the serving layer's mirror of the top-level tag dispatcher, restricted
// to the types the registry can host.
func decodeAny(r io.Reader) (any, error) {
	dec := codec.NewReader(r)
	tag, err := dec.Header()
	if err != nil {
		return nil, err
	}
	var v any
	switch tag {
	case codec.TagHistogram:
		v, err = core.DecodeHistogramPayload(dec)
	case codec.TagHierarchy:
		v, err = core.DecodeHierarchyPayload(dec)
	case codec.TagCDF:
		v, err = quantile.DecodePayload(dec)
	case codec.TagWavelet:
		v, err = wavelet.DecodePayload(dec)
	case codec.TagEstimator:
		v, err = synopsis.DecodeEstimatorPayload(dec)
	case codec.TagMaintainer, codec.TagSharded, codec.TagWindowed:
		v, err = stream.DecodePayload(dec, tag)
	default:
		return nil, fmt.Errorf("serve: envelope type tag %d is not servable", tag)
	}
	if err != nil {
		return nil, err
	}
	if err := dec.Close(); err != nil {
		return nil, err
	}
	return v, nil
}

// --- Serving adapters. ---

// histServed serves an immutable histogram: batch queries go straight to the
// indexed AtBatch/RangeSumBatch kernels after validation (the kernels panic
// on invalid input by contract; the serving layer owes clients an error).
type histServed struct {
	h *core.Histogram
}

func (histServed) kind() string { return "histogram" }

func checkPoints(xs []int, n int) error {
	for i, x := range xs {
		if x < 1 || x > n {
			return fmt.Errorf("query %d: point %d out of [1, %d]", i, x, n)
		}
	}
	return nil
}

func checkRangePairs(as, bs []int, n int) error {
	for i := range as {
		if as[i] < 1 || bs[i] > n || as[i] > bs[i] {
			return fmt.Errorf("query %d: range [%d, %d] invalid for domain [1, %d]", i, as[i], bs[i], n)
		}
	}
	return nil
}

func (s histServed) pointBatch(xs []int, q queryParams, out []float64) ([]float64, error) {
	if err := checkPoints(xs, s.h.N()); err != nil {
		return nil, err
	}
	return s.h.AtBatch(xs, out, q.workers), nil
}

func (s histServed) rangeBatch(as, bs []int, q queryParams, out []float64) ([]float64, error) {
	if err := checkRangePairs(as, bs, s.h.N()); err != nil {
		return nil, err
	}
	return s.h.RangeSumBatch(as, bs, out, q.workers), nil
}

func (s histServed) snapshot(w io.Writer) error {
	_, err := s.h.WriteTo(w)
	return err
}

// hierServed serves a multi-scale hierarchy: queries carry the piece budget
// k (?k= on the URL), the ForK(k) histogram is resolved once per LEVEL and
// memoized, and the memoized histogram serves like any other. Keying the
// cache by the selected level — not by the client-supplied k — matters
// twice over: every k mapping to the same level shares one flattened
// histogram (and its lazily built query index), and the cache is bounded by
// NumLevels, so untrusted clients sweeping k values cannot grow server
// memory without limit. The cache is per entry, so a hot-swap starts fresh.
type hierServed struct {
	hier    *core.Hierarchy
	byLevel sync.Map // level index → *core.Histogram
}

func (*hierServed) kind() string { return "hierarchy" }

// levelIndex is the level ForK(k) serves, for a k ≥ 1 that resolve has
// checked. LevelFor reads the stored piece counts, so it builds nothing on
// the request path.
func (s *hierServed) levelIndex(k int) int {
	li, _ := s.hier.LevelFor(k)
	return li
}

func (s *hierServed) resolve(k int) (*core.Histogram, error) {
	if k < 1 {
		return nil, fmt.Errorf("hierarchy queries need k ≥ 1 (pass ?k=); got %d", k)
	}
	if h, ok := s.byLevel.Load(s.levelIndex(k)); ok {
		return h.(*core.Histogram), nil
	}
	res, err := s.hier.ForK(k)
	if err != nil {
		return nil, err
	}
	// LoadOrStore keeps exactly one resolved histogram per level under
	// racing first queries (ForK is deterministic, and res.Rounds is the
	// level it selected).
	h, _ := s.byLevel.LoadOrStore(res.Rounds, res.Histogram)
	return h.(*core.Histogram), nil
}

func (s *hierServed) pointBatch(xs []int, q queryParams, out []float64) ([]float64, error) {
	h, err := s.resolve(q.k)
	if err != nil {
		return nil, err
	}
	return histServed{h: h}.pointBatch(xs, q, out)
}

func (s *hierServed) rangeBatch(as, bs []int, q queryParams, out []float64) ([]float64, error) {
	h, err := s.resolve(q.k)
	if err != nil {
		return nil, err
	}
	return histServed{h: h}.rangeBatch(as, bs, q, out)
}

func (s *hierServed) snapshot(w io.Writer) error {
	_, err := s.hier.WriteTo(w)
	return err
}

// cdfServed serves a CDF: a point query At(x) is the cumulative mass up to
// x, and a range query [a, b] is the mass in the range, At(b) − At(a−1).
type cdfServed struct {
	c *quantile.CDF
}

func (cdfServed) kind() string { return "cdf" }

// growValues applies the out-reuse contract for the adapters that fill the
// answer vector themselves.
func growValues(out []float64, n int) []float64 {
	if cap(out) < n {
		return make([]float64, n)
	}
	return out[:n]
}

func (s cdfServed) pointBatch(xs []int, _ queryParams, out []float64) ([]float64, error) {
	out = growValues(out, len(xs))
	for i, x := range xs {
		v, err := s.c.At(x)
		if err != nil {
			return nil, fmt.Errorf("query %d: %w", i, err)
		}
		out[i] = v
	}
	return out, nil
}

func (s cdfServed) rangeBatch(as, bs []int, _ queryParams, out []float64) ([]float64, error) {
	out = growValues(out, len(as))
	for i := range as {
		if as[i] < 1 || as[i] > bs[i] {
			return nil, fmt.Errorf("query %d: range [%d, %d] invalid", i, as[i], bs[i])
		}
		hi, err := s.c.At(bs[i])
		if err != nil {
			return nil, fmt.Errorf("query %d: %w", i, err)
		}
		var lo float64
		if as[i] > 1 {
			if lo, err = s.c.At(as[i] - 1); err != nil {
				return nil, fmt.Errorf("query %d: %w", i, err)
			}
		}
		out[i] = hi - lo
	}
	return out, nil
}

func (s cdfServed) snapshot(w io.Writer) error {
	_, err := s.c.WriteTo(w)
	return err
}

// estServed serves a range estimator (V-optimal, equi-width, equi-depth, or
// wavelet): points are width-1 ranges, ranges go through the batch entry
// point with its native fast paths.
type estServed struct {
	est  synopsis.Synopsis
	name string
	enc  func(io.Writer) error
}

func (s estServed) kind() string { return s.name }

func (s estServed) pointBatch(xs []int, q queryParams, out []float64) ([]float64, error) {
	return synopsis.EstimateRangeBatchInto(s.est, xs, xs, out, q.workers)
}

func (s estServed) rangeBatch(as, bs []int, q queryParams, out []float64) ([]float64, error) {
	return synopsis.EstimateRangeBatchInto(s.est, as, bs, out, q.workers)
}

func (s estServed) snapshot(w io.Writer) error { return s.enc(w) }

// streamQueries is the query half every streaming adapter shares: a batch of
// points (as width-1 ranges) or ranges is one EstimateRangesOver call at the
// request's window and half-life, which reads each shard once per 64 ranges.
type streamQueries struct {
	eng interface {
		EstimateRangesOver(as, bs []int, window int, halflife float64, out []float64) error
	}
}

func (s streamQueries) pointBatch(xs []int, q queryParams, out []float64) ([]float64, error) {
	return s.rangeBatch(xs, xs, q, out)
}

func (s streamQueries) rangeBatch(as, bs []int, q queryParams, out []float64) ([]float64, error) {
	out = growValues(out, len(as))
	if err := s.eng.EstimateRangesOver(as, bs, q.window, q.halflife, out); err != nil {
		return nil, err
	}
	return out, nil
}

// maintServed serves a single-goroutine streaming maintainer behind one
// mutex: correct for modest traffic, and the restore target for maintainer
// checkpoints. High-concurrency intake should host a *stream.Sharded. Its
// embedded streamQueries queries the adapter itself, so every read takes
// the mutex.
type maintServed struct {
	streamQueries
	mu sync.Mutex
	m  *stream.Maintainer
}

func (*maintServed) kind() string { return "maintainer" }

// EstimateRangesOver answers a batch on the maintainer under the adapter
// mutex.
func (s *maintServed) EstimateRangesOver(as, bs []int, window int, halflife float64, out []float64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.m.EstimateRangesOver(as, bs, window, halflife, out)
}

func (s *maintServed) windowedQueries() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.m.Windowed()
}

func (s *maintServed) ingest(points []int, weights []float64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.m.AddBatch(points, weights)
}

func (s *maintServed) snapshot(w io.Writer) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.m.Snapshot(w)
}

// shardServed serves the multi-core intake engine. The engine is internally
// synchronized, so queries, ingest, and snapshots all run concurrently;
// snapshots capture a stream.Checkpoint, which never waits for an in-flight
// background compaction.
type shardServed struct {
	streamQueries
	s *stream.Sharded
}

func (shardServed) kind() string { return "sharded" }

func (s shardServed) ingest(points []int, weights []float64) error {
	return s.s.AddBatch(points, weights)
}

func (s shardServed) snapshot(w io.Writer) error {
	ckpt, err := s.s.Checkpoint()
	if err != nil {
		return err
	}
	_, err = ckpt.WriteTo(w)
	return err
}

func (s shardServed) ingestStats() stream.IngestStats { return s.s.Stats() }

func (s shardServed) deltaEngine() *stream.Sharded { return s.s }

func (s shardServed) windowedQueries() bool { return s.s.Windowed() }

func (s *maintServed) ingestStats() stream.IngestStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return stream.IngestStats{
		Shards:              1,
		Updates:             s.m.Updates(),
		Compactions:         s.m.Compactions(),
		CompactionDurations: s.m.CompactionDurations(nil),
	}
}

// ingestStatser / durableStatser are the optional metrics faces of a served
// synopsis: /metrics renders the ingest families for any adapter offering
// the former and the WAL/checkpoint families for any offering the latter.
// Immutable synopses offer neither and cost the scrape nothing.
type ingestStatser interface {
	ingestStats() stream.IngestStats
}

type durableStatser interface {
	durableStats() stream.DurableStats
}

// durableShardServed serves a write-ahead-logged sharded engine. It is the
// bare sharded adapter over the wrapped engine except for ingest, which goes
// through the durable wrapper — logged before applied, so every acknowledged
// POST /add survives a crash per the WAL's fsync policy — and the
// WAL/checkpoint stats. Queries, snapshots and delta sources read the engine
// directly: reads need no logging, and snapshot bytes are for replication
// elsewhere; local durability is the WAL's job. Being a distinct type, it is
// never a partial-delta PUT target (see applyDelta).
type durableShardServed struct {
	shardServed
	d *stream.DurableSharded
}

func (durableShardServed) kind() string { return "durable-sharded" }

func (s durableShardServed) ingest(points []int, weights []float64) error {
	return s.d.AddBatch(points, weights)
}

func (s durableShardServed) durableStats() stream.DurableStats { return s.d.Stats() }
