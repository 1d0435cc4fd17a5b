package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/stream"
	"repro/internal/wal"
)

// The stream_rw workload: durable windowed intake with reads and
// replication beside writes. Ingest, compaction, pending-buffer scans,
// epoch seals, WAL group commit, checkpoints and delta replication compete
// for the cores; the large merging fit and the static index kernel sit
// idle. The engine's working set fits in cache.

type streamParams struct {
	seed                         uint64
	n, k, epochs, shards, bufCap int
	batch                        int // updates per /add
	addsPerCycle                 int // /add requests before each windowed read
	ranges                       int // ranges per read
	fixtureRecords               int // WAL tail records the set-up recovers
	advanceEvery                 int // adds per epoch seal
	syncEvery                    int // adds per replica sync
	walSyncEvery                 int // WAL records per fsync
	ckptEvery                    int // logged calls per checkpoint
	adds                         int // timed adds, over all clients
	clients                      int
	setupReps                    int
	patterns                     int // distinct epoch hot sets in the body pool
	rangeBodies                  int
	verifyEpochs                 int // known epochs in the verification phase
	verifyAdds                   int // adds per verification epoch
	verifyBatches                int // verification read batches
	traced                       bool
}

// streamAddsPerSecond sizes the timed work from the measured ack rate of
// two clients on a 2-vCPU box.
const streamAddsPerSecond = 3200

// The windowed read every client sends after its adds.
const (
	readWindow   = 4
	readHalflife = 2
	readQuery    = "?window=4&halflife=2"
)

func runStreamRW(cfg runConfig) (*outcome, error) {
	p := defaultStreamParams(cfg.seed)
	p.adds, p.traced = streamAddsPerSecond*cfg.seconds, cfg.traced
	return streamWorkload(p, cfg.work)
}

func defaultStreamParams(seed uint64) streamParams {
	return streamParams{
		seed: seed, n: 1 << 20, k: 64, epochs: 16, shards: 2, bufCap: 4096,
		batch: 1024, addsPerCycle: 4, ranges: 16, fixtureRecords: 4096,
		advanceEvery: 64, syncEvery: 256, walSyncEvery: 256, ckptEvery: 1024,
		clients: 2, setupReps: setupReps, patterns: 32, rangeBodies: 64,
		verifyEpochs: 3, verifyAdds: 32, verifyBatches: 1024,
	}
}

type streamInputs struct {
	points      [][]int // the add-batch pool; batch i belongs to epoch pattern i / advanceEvery
	bodies      [][]byte
	rangeBodies [][]byte
	ack         []byte
	// The verification phase: verifyEpochs × verifyAdds add bodies of
	// known updates, and verifyBatches range batches with the exact decayed
	// window sums they must answer once those epochs are sealed.
	verifyBodies [][]byte
	verifyRanges [][]byte
	verifyExact  [][]float64
}

// zipfPoints draws count Zipf(1.1) points whose hot set sits at a
// pattern-dependent offset of the domain, so it drifts from epoch to epoch.
func zipfPoints(p streamParams, stream uint64, pattern, count int) []int {
	r := newRand(p.seed, stream)
	z := newZipf(r, p.n)
	shift := uint64(pattern) * uint64(p.n/p.patterns)
	pts := make([]int, count)
	for i := range pts {
		rank := z.Uint64()
		pts[i] = 1 + int((rank*0x9E3779B97F4A7C15>>20+shift)%uint64(p.n))
	}
	return pts
}

func genStream(p streamParams) (*streamInputs, error) {
	in := &streamInputs{ack: []byte(fmt.Sprintf("{\"ingested\":%d}\n", p.batch))}
	for i := range p.patterns * p.advanceEvery {
		pts := zipfPoints(p, uint64(100000+i), i/p.advanceEvery, p.batch)
		var buf bytes.Buffer
		if err := serve.EncodeAddBody(&buf, pts, nil); err != nil {
			return nil, err
		}
		in.points, in.bodies = append(in.points, pts), append(in.bodies, buf.Bytes())
	}
	r := newRand(p.seed, 2)
	for range p.rangeBodies {
		as, bs := make([]int, p.ranges), make([]int, p.ranges)
		for i := range as {
			as[i], bs[i] = logUniformRange(r, p.n)
		}
		var buf bytes.Buffer
		if err := serve.EncodeRangesBody(&buf, as, bs); err != nil {
			return nil, err
		}
		in.rangeBodies = append(in.rangeBodies, buf.Bytes())
	}
	return in, genVerify(p, in)
}

// genVerify builds the verification phase's inputs and expected answers.
// After the phase's last seal the live epoch is empty and known epoch e is
// verifyEpochs−e epochs old. An epoch's count in [a, b] comes from its
// sorted points by binary search.
func genVerify(p streamParams, in *streamInputs) error {
	sorted := make([][]int, p.verifyEpochs)
	for e := range p.verifyEpochs {
		for a := range p.verifyAdds {
			pts := zipfPoints(p, uint64(200000+e*p.verifyAdds+a), p.patterns/2+e, p.batch)
			var buf bytes.Buffer
			if err := serve.EncodeAddBody(&buf, pts, nil); err != nil {
				return err
			}
			in.verifyBodies = append(in.verifyBodies, buf.Bytes())
			sorted[e] = append(sorted[e], pts...)
		}
		slices.Sort(sorted[e])
	}
	r := newRand(p.seed, 4)
	for range p.verifyBatches {
		as, bs := make([]int, p.ranges), make([]int, p.ranges)
		exact := make([]float64, p.ranges)
		for i := range as {
			as[i], bs[i] = logUniformRange(r, p.n)
			for e, pts := range sorted {
				count := sort.SearchInts(pts, bs[i]+1) - sort.SearchInts(pts, as[i])
				exact[i] += math.Exp2(-float64(p.verifyEpochs-e)/readHalflife) * float64(count)
			}
		}
		var buf bytes.Buffer
		if err := serve.EncodeRangesBody(&buf, as, bs); err != nil {
			return err
		}
		in.verifyRanges, in.verifyExact = append(in.verifyRanges, buf.Bytes()), append(in.verifyExact, exact)
	}
	return nil
}

// writeFixture writes the crash image the set-up recovers from: an empty
// checkpoint plus a WAL tail of fixtureRecords add batches with an epoch
// marker after every advanceEvery of them.
func writeFixture(dir string, p streamParams, in *streamInputs) error {
	eng, err := stream.NewWindowedSharded(p.n, p.k, p.epochs, p.shards, p.bufCap, core.DefaultOptions())
	if err != nil {
		return err
	}
	l, err := wal.Create(dir, wal.Options{SyncEvery: p.walSyncEvery, SyncInterval: time.Hour}, eng.Snapshot)
	if err != nil {
		return err
	}
	for rec := range p.fixtureRecords {
		if _, err := l.Append(in.points[rec%len(in.points)], nil); err != nil {
			l.Close()
			return err
		}
		if (rec+1)%p.advanceEvery == 0 {
			if _, err := l.Append(nil, nil); err != nil {
				l.Close()
				return err
			}
		}
	}
	return l.Close()
}

// copyDir copies the fixture's files, streaming them so the copy does not
// raise the peak resident set, and syncs them so their write-back is not
// left to land in the timed recovery.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close() // only read
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	_, err = io.Copy(out, in)
	if err == nil {
		err = out.Sync()
	}
	if cerr := out.Close(); err == nil {
		err = cerr
	}
	return err
}

// streamRig is one booted primary with its replica.
type streamRig struct {
	dir              string
	d                *stream.DurableSharded
	primary, replica *httpServer
	repl             *serve.Replicator
	transports       []*http.Transport
	firstSyncBytes   int64
}

func (g *streamRig) close() error {
	g.primary.close()
	g.replica.close()
	for _, tr := range g.transports {
		tr.CloseIdleConnections()
	}
	err := g.d.Close()
	if rerr := os.RemoveAll(g.dir); err == nil {
		err = rerr
	}
	return err
}

func streamHandlerName(r *http.Request) string {
	switch {
	case strings.HasSuffix(r.URL.Path, "/add"):
		return "serve.add.handler"
	case strings.HasSuffix(r.URL.Path, "/range"):
		return "serve.read.handler"
	}
	return "serve.snapshot.handler"
}

// bootStream is one set-up: a restart after a crash. It recovers the
// durable engine from a copy of the fixture, hosts it, and runs the
// replica's first full sync. The copy is generator work and is not timed.
func bootStream(p streamParams, fixture, dir string, t *tracer) (*streamRig, interval, error) {
	if err := copyDir(fixture, dir); err != nil {
		return nil, interval{}, err
	}
	g := &streamRig{dir: dir}
	srv, rsrv := serve.NewServer(&serve.Config{Workers: 1}), serve.NewServer(&serve.Config{Workers: 1})
	var err error
	if g.primary, err = startServer(tracedHandler(t, srv.Handler(), streamHandlerName)); err != nil {
		return nil, interval{}, err
	}
	if g.replica, err = startServer(tracedHandler(t, rsrv.Handler(), func(*http.Request) string { return "replica.handler" })); err != nil {
		g.primary.close()
		return nil, interval{}, err
	}
	client := func(base string) *serve.Client {
		tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
		g.transports = append(g.transports, tr)
		return serve.NewClient(base, &http.Client{Transport: tr}, true)
	}
	// The replicator is driven inline by SyncOnce; its interval timer never
	// starts.
	g.repl, err = serve.NewReplicator("events", client(g.primary.base), []*serve.Client{client(g.replica.base)}, time.Hour)
	if err == nil {
		opts := stream.DurableOptions{Dir: dir, SyncEvery: p.walSyncEvery, SyncInterval: time.Hour, CheckpointEvery: p.ckptEvery}
		if t != nil {
			opts.OpenFile = tracedOpen(t)
		}
		runtime.GC()
		w := startWatch()
		g.d, err = stream.RecoverDurableSharded(opts)
		t.add(0, 0, 0, "stream.RecoverDurableSharded", w.t0, time.Now())
		if err == nil {
			err = srv.Host("events", g.d)
		}
		if err == nil {
			t0 := time.Now()
			err = g.repl.SyncOnce(0)
			t.add(0, 0, 0, "serve.replicate.first_sync", t0, time.Now())
		}
		iv := w.stop()
		if err == nil {
			g.firstSyncBytes = g.repl.Status()[0].DeltaBytes
			return g, iv, nil
		}
	}
	g.primary.close()
	g.replica.close()
	if g.d != nil {
		g.d.Close()
	}
	return nil, interval{}, fmt.Errorf("set-up: %w", err)
}

// tracedFile is a WAL segment file whose writes and fsyncs record spans.
type tracedFile struct {
	f *os.File
	t *tracer
}

func (f tracedFile) Write(b []byte) (int, error) {
	start := time.Now()
	n, err := f.f.Write(b)
	f.t.add(0, 0, 0, "wal.write", start, time.Now())
	return n, err
}

func (f tracedFile) Sync() error {
	start := time.Now()
	err := f.f.Sync()
	f.t.add(0, 0, 0, "wal.fsync", start, time.Now())
	return err
}

func (f tracedFile) Close() error { return f.f.Close() }

// tracedOpen opens segment files the way the WAL's default opener does.
func tracedOpen(t *tracer) wal.OpenFileFunc {
	return func(path string) (wal.File, error) {
		f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, err
		}
		return tracedFile{f: f, t: t}, nil
	}
}

func streamWorkload(p streamParams, work string) (*outcome, error) {
	in, err := genStream(p)
	if err != nil {
		return nil, err
	}
	fixture := filepath.Join(work, "fixture")
	if err := writeFixture(fixture, p, in); err != nil {
		return nil, fmt.Errorf("writing the WAL fixture: %w", err)
	}
	var chk checker
	var setups []interval
	var rig *streamRig
	boots := 0
	boot := func(t *tracer) (interval, error) {
		if rig != nil {
			if err := rig.close(); err != nil {
				return interval{}, err
			}
		}
		boots++
		var iv interval
		rig, iv, err = bootStream(p, fixture, filepath.Join(work, fmt.Sprintf("rep%d", boots)), t)
		return iv, err
	}
	for range p.setupReps {
		iv, err := boot(nil)
		if err != nil {
			return nil, err
		}
		setups = append(setups, iv)
	}
	out := &outcome{e2e: map[string]float64{"setup_s": setupSeconds(setups, chargeCapacity)}}
	out.lines = append(out.lines, streamPhase(p, in, rig, nil, &chk, out.e2e))
	if p.traced {
		t := newTracer()
		iv, err := boot(t)
		if err != nil {
			return nil, err
		}
		traced := map[string]float64{"setup_s": iv.d.Seconds()}
		l := map[string]float64{
			"stream.recover.records": float64(rig.d.Replayed()),
			"codec.snapshot.bytes":   float64(rig.firstSyncBytes),
		}
		before := len(t.snapshot())
		ds0, rs0 := rig.d.Stats(), rig.repl.Status()[0]
		out.lines = append(out.lines, streamPhase(p, in, rig, t, &chk, traced))
		ds1, rs1 := rig.d.Stats(), rig.repl.Status()[0]
		spans := t.snapshot()[before:]
		l["serve.add.handler_p50_us"] = handlerDurs(spans, "serve.add.handler").quantile(0.5)
		l["serve.add.transport_p50_us"] = transport(spans, "client.add", "serve.add.handler").quantile(0.5)
		l["serve.read.handler_p50_us"] = handlerDurs(spans, "serve.read.handler").quantile(0.5)
		l["stream.compaction.count"] = float64(ds1.Ingest.Compactions - ds0.Ingest.Compactions)
		l["stream.compaction.p50_us"] = durations(ds1.Ingest.CompactionDurations).quantile(0.5)
		l["stream.pause.count"] = float64(ds1.Ingest.PauseCount - ds0.Ingest.PauseCount)
		l["stream.pause.p50_us"] = durations(ds1.Ingest.Pauses).quantile(0.5)
		l["stream.advance.p50_us"] = durs(spans, "stream.Advance").quantile(0.5)
		l["stream.checkpoint.count"] = float64(ds1.Checkpoints - ds0.Checkpoints)
		l["stream.checkpoint.p50_us"] = durations(ds1.CheckpointDurations).quantile(0.5)
		appends := ds1.WAL.Appends - ds0.WAL.Appends
		l["wal.append.count"] = float64(appends)
		if flushes := ds1.WAL.Flushes - ds0.WAL.Flushes; flushes > 0 {
			l["wal.group_mean"] = float64(appends) / float64(flushes)
		}
		l["wal.fsync.count"] = float64(ds1.WAL.Fsyncs - ds0.WAL.Fsyncs)
		l["wal.fsync.p50_us"] = durs(spans, "wal.fsync").quantile(0.5)
		l["wal.write.p50_us"] = durs(spans, "wal.write").quantile(0.5)
		if updates := ds1.Ingest.Updates - ds0.Ingest.Updates; updates > 0 {
			l["wal.bytes_per_update"] = float64(ds1.WAL.AppendedBytes-ds0.WAL.AppendedBytes) / float64(updates)
		}
		l["serve.replicate.sync_p50_us"] = durs(spans, "serve.replicate.sync").quantile(0.5)
		l["serve.replicate.full_syncs"] = float64(rs1.FullSyncs - rs0.FullSyncs)
		l["serve.replicate.errors"] = float64(rs1.SyncErrors - rs0.SyncErrors)
		if syncs := rs1.Syncs - rs0.Syncs; syncs > 0 {
			l["codec.delta.bytes_per_sync"] = float64(rs1.DeltaBytes-rs0.DeltaBytes) / float64(syncs)
		}
		l["stream.window.kernel_p50_us"] = replayWindow(in, rig, t, &chk).quantile(0.5)
		addOverhead(l, out.e2e, traced)
		out.layers, out.spans = l, t
	}
	out.e2e["err_ratio"] = verifyStream(p, in, rig, &chk)
	if err := rig.close(); err != nil {
		return nil, fmt.Errorf("closing the engine: %w", err)
	}
	st := rig.d.Stats()
	out.counts = map[string]int64{
		"compactions": int64(st.Ingest.Compactions), "fsyncs": st.WAL.Fsyncs, "appends": st.WAL.Appends,
		"checkpoints": st.Checkpoints, "updates": int64(st.Ingest.Updates),
	}
	out.lines = append(out.lines, summary("stream_rw totals", "compactions", st.Ingest.Compactions,
		"fsyncs", st.WAL.Fsyncs, "checkpoints", st.Checkpoints, "updates", st.Ingest.Updates,
		"recovered_records", rig.d.Replayed()))
	out.e2e["peak_rss_mb"] = peakRSSMB()
	chk.into(out)
	return out, nil
}

// streamPhase runs the timed phase: p.clients symmetric closed-loop
// clients, each repeating p.addsPerCycle binary adds and one windowed read.
// A shared add counter decides who does the periodic work: the client whose
// add crosses a multiple of advanceEvery seals the epoch, and one crossing a
// multiple of syncEvery runs a replica sync, inline, so no extra request is
// ever in flight.
func streamPhase(p streamParams, in *streamInputs, g *streamRig, t *tracer, chk *checker, m map[string]float64) string {
	addURL := g.primary.base + "/v1/events/add"
	readURL := g.primary.base + "/v1/events/range" + readQuery
	type result struct {
		samples []sample
		chk     checker
	}
	results := make([]result, p.clients)
	conns := make([]*conn, p.clients)
	for c := range conns {
		conns[c] = newConn()
		defer conns[c].close()
		// One untimed read opens the keep-alive connection.
		if status, _, err := conns[c].post(readURL, serve.ContentBatch, in.rangeBodies[0], 0); err != nil || status != http.StatusOK {
			chk.check(false, "client %d: warm read: status %d, %v", c, status, err)
		}
	}
	var next atomic.Int64
	runtime.GC()
	clk := startPhase(p.adds, phaseWindows, chargeCapacity, chargeCapacity)
	cpu0 := cpuSeconds()
	var wg sync.WaitGroup
	for c := range p.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res := &results[c]
			cn := conns[c]
			for reads := c; ; reads++ {
				for range p.addsPerCycle {
					n := int(next.Add(1))
					if n > p.adds {
						return
					}
					bi := (p.fixtureRecords + n - 1) % len(in.bodies)
					id := t.newID()
					t0 := time.Now()
					status, body, err := cn.post(addURL, serve.ContentBatch, in.bodies[bi], id)
					d := time.Since(t0)
					t.add(id, 0, id, "client.add", t0, t0.Add(d))
					res.samples = append(res.samples, sample{end: t0.Sub(clk.start) + d, lat: d, primary: true})
					clk.primaryDone()
					if err == nil && status != http.StatusOK {
						err = fmt.Errorf("status %d", status)
					}
					if err == nil && !bytes.Equal(body, in.ack) {
						err = fmt.Errorf("acknowledged %q", body)
					}
					res.chk.check(err == nil, "add %d: %v", n, err)
					if n%p.advanceEvery == 0 {
						t0 := time.Now()
						err := g.d.Advance()
						t.add(0, 0, 0, "stream.Advance", t0, time.Now())
						res.chk.check(err == nil, "advance after add %d: %v", n, err)
					}
					if n%p.syncEvery == 0 {
						t0 := time.Now()
						err := g.repl.SyncOnce(0)
						t.add(0, 0, 0, "serve.replicate.sync", t0, time.Now())
						res.chk.check(err == nil, "replica sync after add %d: %v", n, err)
					}
				}
				body := in.rangeBodies[reads%len(in.rangeBodies)]
				id := t.newID()
				t0 := time.Now()
				status, resp, err := cn.post(readURL, serve.ContentBatch, body, id)
				d := time.Since(t0)
				t.add(id, 0, id, "client.read", t0, t0.Add(d))
				res.samples = append(res.samples, sample{end: t0.Sub(clk.start) + d, lat: d, read: true})
				if err == nil && status != http.StatusOK {
					err = fmt.Errorf("status %d", status)
				}
				if err == nil {
					err = checkWindowAnswers(resp, p.ranges)
				}
				res.chk.check(err == nil, "read: %v", err)
			}
		}()
	}
	wg.Wait()
	wall := time.Since(clk.start).Seconds()
	cpu := cpuSeconds() - cpu0

	var samples []sample
	adds, reads := 0, 0
	for c := range results {
		chk.merge(&results[c].chk)
		for _, s := range results[c].samples {
			if s.primary {
				adds++
			} else {
				reads++
			}
		}
		samples = append(samples, results[c].samples...)
	}
	windowedMetrics(samples, clk, float64(p.batch), m)
	m["peak_rss_mb"] = peakRSSMB()
	label := "stream_rw"
	if t != nil {
		label = "stream_rw traced"
	}
	return summary(label, "adds", adds, "reads", reads, "windows", m["windows"], "kept_samples", m["samples"], "kept_reads", m["read_samples"],
		"window_steal_min/kept/max", stealSummary(m),
		"updates_per_s", fmt.Sprintf("%.4g", m["rate_per_s"]), "mean_updates_per_s", fmt.Sprintf("%.4g", float64(adds*p.batch)/wall),
		"add_p50_us", fmt.Sprintf("%.1f", m["p50_us"]), "add_p90_us", fmt.Sprintf("%.1f", m["p90_us"]),
		"read_p50_us", fmt.Sprintf("%.1f", m["read_p50_us"]),
		"read_p90_us", fmt.Sprintf("%.1f", m["read_p90_us"]), "cpu_per_wall", fmt.Sprintf("%.3f", cpu/wall))
}

// checkWindowAnswers checks a windowed read's response frame: the right
// number of finite, non-negative sums (every update has weight 1).
func checkWindowAnswers(frame []byte, want int) error {
	vals, err := serve.DecodeValuesBody(bytes.NewReader(frame))
	if err != nil {
		return err
	}
	if len(vals) != want {
		return fmt.Errorf("%d answers for %d ranges", len(vals), want)
	}
	for _, v := range vals {
		if !(v >= 0) || math.IsInf(v, 0) {
			return fmt.Errorf("answer %v is not a finite non-negative sum", v)
		}
	}
	return nil
}

// replayWindow replays every read batch's ranges in-process through
// EstimateRangeOver on the same engine, timing one batch per sample.
func replayWindow(in *streamInputs, g *streamRig, t *tracer, chk *checker) durations {
	var d durations
	var as, bs []int
	for i, body := range in.rangeBodies {
		var err error
		as, bs, err = serve.ParseRangesBody(body, serve.DefaultMaxBatch, as, bs)
		if !chk.check(err == nil, "replay read %d: %v", i, err) {
			continue
		}
		t0 := time.Now()
		for j := range as {
			if _, err = g.d.EstimateRangeOver(as[j], bs[j], readWindow, readHalflife); err != nil {
				break
			}
		}
		t1 := time.Now()
		t.add(0, 0, 0, "replay.stream.EstimateRangeOver", t0, t1)
		if chk.check(err == nil, "replay read %d: %v", i, err) {
			d = append(d, t1.Sub(t0))
		}
	}
	return d
}

// verifyStream runs the single-client verification phase. It ages every
// timed epoch out of the window, ingests verifyEpochs epochs of known
// updates, and compares windowed answers with the exact decayed window sums
// the generator computed; it returns Σ|answer − exact| / Σ|exact|. After a
// quiesced sync the replica must answer bit for bit like the primary.
func verifyStream(p streamParams, in *streamInputs, g *streamRig, chk *checker) float64 {
	c := newConn()
	defer c.close()
	for range p.epochs {
		chk.check(g.d.Advance() == nil, "verification: aging out the timed epochs failed")
	}
	addURL := g.primary.base + "/v1/events/add"
	for e := range p.verifyEpochs {
		for _, body := range in.verifyBodies[e*p.verifyAdds : (e+1)*p.verifyAdds] {
			status, ack, err := c.post(addURL, serve.ContentBatch, body, 0)
			if err == nil && (status != http.StatusOK || !bytes.Equal(ack, in.ack)) {
				err = fmt.Errorf("status %d, acknowledged %q", status, ack)
			}
			chk.check(err == nil, "verification add: %v", err)
		}
		chk.check(g.d.Advance() == nil, "verification: sealing epoch %d failed", e)
	}
	var absErr, absExact float64
	for j, body := range in.verifyRanges {
		exact := in.verifyExact[j]
		vals, _, err := readValues(c, g.primary.base, body)
		if err == nil && len(vals) != len(exact) {
			err = fmt.Errorf("%d answers for %d ranges", len(vals), len(exact))
		}
		if !chk.check(err == nil, "verification read: %v", err) {
			continue
		}
		for i, v := range vals {
			absErr += math.Abs(v - exact[i])
			absExact += math.Abs(exact[i])
		}
	}
	// The replica, after a final quiesced sync, must answer bit for bit
	// like the primary.
	chk.check(g.repl.SyncOnce(0) == nil, "verification: final replica sync failed")
	rr := newRand(p.seed, 5)
	for range p.verifyBatches {
		as, bs := make([]int, p.ranges), make([]int, p.ranges)
		for i := range as {
			as[i], bs[i] = logUniformRange(rr, p.n)
		}
		var buf bytes.Buffer
		if err := serve.EncodeRangesBody(&buf, as, bs); !chk.check(err == nil, "replica read: %v", err) {
			continue
		}
		_, want, err := readValues(c, g.primary.base, buf.Bytes())
		var got []byte
		if err == nil {
			_, got, err = readValues(c, g.replica.base, buf.Bytes())
		}
		if err == nil && !bytes.Equal(got, want) {
			err = fmt.Errorf("replica answers differ from the primary's")
		}
		chk.check(err == nil, "replica read: %v", err)
	}
	if absExact == 0 {
		return 0
	}
	return absErr / absExact
}

// readValues sends one windowed range batch and returns the decoded answers
// and a copy of the response frame.
func readValues(c *conn, base string, body []byte) ([]float64, []byte, error) {
	status, frame, err := c.post(base+"/v1/events/range"+readQuery, serve.ContentBatch, body, 0)
	if err != nil {
		return nil, nil, err
	}
	if status != http.StatusOK {
		return nil, nil, fmt.Errorf("status %d", status)
	}
	frame = bytes.Clone(frame)
	vals, err := serve.DecodeValuesBody(bytes.NewReader(frame))
	return vals, frame, err
}
