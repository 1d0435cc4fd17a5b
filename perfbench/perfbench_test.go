package main

import (
	"encoding/json"
	"math"
	"os"
	"slices"
	"testing"
	"time"
)

// Scaled-down versions of the three workloads: the same code paths as a
// full run, sized to take about a second each.

func smallFit(seed uint64, traced bool) fitParams {
	return fitParams{seed: seed, n: 1 << 14, variants: 1, ops: 18, setupReps: 1, traced: traced}
}

func smallServe(seed uint64, traced bool) serveParams {
	return serveParams{
		seed: seed, columns: 12, colN: 1 << 10, hiers: 1, hierN: 1 << 14,
		batch: 16, cycle: 32, requests: 300, clients: 2, setupReps: 1, verifyPer: 8, traced: traced,
	}
}

func smallStream(seed uint64, traced bool) streamParams {
	return streamParams{
		seed: seed, n: 1 << 14, k: 16, epochs: 8, shards: 2, bufCap: 256,
		batch: 64, addsPerCycle: 4, ranges: 4, fixtureRecords: 64,
		advanceEvery: 8, syncEvery: 32, walSyncEvery: 16, ckptEvery: 64,
		adds: 400, clients: 2, setupReps: 1, patterns: 4, rangeBodies: 8,
		verifyEpochs: 3, verifyAdds: 4, verifyBatches: 8, traced: traced,
	}
}

func runSmall(t *testing.T, workload string, seed uint64, traced bool) *outcome {
	t.Helper()
	var out *outcome
	var err error
	switch workload {
	case "fit":
		out, err = fitWorkload(smallFit(seed, traced))
	case "serve_read":
		out, err = serveWorkload(smallServe(seed, traced))
	case "stream_rw":
		out, err = streamWorkload(smallStream(seed, traced), t.TempDir())
	}
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	return out
}

func TestWorkloadsEmitEveryMetricAndFailNothing(t *testing.T) {
	for _, w := range []string{"fit", "serve_read", "stream_rw"} {
		t.Run(w, func(t *testing.T) {
			out := runSmall(t, w, 1, true)
			if out.attempted == 0 || out.failed != 0 {
				t.Fatalf("attempted %d, failed %d: %v", out.attempted, out.failed, out.failures)
			}
			for _, s := range endToEnd {
				v, ok := out.e2e[s.name]
				if !ok {
					t.Errorf("end-to-end metric %s not measured", s.name)
				}
				if v <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", s.name, v)
				}
			}
			for _, name := range overheadOf {
				if _, ok := out.layers["trace_overhead."+name]; !ok {
					t.Errorf("no tracing overhead for %s", name)
				}
			}
			if got := out.layers["fail_ratio"]; got != 0 {
				t.Errorf("fail_ratio = %v", got)
			}
			for name := range out.layers {
				if !slices.ContainsFunc(perLayer, func(s metricSpec) bool { return s.name == name }) {
					t.Errorf("per-layer metric %s is not in the catalog", name)
				}
			}
			if len(out.spans.snapshot()) == 0 {
				t.Error("the traced pass recorded no spans")
			}
		})
	}
}

// The per-layer metrics each workload exists to measure are non-zero.
func TestTracedRunsMeasureTheirLayers(t *testing.T) {
	want := map[string][]string{
		"fit": {"core.fit.busy_s", "core.fit.k10.p50_us", "core.fit.k1000.p50_us", "sparse.dense.p50_us",
			"parallel.cpu_per_wall", "codec.encode.p50_us", "codec.encode.bytes_per_piece"},
		"serve_read": {"codec.decode.busy_s", "core.index.build_s", "serve.transport.p50_us", "serve.handler.p50_us",
			"codec.wire.p50_us", "core.kernel.p50_us", "core.fork.p50_us", "serve.allocs_per_req", "serve.request.p99_us"},
		"stream_rw": {"serve.add.handler_p50_us", "serve.add.transport_p50_us", "serve.read.handler_p50_us",
			"stream.window.kernel_p50_us", "stream.compaction.count", "stream.compaction.p50_us",
			"stream.advance.p50_us", "stream.checkpoint.count", "stream.checkpoint.p50_us",
			"wal.append.count", "wal.group_mean", "wal.fsync.count", "wal.fsync.p50_us", "wal.write.p50_us",
			"wal.bytes_per_update", "serve.replicate.sync_p50_us", "codec.delta.bytes_per_sync",
			"stream.recover.records", "codec.snapshot.bytes"},
	}
	for w, names := range want {
		t.Run(w, func(t *testing.T) {
			out := runSmall(t, w, 1, true)
			for _, name := range names {
				if out.layers[name] <= 0 {
					t.Errorf("%s = %v, want > 0", name, out.layers[name])
				}
			}
		})
	}
}

func TestErrRatioRepeatsForASeedAndMovesWithIt(t *testing.T) {
	for _, w := range []string{"fit", "serve_read", "stream_rw"} {
		t.Run(w, func(t *testing.T) {
			a := runSmall(t, w, 7, false).e2e["err_ratio"]
			b := runSmall(t, w, 7, false).e2e["err_ratio"]
			c := runSmall(t, w, 8, false).e2e["err_ratio"]
			if a != b {
				t.Errorf("seed 7 gave err_ratio %v, then %v", a, b)
			}
			if a == c {
				t.Errorf("seeds 7 and 8 both gave err_ratio %v", a)
			}
		})
	}
}

// With one connection, stream_rw's compactions, checkpoints and updates are
// a function of the seed: identical counts show that no wall-clock timer
// fired inside the program. This runs the full-size engine, so checkpoints
// (every 1024 calls) keep their real spacing, with fewer timed adds.
//
// Fsync counts may differ by one between identical runs, because the WAL
// flusher's group commit and the checkpoint's post-capture Sync depend on
// scheduling (a Sync fsyncs only if a record landed since the rotation).
// They must stay within that jitter and under the count the policy allows:
// one per SyncEvery records, plus a rotation and a Sync per checkpoint, plus
// the final close. A SyncInterval timer firing would add fsyncs beyond it.
func TestSingleConnectionStreamCountsRepeat(t *testing.T) {
	p := defaultStreamParams(3)
	p.clients, p.adds, p.setupReps = 1, 4000, 1
	var first map[string]int64
	for range 2 {
		out, err := streamWorkload(p, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if out.failed != 0 {
			t.Fatalf("failures: %v", out.failures)
		}
		c := out.counts
		t.Logf("counts %v", c)
		if limit := c["appends"]/int64(p.walSyncEvery) + 2*c["checkpoints"] + 1; c["fsyncs"] > limit {
			t.Errorf("%d fsyncs for %d appends and %d checkpoints; the policy allows %d", c["fsyncs"], c["appends"], c["checkpoints"], limit)
		}
		if first == nil {
			first = c
			continue
		}
		for _, k := range []string{"compactions", "checkpoints", "updates", "appends"} {
			if c[k] != first[k] {
				t.Errorf("%s: %d, then %d", k, first[k], c[k])
			}
		}
		if d := c["fsyncs"] - first["fsyncs"]; d < -1 || d > 1 {
			t.Errorf("fsyncs: %d, then %d", first["fsyncs"], c["fsyncs"])
		}
	}
	if first["checkpoints"] < 3 || first["compactions"] < 100 {
		t.Errorf("counts %v: the run is too small to exercise checkpoints and compactions", first)
	}
}

// The windowed metrics come from the quieter half of the windows, each
// charged for the share of its time the work could run: a window the
// hypervisor stole from does not move them.
func TestWindowedMetricsUseTheQuietHalf(t *testing.T) {
	steal := []uint64{0, 30, 0, 50} // per window, of 100 ticks each
	clk := &phaseClock{primary: chargeCapacity, read: chargeCapacity, marks: []mark{{cpu: cpuTimes{{}}}}}
	var samples []sample
	var cum uint64
	for w, st := range steal {
		cum += st
		end := time.Duration(w+1) * time.Second
		clk.marks = append(clk.marks, mark{at: end, cpu: cpuTimes{{total: uint64(w+1) * 100, steal: cum}}})
		lat := 100 * time.Microsecond
		if st > 0 {
			lat = 10 * time.Millisecond
		}
		for i := range 10 {
			samples = append(samples, sample{end: end - time.Duration(i)*time.Millisecond, lat: lat, primary: true, read: i%2 == 0})
		}
	}
	m := map[string]float64{}
	windowedMetrics(samples, clk, 2, m)
	want := map[string]float64{"p50_us": 100, "p90_us": 100, "read_p50_us": 100, "rate_per_s": 20,
		"windows": 4, "samples": 20, "read_samples": 10, "steal_kept": 0, "steal_max": 0.5}
	for name, w := range want {
		if m[name] != w {
			t.Errorf("%s = %v, want %v", name, m[name], w)
		}
	}
}

func TestRunnableShare(t *testing.T) {
	// Two CPUs, 100 ticks each: 10 stolen on one, 20 on the other.
	a := cpuTimes{{}, {}, {}}
	b := cpuTimes{{total: 200, steal: 30}, {total: 100, steal: 10}, {total: 100, steal: 20}}
	for _, c := range []struct {
		charge charge
		want   float64
	}{{chargeWall, 1}, {chargeCapacity, 0.85}, {chargeLockstep, 0.9 * 0.8}} {
		if got := runnable(a, b, c.charge); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("charge %v: runnable %v, want %v", c.charge, got, c.want)
		}
	}
	if got := setupSeconds([]interval{{d: time.Second, a: a, b: b}}, chargeLockstep); math.Abs(got-0.72) > 1e-12 {
		t.Errorf("setupSeconds charged %v s of 1 s, want 0.72", got)
	}
}

func TestPlantedWrongFrameCountsAsFailure(t *testing.T) {
	p := smallServe(1, false)
	p.plantWrong = true
	out, err := serveWorkload(p)
	if err != nil {
		t.Fatal(err)
	}
	// The corrupted request is sent once per pass through the cycle by
	// each client.
	if out.failed == 0 {
		t.Fatal("a response differing from the expected frame was not counted")
	}
}

func TestSelfTimeSubtractsCoveredChildIntervals(t *testing.T) {
	spans := []span{
		{id: 1, start: 0, end: 100},
		{id: 2, parent: 1, start: 10, end: 40},
		{id: 3, parent: 1, start: 30, end: 50},  // overlaps span 2
		{id: 4, parent: 1, start: 90, end: 120}, // runs past its parent
		{id: 5, parent: 2, start: 15, end: 20},
	}
	self := selfTimes(spans)
	want := map[int64]int64{1: 100 - 40 - 10, 2: 30 - 5, 3: 20, 4: 30, 5: 5}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d: self %d, want %d", id, self[id], w)
		}
	}
}

// BENCHMARK.json names exactly the workloads and metrics the program emits.
func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %s is not implemented", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists workloads %v; the program has %d", names, len(workloads))
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range b.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end_to_end[%d] = %s/%s, program emits %s/%s", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per_layer[%d] = %s/%s, program emits %s/%s", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}
