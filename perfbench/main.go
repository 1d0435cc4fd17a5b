// Command perfbench is the repository's end-to-end benchmark. One process
// generates a workload's inputs from a seed, drives the real library
// modules (core, sparse, parallel, codec, serve, stream, wal) through that
// workload, checks every answer, and prints one JSON result line last on
// standard output.
//
//	perfbench -workload fit|serve_read|stream_rw -seed N -seconds S -trace 0|1
//
// With -trace 0 the result carries the end-to-end metrics; with -trace 1 the
// same workload runs once untraced and once traced, and the result carries
// the per-layer metrics plus the tracing overhead. README.md documents the
// workloads, every metric, and the design rules the load follows.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// watchdog bounds a run: a hung run must still exit non-zero in time. It
// fires only when a run is already broken.
const watchdog = 170 * time.Second

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: fit, serve_read or stream_rw")
	seed := fs.Uint64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := fs.Int("seconds", 10, "sizes the fixed amount of timed work (about this many seconds of it on a 2-vCPU box)")
	trace := fs.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	root := fs.String("root", ".", "checkout root; run state goes under <root>/.bench_build/perfbench")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: -seconds must be ≥ 1 and -trace 0 or 1")
		return 2
	}
	wl, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want fit, serve_read or stream_rw)\n", *name)
		return 2
	}
	timer := time.AfterFunc(watchdog, func() {
		fmt.Fprintf(stderr, "perfbench: run exceeded %v\n", watchdog)
		os.Exit(3)
	})
	defer timer.Stop()

	base := filepath.Join(*root, ".bench_build", "perfbench")
	work, err := os.MkdirTemp(mkdirAll(base), "run-")
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(work)

	env := startEnv(*root)
	out, err := wl(runConfig{seed: *seed, seconds: *seconds, traced: *trace == 1, work: work})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	envInfo := env.finish()
	for _, line := range out.lines {
		fmt.Fprintln(stdout, line)
	}
	envJSON, _ := json.Marshal(envInfo)
	fmt.Fprintf(stdout, "env %s\n", envJSON)

	var m map[string]metric
	if *trace == 1 {
		out.layers["env.steal_share"] = envInfo.StealShare
		m = pick(perLayer, out.layers)
		dir := filepath.Join(base, "trace")
		prefix := filepath.Join(mkdirAll(dir), *name+"-seed"+strconv.FormatUint(*seed, 10))
		if err := writeTrace(prefix, out.spans, m, envInfo); err != nil {
			fmt.Fprintf(stderr, "perfbench: writing trace: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "trace %s.spans.jsonl %s.layers.json\n", prefix, prefix)
	} else {
		m = pick(endToEnd, out.e2e)
	}
	for _, f := range out.failures {
		fmt.Fprintln(stderr, "failure:", f)
	}
	res := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{out.failed == 0 && out.attempted > 0, out.attempted, out.failed, m}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

func mkdirAll(dir string) string {
	_ = os.MkdirAll(dir, 0o755) // a failure surfaces at the first file created there
	return dir
}

// runConfig is what every workload receives: the seed, the size of the
// timed work, whether to run the traced pass, and a private scratch
// directory that the caller removes.
type runConfig struct {
	seed    uint64
	seconds int
	traced  bool
	work    string
}

// outcome is what a workload reports back.
type outcome struct {
	attempted, failed int64
	failures          []string           // the first few failure messages
	e2e               map[string]float64 // untraced pass (and set-up)
	layers            map[string]float64 // traced pass only
	spans             *tracer            // traced pass only
	counts            map[string]int64   // run-total event counts, where a workload keeps them
	lines             []string           // human-readable summary lines
}

var workloads = map[string]func(runConfig) (*outcome, error){
	"fit":        runFit,
	"serve_read": runServeRead,
	"stream_rw":  runStreamRW,
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricSpec struct{ name, unit string }

// endToEnd lists the metrics of a -trace 0 run, in BENCHMARK.json order.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"rate_per_s", "1/s"},
	{"p50_us", "us"},
	{"p90_us", "us"},
	{"read_p50_us", "us"},
	{"read_p90_us", "us"},
	{"err_ratio", "ratio"},
	{"peak_rss_mb", "MB"},
}

// overheadOf lists the end-to-end metrics whose traced-minus-untraced
// difference a -trace 1 run reports. err_ratio is computed from outputs
// outside the timed phases, so tracing cannot move it.
var overheadOf = []string{"setup_s", "rate_per_s", "p50_us", "p90_us", "read_p50_us", "read_p90_us", "peak_rss_mb"}

// perLayer lists the metrics of a -trace 1 run. A workload that bypasses a
// layer reports 0 for it: no span ran there and no work was counted.
var perLayer = func() []metricSpec {
	l := []metricSpec{
		{"core.fit.busy_s", "s"},
		{"core.fit.k10.p50_us", "us"},
		{"core.fit.k100.p50_us", "us"},
		{"core.fit.k1000.p50_us", "us"},
		{"sparse.dense.p50_us", "us"},
		{"parallel.cpu_per_wall", "ratio"},
		{"codec.encode.p50_us", "us"},
		{"codec.encode.bytes_per_piece", "B"},
		{"codec.decode.busy_s", "s"},
		{"core.index.build_s", "s"},
		{"serve.transport.p50_us", "us"},
		{"serve.handler.p50_us", "us"},
		{"codec.wire.p50_us", "us"},
		{"core.kernel.p50_us", "us"},
		{"core.fork.p50_us", "us"},
		{"serve.allocs_per_req", "count"},
		{"serve.request.p99_us", "us"},
		{"serve.add.handler_p50_us", "us"},
		{"serve.add.transport_p50_us", "us"},
		{"serve.read.handler_p50_us", "us"},
		{"stream.window.kernel_p50_us", "us"},
		{"stream.compaction.count", "count"},
		{"stream.compaction.p50_us", "us"},
		{"stream.pause.count", "count"},
		{"stream.pause.p50_us", "us"},
		{"stream.advance.p50_us", "us"},
		{"stream.checkpoint.count", "count"},
		{"stream.checkpoint.p50_us", "us"},
		{"wal.append.count", "count"},
		{"wal.group_mean", "count"},
		{"wal.fsync.count", "count"},
		{"wal.fsync.p50_us", "us"},
		{"wal.write.p50_us", "us"},
		{"wal.bytes_per_update", "B"},
		{"serve.replicate.sync_p50_us", "us"},
		{"serve.replicate.full_syncs", "count"},
		{"serve.replicate.errors", "count"},
		{"codec.delta.bytes_per_sync", "B"},
		{"stream.recover.records", "count"},
		{"codec.snapshot.bytes", "B"},
		{"fail_ratio", "ratio"},
		{"env.steal_share", "ratio"},
	}
	for _, ds := range table1Datasets {
		for _, alg := range table1Algs {
			p := "core.table1." + ds + "." + alg
			l = append(l, metricSpec{p + ".err_rel", "ratio"}, metricSpec{p + ".time_rel", "ratio"})
		}
	}
	for _, name := range overheadOf {
		l = append(l, metricSpec{"trace_overhead." + name, unitOf(endToEnd, name)})
	}
	return l
}()

func unitOf(specs []metricSpec, name string) string {
	for _, s := range specs {
		if s.name == name {
			return s.unit
		}
	}
	panic("perfbench: no metric " + name)
}

// pick renders the listed metrics with their units; a metric the workload
// did not measure reads 0.
func pick(specs []metricSpec, values map[string]float64) map[string]metric {
	out := make(map[string]metric, len(specs))
	for _, s := range specs {
		out[s.name] = metric{Value: values[s.name], Unit: s.unit}
	}
	return out
}

// addOverhead records, for every end-to-end metric measured in both
// passes, the traced value minus the untraced one.
func addOverhead(layers, untraced, traced map[string]float64) {
	for _, name := range overheadOf {
		layers["trace_overhead."+name] = traced[name] - untraced[name]
	}
}

// checker counts attempted and failed checks and keeps the first few
// failure messages. Not safe for concurrent use: each client owns one and
// the workload merges them.
type checker struct {
	attempted, failed int64
	msgs              []string
}

func (c *checker) check(ok bool, format string, args ...any) bool {
	c.attempted++
	if !ok {
		c.failed++
		if len(c.msgs) < 8 {
			c.msgs = append(c.msgs, fmt.Sprintf(format, args...))
		}
	}
	return ok
}

func (c *checker) merge(o *checker) {
	c.attempted += o.attempted
	c.failed += o.failed
	for _, m := range o.msgs {
		if len(c.msgs) < 8 {
			c.msgs = append(c.msgs, m)
		}
	}
}

func (c *checker) into(out *outcome) {
	out.attempted, out.failed, out.failures = c.attempted, c.failed, c.msgs
	if out.layers == nil {
		out.layers = map[string]float64{}
	}
	if c.attempted > 0 {
		out.layers["fail_ratio"] = float64(c.failed) / float64(c.attempted)
	}
}

// durations collects latency samples of one kind.
type durations []time.Duration

// quantile returns the nearest-rank q-quantile in microseconds (0 when
// empty).
func (d durations) quantile(q float64) float64 {
	if len(d) == 0 {
		return 0
	}
	s := append(durations(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := min(max(int(math.Ceil(q*float64(len(s))))-1, 0), len(s)-1)
	return float64(s[i].Nanoseconds()) / 1e3
}

func (d durations) total() time.Duration {
	var t time.Duration
	for _, x := range d {
		t += x
	}
	return t
}

// sample is one timed operation of a phase.
type sample struct {
	end, lat time.Duration // completion time since the phase began; latency
	primary  bool          // counts toward rate_per_s, p50_us and p90_us
	read     bool          // counts toward read_p50_us and read_p90_us
}

// phaseWindows is how many windows of equal work a timed phase is cut into
// (about a second each at the default size).
const phaseWindows = 20

// phaseClock cuts a timed phase into windows of equal work and reads
// /proc/stat at each boundary, so every window carries the hypervisor's
// steal during it. The client whose primary operation completes a window
// takes the reading: the operation count drives it and no timer runs.
type phaseClock struct {
	start         time.Time
	per           int64  // primary operations per window
	primary, read charge // how steal slows primary and read operations
	done          atomic.Int64
	mu            sync.Mutex
	marks         []mark // window boundaries; marks[0] is the phase start
}

type mark struct {
	at  time.Duration // since the phase began
	cpu cpuTimes
}

// startPhase starts the clock of a phase of primaryOps primary operations.
func startPhase(primaryOps, windows int, primary, read charge) *phaseClock {
	c := &phaseClock{per: int64(max(1, primaryOps/windows)), primary: primary, read: read}
	c.marks = []mark{{cpu: readCPUTimes()}}
	c.start = time.Now()
	return c
}

// primaryDone counts one completed primary operation; every per-th closes a
// window.
func (c *phaseClock) primaryDone() {
	if c.done.Add(1)%c.per != 0 {
		return
	}
	cpu := readCPUTimes()
	at := time.Since(c.start)
	c.mu.Lock()
	c.marks = append(c.marks, mark{at, cpu})
	c.mu.Unlock()
}

// interval is a measured stretch of wall time with the CPU times at its
// ends.
type interval struct {
	d    time.Duration
	a, b cpuTimes
}

// stopwatch times one interval.
type stopwatch struct {
	t0   time.Time
	cpu0 cpuTimes
}

func startWatch() stopwatch {
	cpu := readCPUTimes()
	return stopwatch{t0: time.Now(), cpu0: cpu}
}

func (w stopwatch) stop() interval {
	d := time.Since(w.t0)
	return interval{d: d, a: w.cpu0, b: readCPUTimes()}
}

// setupReps is how many set-ups a run makes before its timed phase.
const setupReps = 5

// setupSeconds returns setup_s: each set-up's wall time as charged (see
// runnable), and the median of that over the quieter half of the set-ups,
// by steal.
func setupSeconds(ivs []interval, c charge) float64 {
	secs, steal := make([]float64, len(ivs)), make([]float64, len(ivs))
	for i, iv := range ivs {
		secs[i] = iv.d.Seconds() * runnable(iv.a, iv.b, c)
		steal[i] = stealShare(iv.a, iv.b)
	}
	var kept []float64
	for _, i := range quietHalf(steal) {
		kept = append(kept, secs[i])
	}
	return median(kept)
}

// quietHalf returns the indices of the ⌈n/2⌉ measurements with the least
// steal, quietest first.
func quietHalf(steal []float64) []int {
	idx := make([]int, len(steal))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return steal[idx[a]] < steal[idx[b]] })
	return idx[:(len(idx)+1)/2]
}

// windowedMetrics reports rate_per_s, p50_us, p90_us, read_p50_us and
// read_p90_us from the quieter half of the phase's windows: the ⌈W/2⌉ with
// the least hypervisor steal. Within them, each window's time is charged as
// its operations' kind says (runnable): a window's rate is its work over
// the primary operations' charged time, and each latency is scaled by its
// kind's charged share before the percentiles are taken over the kept
// windows' samples together. Steal on a shared host comes in bursts of
// about a second, during which a descheduled vCPU stalls a closed loop or a
// parallel fit for milliseconds at a time; the selection drops the bursts,
// and the charge removes what a steady level of steal adds. rate_per_s is
// the median over the kept windows. workPerOp is the work one primary
// operation completes. It also records the window count, the samples
// behind the percentiles, and the steal share of the quietest window, the
// noisiest one kept and the noisiest one.
func windowedMetrics(samples []sample, clk *phaseClock, workPerOp float64, m map[string]float64) {
	marks := clk.marks
	sort.Slice(marks, func(i, j int) bool { return marks[i].at < marks[j].at })
	sort.Slice(samples, func(i, j int) bool { return samples[i].end < samples[j].end })
	type window struct {
		steal, run, readRun, rate float64
		lat, read                 durations
	}
	var ws []window
	next := 0 // first sample not yet in a window
	for i := 1; i < len(marks); i++ {
		var w window
		for ; next < len(samples) && samples[next].end <= marks[i].at; next++ {
			s := samples[next]
			if s.primary {
				w.lat = append(w.lat, s.lat)
			}
			if s.read {
				w.read = append(w.read, s.lat)
			}
		}
		span := marks[i].at - marks[i-1].at
		if len(w.lat) == 0 || span <= 0 {
			continue
		}
		w.steal = stealShare(marks[i-1].cpu, marks[i].cpu)
		// A window the hypervisor took almost entirely is never kept while
		// quieter ones exist; the floor only keeps the division finite.
		w.run = max(runnable(marks[i-1].cpu, marks[i].cpu, clk.primary), 0.01)
		w.readRun = runnable(marks[i-1].cpu, marks[i].cpu, clk.read)
		w.rate = float64(len(w.lat)) * workPerOp / (span.Seconds() * w.run)
		ws = append(ws, w)
	}
	steal := make([]float64, len(ws))
	for i, w := range ws {
		steal[i] = w.steal
	}
	var rate []float64
	var lat, read durations
	kept := quietHalf(steal)
	for _, i := range kept {
		w := ws[i]
		rate = append(rate, w.rate)
		for _, d := range w.lat {
			lat = append(lat, time.Duration(float64(d)*w.run))
		}
		for _, d := range w.read {
			read = append(read, time.Duration(float64(d)*w.readRun))
		}
	}
	m["rate_per_s"], m["p50_us"], m["p90_us"] = median(rate), lat.quantile(0.5), lat.quantile(0.9)
	m["read_p50_us"], m["read_p90_us"] = read.quantile(0.5), read.quantile(0.9)
	m["windows"], m["samples"], m["read_samples"] = float64(len(ws)), float64(len(lat)), float64(len(read))
	if len(ws) > 0 {
		m["steal_min"], m["steal_max"] = slices.Min(steal), slices.Max(steal)
		m["steal_kept"] = steal[kept[len(kept)-1]]
	}
}

// stealSummary formats the steal shares windowedMetrics recorded: the
// quietest window, the noisiest one kept, and the noisiest.
func stealSummary(m map[string]float64) string {
	return fmt.Sprintf("%.3f/%.3f/%.3f", m["steal_min"], m["steal_kept"], m["steal_max"])
}

// median returns the median of xs (xs is reordered).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}

// summary formats one human-readable line: a label and name=value pairs.
func summary(label string, kv ...any) string {
	s := label
	for i := 0; i+1 < len(kv); i += 2 {
		s += fmt.Sprintf(" %v=%v", kv[i], kv[i+1])
	}
	return s
}
