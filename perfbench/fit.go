package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/baseline"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/sparse"
)

// The fit workload: offline batch histogramming, the paper's Table 1 job at
// column scale. One goroutine fits dense columns of n = 2^20 with default
// options (Workers 0, so merging uses every core) and encodes each result;
// a consumer then decodes it. Nearly all time goes to core merging, sparse
// and parallel; serve, stream and wal do no work.

type fitParams struct {
	seed      uint64
	n         int // column length
	variants  int // columns per family
	ops       int // timed fits
	setupReps int // set-up repetitions
	traced    bool
	table1    bool // also run the paper's Table 1 (traced runs)
}

var fitKs = []int{10, 100, 1000}

// fitOpsPerSecond sizes the timed work: one fit of 2^20 points plus encode
// and decode takes about 70–100 ms on a 2-vCPU box. At the default size the
// phase's windows hold 10 fits each.
const fitOpsPerSecond = 10

// A fit is charged as lockstep work (see runnable): parallel merging waits
// at its barriers whenever either vCPU is descheduled. Measured on a 2-vCPU
// KVM box over 160 windows of 10 fits at 0–15% steal, a window's wall time
// rose with its steal (correlation 0.74), while wall time × Π(1 − per-vCPU
// steal) did not (0.09); charging the aggregate capacity alone still left
// 0.50. A decode is charged all its wall time: it runs alone for about
// 60 µs, and a burst of steal either stalls it or misses it.

func runFit(cfg runConfig) (*outcome, error) {
	return fitWorkload(fitParams{
		seed: cfg.seed, n: 1 << 20, variants: 2, ops: fitOpsPerSecond * cfg.seconds,
		setupReps: setupReps, traced: cfg.traced, table1: cfg.traced,
	})
}

type fitColumn struct {
	data      []float64
	noiseNorm float64
}

// fitOp is one timed fit's output, checked after the timed phase.
type fitOp struct {
	col, k  int
	res     core.Result
	encoded []byte
	decoded *core.Histogram
	err     error
}

func fitWorkload(p fitParams) (*outcome, error) {
	cols := make([]fitColumn, 0, numFamilies*p.variants)
	for f := range numFamilies {
		for v := range p.variants {
			r := newRand(p.seed, uint64(1000+f*100+v))
			data, nn := column(r, f, p.n, 1, false)
			cols = append(cols, fitColumn{data: data, noiseNorm: nn})
		}
	}
	// Op i fits class i mod 9 — (family, k) — on variant (i / 9) mod variants.
	classes := numFamilies * len(fitKs)
	plan := func(i int) (col, k int) {
		c := i % classes
		return (c%numFamilies)*p.variants + (i/classes)%p.variants, fitKs[c/numFamilies]
	}

	// One set-up is a warm-up fit per (family, k) class.
	setup := func(t *tracer) (interval, error) {
		runtime.GC()
		w := startWatch()
		for c := range classes {
			col, k := plan(c)
			t0 := time.Now()
			if _, err := core.ConstructHistogram(sparse.FromDense(cols[col].data), k, core.DefaultOptions()); err != nil {
				return interval{}, fmt.Errorf("warm-up fit: %w", err)
			}
			t.add(0, 0, 0, "fit.warmup", t0, time.Now())
		}
		return w.stop(), nil
	}
	var setups []interval
	for range p.setupReps {
		iv, err := setup(nil)
		if err != nil {
			return nil, err
		}
		setups = append(setups, iv)
	}

	out := &outcome{e2e: map[string]float64{"setup_s": setupSeconds(setups, chargeLockstep)}}
	var chk checker
	untraced := fitPhase(p, cols, plan, nil, &chk, out.e2e)
	out.lines = append(out.lines, untraced...)
	if p.traced {
		t := newTracer()
		iv, err := setup(t)
		if err != nil {
			return nil, err
		}
		traced := map[string]float64{"setup_s": iv.d.Seconds()}
		before := len(t.snapshot())
		out.lines = append(out.lines, fitPhase(p, cols, plan, t, &chk, traced)...)
		spans := t.snapshot()[before:]
		l := map[string]float64{}
		var busy time.Duration
		for _, k := range fitKs {
			ds := durs(spans, constructSpan(k))
			busy += ds.total()
			l[fmt.Sprintf("core.fit.k%d.p50_us", k)] = ds.quantile(0.5)
		}
		l["core.fit.busy_s"] = busy.Seconds()
		l["sparse.dense.p50_us"] = durs(spans, "sparse.FromDense").quantile(0.5)
		l["codec.encode.p50_us"] = durs(spans, "codec.Encode").quantile(0.5)
		l["parallel.cpu_per_wall"] = traced["cpu_per_wall"]
		l["codec.encode.bytes_per_piece"] = traced["bytes_per_piece"]
		addOverhead(l, out.e2e, traced)
		if p.table1 {
			if err := table1(l, &chk); err != nil {
				return nil, err
			}
		}
		out.layers, out.spans = l, t
	}
	out.e2e["peak_rss_mb"] = peakRSSMB()
	chk.into(out)
	return out, nil
}

// fitPhase runs the timed fits, checks every output outside the timed
// spans, and fills m with the phase's metrics.
func fitPhase(p fitParams, cols []fitColumn, plan func(int) (int, int), t *tracer, chk *checker, m map[string]float64) []string {
	ops := make([]fitOp, p.ops)
	samples := make([]sample, 0, 2*p.ops)
	opts := core.DefaultOptions()
	runtime.GC()
	clk := startPhase(p.ops, phaseWindows, chargeLockstep, chargeWall)
	cpu0 := cpuSeconds()
	for i := range ops {
		op := &ops[i]
		op.col, op.k = plan(i)
		root := t.newID()
		// Each fit first collects the garbage of the fit before it, inside
		// its own time: the fit is charged for its allocations, and neither
		// its latency nor the peak resident set depends on where the
		// collector stood.
		t0 := time.Now()
		runtime.GC()
		tg := time.Now()
		sf := sparse.FromDense(cols[op.col].data)
		t1 := time.Now()
		op.res, op.err = core.ConstructHistogram(sf, op.k, opts)
		t2 := time.Now()
		var buf bytes.Buffer
		if op.err == nil {
			_, op.err = op.res.Histogram.WriteTo(&buf)
		}
		t3 := time.Now()
		op.encoded = buf.Bytes()
		if op.err == nil {
			op.decoded, op.err = core.DecodeHistogram(bytes.NewReader(op.encoded))
		}
		t4 := time.Now()
		samples = append(samples,
			sample{end: t3.Sub(clk.start), lat: t3.Sub(t0), primary: true},
			sample{end: t4.Sub(clk.start), lat: t4.Sub(t3), read: true})
		clk.primaryDone()
		if t != nil {
			t.add(0, root, 0, "runtime.GC", t0, tg)
			t.add(0, root, 0, "sparse.FromDense", tg, t1)
			t.add(0, root, 0, constructSpan(op.k), t1, t2)
			t.add(0, root, 0, "codec.Encode", t2, t3)
			t.add(root, 0, 0, "fit.op", t0, t3)
			t.add(0, 0, 0, "codec.Decode", t3, t4)
		}
	}
	wall := time.Since(clk.start)
	cpu := cpuSeconds() - cpu0

	var errSum float64
	var bytesTotal, piecesTotal float64
	for i := range ops {
		op := &ops[i]
		c := cols[op.col]
		if !chk.check(op.err == nil, "fit %d: %v", i, op.err) {
			continue
		}
		h := op.res.Histogram
		got := l2Error(h, c.data)
		chk.check(relClose(op.res.Error, got, got), "fit %d: returned error %v, data says %v", i, op.res.Error, got)
		limit := int(math.Ceil((2+2/opts.Delta)*float64(op.k) + opts.Gamma))
		chk.check(h.NumPieces() <= limit, "fit %d: %d pieces > %d", i, h.NumPieces(), limit)
		chk.check(samePieces(h, op.decoded), "fit %d: decoded histogram differs from the fitted one", i)
		errSum += op.res.Error / c.noiseNorm
		bytesTotal += float64(len(op.encoded))
		piecesTotal += float64(h.NumPieces())
	}
	windowedMetrics(samples, clk, float64(p.n), m)
	m["err_ratio"] = errSum / float64(p.ops)
	m["cpu_per_wall"] = cpu / wall.Seconds()
	if piecesTotal > 0 {
		m["bytes_per_piece"] = bytesTotal / piecesTotal
	}
	m["peak_rss_mb"] = peakRSSMB()
	label := "fit"
	if t != nil {
		label = "fit traced"
	}
	return []string{summary(label, "ops", p.ops, "windows", m["windows"], "kept_samples", m["samples"], "points_per_s", fmt.Sprintf("%.4g", m["rate_per_s"]),
		"mean_points_per_s", fmt.Sprintf("%.4g", float64(p.ops*p.n)/wall.Seconds()),
		"p50_us", fmt.Sprintf("%.1f", m["p50_us"]), "p90_us", fmt.Sprintf("%.1f", m["p90_us"]),
		"cpu_per_wall", fmt.Sprintf("%.3f", m["cpu_per_wall"]), "window_steal_min/kept/max", stealSummary(m),
		"err_ratio", fmt.Sprintf("%.6f", m["err_ratio"]))}
}

// constructSpan names the span around one core.ConstructHistogram call.
func constructSpan(k int) string { return fmt.Sprintf("core.ConstructHistogram.k%d", k) }

// l2Error recomputes ‖h − data‖₂ straight from the pieces and the data.
func l2Error(h *core.Histogram, data []float64) float64 {
	var ss float64
	for _, pc := range h.Pieces() {
		for x := pc.Lo; x <= pc.Hi; x++ {
			d := data[x-1] - pc.Value
			ss += d * d
		}
	}
	return math.Sqrt(ss)
}

func samePieces(a, b *core.Histogram) bool {
	if b == nil || a.N() != b.N() || a.NumPieces() != b.NumPieces() {
		return false
	}
	bp := b.Pieces()
	for i, pc := range a.Pieces() {
		q := bp[i]
		if pc.Lo != q.Lo || pc.Hi != q.Hi || math.Float64bits(pc.Value) != math.Float64bits(q.Value) {
			return false
		}
	}
	return true
}

// The paper's Table 1, recorded as per-layer cells of the traced fit run.
// Errors are relative to exactdp on hist and poly and to gks on dow (exact
// DP on dow takes minutes); times are relative to fastmerging2.

var table1Datasets = []string{"hist", "poly", "dow"}

var table1Algs = []string{"merging", "merging2", "fastmerging", "fastmerging2", "dual", "gks"}

func table1(l map[string]float64, chk *checker) error {
	cfg := bench.DefaultTable1Config()
	cfg.SkipExact = true
	rows := bench.RunTable1(cfg)
	// Exact DP is fast on hist and poly; their errors are rescaled to it.
	exact := map[string]float64{}
	for ds, in := range map[string]struct {
		q []float64
		k int
	}{"hist": {datasets.Hist(), datasets.HistK}, "poly": {datasets.Poly(), datasets.PolyK}} {
		_, e, err := baseline.ExactDP(in.q, in.k)
		if err != nil {
			return fmt.Errorf("table 1 %s/exactdp: %w", ds, err)
		}
		exact[ds] = e
	}
	delta := core.PaperOptions().Delta
	for _, r := range rows {
		p := "core.table1." + r.Dataset + "." + r.Algorithm
		l[p+".err_rel"], l[p+".time_rel"] = r.RelErr, r.RelTime
		opt, ok := exact[r.Dataset]
		if !ok {
			continue
		}
		l[p+".err_rel"] = r.Err / opt
		// The merging guarantee: error at most √(1+δ)·opt_k with 2k+1 pieces.
		if r.Algorithm == "merging" {
			chk.check(r.Err <= math.Sqrt(1+delta)*opt*(1+1e-9),
				"table 1 %s: merging error %v above √(1+δ)·opt = %v", r.Dataset, r.Err, math.Sqrt(1+delta)*opt)
		}
	}
	for _, ds := range table1Datasets {
		for _, alg := range table1Algs {
			chk.check(l["core.table1."+ds+"."+alg+".time_rel"] > 0, "table 1 %s/%s: no row", ds, alg)
		}
	}
	return nil
}
