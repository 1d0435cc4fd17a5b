package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/sparse"
)

// The serve_read workload: read-only selectivity serving from a static
// catalog of column histograms and multiscale hierarchies. Request time
// splits among transport, the handler, the wire codec and the index kernel;
// no merging, stream or WAL work runs while it is timed. The catalog is far
// larger than L2, so the Zipf-hot synopses form the cached working set.

type serveParams struct {
	seed       uint64
	columns    int // column histograms in the catalog
	colN       int // domain of a column
	hiers      int // FitMultiscale hierarchies in the catalog
	hierN      int // domain of a hierarchy
	batch      int // queries per request
	cycle      int // distinct requests the clients cycle through
	requests   int // timed requests, over all clients
	clients    int
	setupReps  int
	verifyPer  int // verification ranges per (synopsis, k)
	traced     bool
	plantWrong bool // corrupt one expected frame: the answer check must count it
}

// serveRequestsPerSecond sizes the timed work from the measured request
// rate of two clients on a 2-vCPU box.
const serveRequestsPerSecond = 14000

func runServeRead(cfg runConfig) (*outcome, error) {
	return serveWorkload(serveParams{
		seed: cfg.seed, columns: 512, colN: 1 << 14, hiers: 4, hierN: 1 << 20,
		batch: 256, cycle: 2048, requests: serveRequestsPerSecond * cfg.seconds, clients: 2,
		setupReps: setupReps, verifyPer: 256, traced: cfg.traced,
	})
}

// serveTarget is one queryable (synopsis, k): a column histogram, or a
// hierarchy at one ?k=.
type serveTarget struct {
	name  string
	query string // "" or "?k=K"
	k     int    // K of a hierarchy target; 0 for a column
	h     *core.Histogram
	// Verification ranges with their exact answers from the raw column.
	as, bs []int
	exact  []float64
}

type serveRequest struct {
	path    string // /v1/{name}/{at|range}[?k=K]
	body    []byte
	expect  []byte
	isRange bool
	target  int
}

type serveCatalog struct {
	names   []string
	bodies  [][]byte
	targets []serveTarget
	reqs    []serveRequest
}

func buildCatalog(p serveParams, chk *checker) (*serveCatalog, error) {
	cat := &serveCatalog{}
	opts := core.DefaultOptions()
	for c := range p.columns {
		r := newRand(p.seed, uint64(10000+c))
		data, _ := column(r, c%numFamilies, p.colN, 1, true)
		k := 100
		if c%2 == 1 {
			k = 1000
		}
		res, err := core.ConstructHistogram(sparse.FromDense(data), k, opts)
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if _, err := res.Histogram.WriteTo(&buf); err != nil {
			return nil, err
		}
		name := fmt.Sprintf("col%03d", c)
		cat.names, cat.bodies = append(cat.names, name), append(cat.bodies, buf.Bytes())
		cat.targets = append(cat.targets, verifyTarget(r, serveTarget{name: name, h: res.Histogram}, data, p.verifyPer))
	}
	// Hierarchies come from the smooth families only: a zipf column of 2^20
	// points at k = 10 has a few huge spikes, and whether a verification
	// range cuts one would dominate err_ratio from seed to seed.
	for j := range p.hiers {
		r := newRand(p.seed, uint64(20000+j))
		data, _ := column(r, j%famZipf, p.hierN, 1, true)
		hier := core.ConstructHierarchicalHistogramWorkers(sparse.FromDense(data), 0)
		var buf bytes.Buffer
		if _, err := hier.WriteTo(&buf); err != nil {
			return nil, err
		}
		name := fmt.Sprintf("hier%d", j)
		cat.names, cat.bodies = append(cat.names, name), append(cat.bodies, buf.Bytes())
		for _, k := range fitKs {
			res, err := hier.ForK(k)
			if err != nil {
				return nil, err
			}
			t := serveTarget{name: name, query: fmt.Sprintf("?k=%d", k), k: k, h: res.Histogram}
			cat.targets = append(cat.targets, verifyTarget(r, t, data, p.verifyPer))
		}
	}

	// The request cycle: synopses drawn Zipf(1.1) by popularity rank,
	// alternating /at and /range, range widths log-uniform.
	r := newRand(p.seed, 1)
	order := popularity(r, p.columns, len(cat.targets))
	zipf := rand.NewZipf(r, 1.1, 1, uint64(len(cat.targets)-1))
	for j := range p.cycle {
		ti := order[zipf.Uint64()]
		t := &cat.targets[ti]
		n := t.h.N()
		rq := serveRequest{isRange: j%2 == 1, target: ti}
		var vals []float64
		var buf bytes.Buffer
		if rq.isRange {
			as, bs := make([]int, p.batch), make([]int, p.batch)
			for i := range as {
				as[i], bs[i] = logUniformRange(r, n)
			}
			if err := serve.EncodeRangesBody(&buf, as, bs); err != nil {
				return nil, err
			}
			vals = t.h.RangeSumBatch(as, bs, nil, 1)
			o := newOracle(t.h)
			for i := range as {
				want := o.rangeSum(as[i], bs[i])
				chk.check(relClose(vals[i], want, o.scale), "%s%s range [%d,%d] = %v, piece scan says %v", t.name, t.query, as[i], bs[i], vals[i], want)
			}
			rq.path = "/v1/" + t.name + "/range" + t.query
		} else {
			xs := make([]int, p.batch)
			for i := range xs {
				xs[i] = 1 + r.IntN(n)
			}
			if err := serve.EncodePointsBody(&buf, xs); err != nil {
				return nil, err
			}
			vals = t.h.AtBatch(xs, nil, 1)
			o := newOracle(t.h)
			for i, x := range xs {
				want := o.at(x)
				chk.check(vals[i] == want, "%s%s at %d = %v, piece scan says %v", t.name, t.query, x, vals[i], want)
			}
			rq.path = "/v1/" + t.name + "/at" + t.query
		}
		rq.body, rq.expect = buf.Bytes(), serve.AppendValuesBody(nil, vals)
		cat.reqs = append(cat.reqs, rq)
	}
	if p.plantWrong {
		cat.reqs[0].expect[len(cat.reqs[0].expect)/2] ^= 1
	}
	return cat, nil
}

// popularity returns the target at each Zipf rank. Ranks are stratified by
// kind: a hierarchy target every stride ranks, and columns cycling through
// their six (family, k) kinds. The seed only picks which synopsis of a kind
// sits at a rank, so the hot set moves between seeds while the request mix,
// and with it the cost of a request, stays put.
func popularity(r *rand.Rand, columns, total int) []int {
	const colKinds = numFamilies * 2
	kinds := make([][]int, colKinds)
	for c := range columns {
		kinds[c%colKinds] = append(kinds[c%colKinds], c)
	}
	for _, k := range kinds {
		r.Shuffle(len(k), func(i, j int) { k[i], k[j] = k[j], k[i] })
	}
	hier := r.Perm(total - columns)
	stride := total / max(1, len(hier))
	order := make([]int, 0, total)
	next := 0
	for rank := range total {
		if len(hier) > 0 && rank%stride == 0 {
			order = append(order, columns+hier[0])
			hier = hier[1:]
			continue
		}
		for len(kinds[next%colKinds]) == 0 {
			next++
		}
		k := next % colKinds
		order = append(order, kinds[k][0])
		kinds[k] = kinds[k][1:]
		next++
	}
	return order
}

// verifyTarget draws the target's verification ranges and their exact
// answers from the raw column.
func verifyTarget(r *rand.Rand, t serveTarget, data []float64, count int) serveTarget {
	pre := prefixSums(data)
	for range count {
		a, b := logUniformRange(r, len(data))
		t.as, t.bs = append(t.as, a), append(t.bs, b)
		t.exact = append(t.exact, pre[b]-pre[a-1])
	}
	return t
}

// oracle answers from a histogram's pieces by binary search over piece
// starts and prefix masses — independent of the library's query index.
type oracle struct {
	lo    []int
	val   []float64
	pre   []float64 // mass of pieces before i
	scale float64
}

func newOracle(h *core.Histogram) *oracle {
	o := &oracle{}
	var mass float64
	for _, pc := range h.Pieces() {
		o.lo = append(o.lo, pc.Lo)
		o.val = append(o.val, pc.Value)
		o.pre = append(o.pre, mass)
		w := pc.Value * float64(pc.Hi-pc.Lo+1)
		mass += w
		o.scale += math.Abs(w)
	}
	o.pre = append(o.pre, mass)
	return o
}

func (o *oracle) piece(x int) int { return sort.SearchInts(o.lo, x+1) - 1 }

func (o *oracle) at(x int) float64 { return o.val[o.piece(x)] }

// upTo returns the mass of [1, x].
func (o *oracle) upTo(x int) float64 {
	if x < 1 {
		return 0
	}
	i := o.piece(x)
	return o.pre[i] + o.val[i]*float64(x-o.lo[i]+1)
}

func (o *oracle) rangeSum(a, b int) float64 { return o.upTo(b) - o.upTo(a-1) }

// bootServer is one set-up: a server booted from the catalog bytes plus one
// warm query per (synopsis, k), which builds the query index and the ForK
// memo. It returns the server and the set-up's interval.
func bootServer(cat *serveCatalog, t *tracer) (*httpServer, interval, error) {
	srv := serve.NewServer(&serve.Config{Workers: 1})
	hs, err := startServer(tracedHandler(t, srv.Handler(), func(*http.Request) string { return "serve.handler" }))
	if err != nil {
		return nil, interval{}, err
	}
	c := newConn()
	defer c.close()
	var warm bytes.Buffer
	if err := serve.EncodePointsBody(&warm, []int{1}); err != nil {
		hs.close()
		return nil, interval{}, err
	}
	runtime.GC()
	w := startWatch()
	for i, name := range cat.names {
		t0 := time.Now()
		if err := srv.Load(name, bytes.NewReader(cat.bodies[i])); err != nil {
			hs.close()
			return nil, interval{}, fmt.Errorf("loading %s: %w", name, err)
		}
		t.add(0, 0, 0, "serve.Load", t0, time.Now())
	}
	for _, tg := range cat.targets {
		t0 := time.Now()
		status, _, err := c.post(hs.base+"/v1/"+tg.name+"/at"+tg.query, serve.ContentBatch, warm.Bytes(), 0)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("status %d", status)
		}
		if err != nil {
			hs.close()
			return nil, interval{}, fmt.Errorf("warm query %s%s: %w", tg.name, tg.query, err)
		}
		t.add(0, 0, 0, "serve.warm", t0, time.Now())
	}
	return hs, w.stop(), nil
}

func serveWorkload(p serveParams) (*outcome, error) {
	var chk checker
	cat, err := buildCatalog(p, &chk)
	if err != nil {
		return nil, fmt.Errorf("building the catalog: %w", err)
	}
	var setups []interval
	var boot *httpServer
	for range p.setupReps {
		if boot != nil {
			boot.close() // the next boot's GC frees this server
		}
		var iv interval
		if boot, iv, err = bootServer(cat, nil); err != nil {
			return nil, err
		}
		setups = append(setups, iv)
	}
	out := &outcome{e2e: map[string]float64{"setup_s": setupSeconds(setups, chargeCapacity)}}
	out.lines = append(out.lines, servePhase(p, cat, boot.base, nil, &chk, out.e2e))
	if p.traced {
		t := newTracer()
		boot.close()
		var iv interval
		if boot, iv, err = bootServer(cat, t); err != nil {
			return nil, err
		}
		traced := map[string]float64{"setup_s": iv.d.Seconds()}
		setupSpans := t.snapshot()
		out.lines = append(out.lines, servePhase(p, cat, boot.base, t, &chk, traced))
		spans := t.snapshot()[len(setupSpans):]
		l := map[string]float64{
			"codec.decode.busy_s":    durs(setupSpans, "serve.Load").total().Seconds(),
			"core.index.build_s":     durs(setupSpans, "serve.warm").total().Seconds(),
			"serve.transport.p50_us": transport(spans, "client.request", "serve.handler").quantile(0.5),
			"serve.handler.p50_us":   handlerDurs(spans, "serve.handler").quantile(0.5),
			"serve.allocs_per_req":   traced["allocs_per_req"],
			"serve.request.p99_us":   traced["p99_us"],
		}
		wire, kernel, forK, err := replayServe(cat, t, &chk)
		if err != nil {
			return nil, err
		}
		l["codec.wire.p50_us"], l["core.kernel.p50_us"] = wire.quantile(0.5), kernel.quantile(0.5)
		l["core.fork.p50_us"] = forK.quantile(0.5)
		addOverhead(l, out.e2e, traced)
		out.layers, out.spans = l, t
	}
	out.e2e["err_ratio"] = verifyServe(cat, boot.base, &chk)
	boot.close()
	out.e2e["peak_rss_mb"] = peakRSSMB()
	chk.into(out)
	return out, nil
}

// servePhase runs the timed requests from p.clients symmetric closed-loop
// clients, checks every response byte for byte, and fills m.
func servePhase(p serveParams, cat *serveCatalog, base string, t *tracer, chk *checker, m map[string]float64) string {
	urls := make([]string, len(cat.reqs))
	for j, rq := range cat.reqs {
		urls[j] = base + rq.path
	}
	type result struct {
		samples []sample
		chk     checker
		err     error
	}
	results := make([]result, p.clients)
	conns := make([]*conn, p.clients)
	for c := range conns {
		conns[c] = newConn()
		defer conns[c].close()
		// One untimed request opens the keep-alive connection.
		j := c * len(cat.reqs) / p.clients
		if _, _, err := conns[c].post(urls[j], serve.ContentBatch, cat.reqs[j].body, 0); err != nil {
			results[c].err = err
		}
	}
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	clk := startPhase(p.requests, phaseWindows, chargeCapacity, chargeCapacity)
	cpu0 := cpuSeconds()
	var wg sync.WaitGroup
	for c := range p.clients {
		share := p.requests / p.clients
		if c < p.requests%p.clients {
			share++
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			res := &results[c]
			res.samples = make([]sample, 0, share)
			off := c * len(cat.reqs) / p.clients
			for i := range share {
				j := (off + i) % len(cat.reqs)
				rq := &cat.reqs[j]
				id := t.newID()
				t0 := time.Now()
				status, body, err := conns[c].post(urls[j], serve.ContentBatch, rq.body, id)
				d := time.Since(t0)
				t.add(id, 0, id, "client.request", t0, t0.Add(d))
				res.samples = append(res.samples, sample{end: t0.Sub(clk.start) + d, lat: d, primary: true, read: rq.isRange})
				clk.primaryDone()
				switch {
				case err != nil:
					res.chk.check(false, "request %d: %v", j, err)
				case status != http.StatusOK:
					res.chk.check(false, "request %d: status %d", j, status)
				default:
					res.chk.check(bytes.Equal(body, rq.expect), "request %d (%s): response differs from the expected frame", j, rq.path)
				}
			}
		}()
	}
	wg.Wait()
	wall := time.Since(clk.start).Seconds()
	cpu := cpuSeconds() - cpu0
	runtime.ReadMemStats(&ms1)

	var samples []sample
	var lat durations
	reads := 0
	for c := range results {
		if results[c].err != nil {
			chk.check(false, "client %d: %v", c, results[c].err)
		}
		chk.merge(&results[c].chk)
		for _, s := range results[c].samples {
			lat = append(lat, s.lat)
			if s.read {
				reads++
			}
		}
		samples = append(samples, results[c].samples...)
	}
	windowedMetrics(samples, clk, float64(p.batch), m)
	m["p99_us"] = lat.quantile(0.99)
	m["allocs_per_req"] = float64(ms1.Mallocs-ms0.Mallocs) / float64(max(1, len(lat)))
	m["peak_rss_mb"] = peakRSSMB()
	label := "serve_read"
	if t != nil {
		label = "serve_read traced"
	}
	return summary(label, "requests", len(lat), "range_requests", reads, "windows", m["windows"], "kept_samples", m["samples"],
		"window_steal_min/kept/max", stealSummary(m),
		"queries_per_s", fmt.Sprintf("%.4g", m["rate_per_s"]), "mean_queries_per_s", fmt.Sprintf("%.4g", float64(len(lat)*p.batch)/wall),
		"p50_us", fmt.Sprintf("%.1f", m["p50_us"]), "p90_us", fmt.Sprintf("%.1f", m["p90_us"]),
		"p99_us", fmt.Sprintf("%.1f", m["p99_us"]), "cpu_per_wall", fmt.Sprintf("%.3f", cpu/wall))
}

// replayServe replays every distinct request of the cycle in-process on
// the objects the server answers from, decoded from the same catalog bytes
// by the decoders Server.Load uses: the wire codec (parse the request bytes,
// append the response frame) and the index kernel. A hierarchy is resolved
// with ForK once per k, as the server's memo does, and those calls are
// timed on their own. Every replayed frame must equal the expected one.
func replayServe(cat *serveCatalog, t *tracer, chk *checker) (wire, kernel, forK durations, err error) {
	hists := make([]*core.Histogram, len(cat.targets))
	for i, name := range cat.names {
		r := bytes.NewReader(cat.bodies[i])
		var h *core.Histogram
		var hier *core.Hierarchy
		if strings.HasPrefix(name, "hier") {
			hier, err = core.DecodeHierarchy(r)
		} else {
			h, err = core.DecodeHistogram(r)
		}
		if err != nil {
			return nil, nil, nil, fmt.Errorf("replay: decoding %s: %w", name, err)
		}
		for ti := range cat.targets {
			tg := &cat.targets[ti]
			if tg.name != name {
				continue
			}
			if hier == nil {
				hists[ti] = h
				continue
			}
			t0 := time.Now()
			res, err := hier.ForK(tg.k)
			t1 := time.Now()
			if err != nil {
				return nil, nil, nil, fmt.Errorf("replay: %s ForK(%d): %w", name, tg.k, err)
			}
			forK = append(forK, t1.Sub(t0))
			t.add(0, 0, 0, "replay.core.ForK", t0, t1)
			hists[ti] = res.Histogram
		}
	}
	var xs, as, bs []int
	var vals []float64
	var dst []byte
	for j := range cat.reqs {
		rq := &cat.reqs[j]
		h := hists[rq.target]
		var err error
		t0 := time.Now()
		if rq.isRange {
			as, bs, err = serve.ParseRangesBody(rq.body, serve.DefaultMaxBatch, as, bs)
		} else {
			xs, err = serve.ParsePointsBody(rq.body, serve.DefaultMaxBatch, xs)
		}
		t1 := time.Now()
		if !chk.check(err == nil, "replay %d: %v", j, err) {
			continue
		}
		if rq.isRange {
			vals = h.RangeSumBatch(as, bs, vals, 1)
		} else {
			vals = h.AtBatch(xs, vals, 1)
		}
		t2 := time.Now()
		dst = serve.AppendValuesBody(dst[:0], vals)
		t3 := time.Now()
		chk.check(bytes.Equal(dst, rq.expect), "replay %d (%s): frame differs from the expected one", j, rq.path)
		wire = append(wire, t1.Sub(t0)+t3.Sub(t2))
		kernel = append(kernel, t2.Sub(t1))
		t.add(0, 0, 0, "replay.codec.wire", t0, t1)
		t.add(0, 0, 0, "replay.core.kernel", t1, t2)
		t.add(0, 0, 0, "replay.codec.wire", t2, t3)
	}
	return wire, kernel, forK, nil
}

// verifyServe asks the server for every target's verification ranges and
// returns Σ|answer − exact| / Σ|exact|.
func verifyServe(cat *serveCatalog, base string, chk *checker) float64 {
	c := newConn()
	defer c.close()
	var absErr, absExact float64
	for _, tg := range cat.targets {
		var buf bytes.Buffer
		if err := serve.EncodeRangesBody(&buf, tg.as, tg.bs); err != nil {
			chk.check(false, "verify %s%s: %v", tg.name, tg.query, err)
			continue
		}
		status, body, err := c.post(base+"/v1/"+tg.name+"/range"+tg.query, serve.ContentBatch, buf.Bytes(), 0)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("status %d", status)
		}
		var vals []float64
		if err == nil {
			vals, err = serve.DecodeValuesBody(bytes.NewReader(body))
		}
		if err == nil && len(vals) != len(tg.exact) {
			err = fmt.Errorf("%d answers for %d ranges", len(vals), len(tg.exact))
		}
		if !chk.check(err == nil, "verify %s%s: %v", tg.name, tg.query, err) {
			continue
		}
		for i, v := range vals {
			absErr += math.Abs(v - tg.exact[i])
			absExact += math.Abs(tg.exact[i])
		}
	}
	if absExact == 0 {
		return 0
	}
	return absErr / absExact
}
