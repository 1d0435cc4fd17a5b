package serve

import (
	"bytes"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/quantile"
	"repro/internal/sparse"
	"repro/internal/stream"
	"repro/internal/synopsis"
	"repro/internal/wavelet"
)

// testData is a deterministic positive vector (an LCG, platform-stable).
func testData(n int) []float64 {
	q := make([]float64, n)
	state := uint64(7321)
	for i := range q {
		state = state*6364136223846793005 + 1442695040888963407
		q[i] = 1 + float64(state>>40)/float64(1<<24)
	}
	return q
}

func testHistogram(t testing.TB, n, k int) *core.Histogram {
	t.Helper()
	opts := core.DefaultOptions()
	opts.Workers = 1
	res, err := core.ConstructHistogram(sparse.FromDense(testData(n)), k, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res.Histogram
}

// queries builds a deterministic query workload over [1, n].
func queries(n, count int) (xs, as, bs []int) {
	state := uint64(99)
	xs = make([]int, count)
	as = make([]int, count)
	bs = make([]int, count)
	for i := 0; i < count; i++ {
		state = state*6364136223846793005 + 1442695040888963407
		xs[i] = 1 + int(state>>33)%n
		a := 1 + int(state>>13)%n
		as[i] = a
		bs[i] = a + int(state>>3)%(n-a+1)
	}
	return xs, as, bs
}

func bitsEqual(t *testing.T, label string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", label, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v, want %v (bit-exact)", label, i, got[i], want[i])
		}
	}
}

// startServer hosts the given synopses and returns clients in both codecs.
func startServer(t testing.TB, host map[string]any) (*httptest.Server, *Client, *Client) {
	t.Helper()
	srv := NewServer(&Config{Workers: 1})
	for name, v := range host {
		if err := srv.Host(name, v); err != nil {
			t.Fatalf("Host(%q): %v", name, err)
		}
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, NewClient(ts.URL, ts.Client(), false), NewClient(ts.URL, ts.Client(), true)
}

// TestServeEveryKindBitIdentical hosts one synopsis of every servable kind
// and checks that wire answers — JSON and binary bodies, batch and single
// GET forms — are bit-identical to calling the library directly.
func TestServeEveryKindBitIdentical(t *testing.T) {
	const n = 4000
	h := testHistogram(t, n, 12)
	hier := core.ConstructHierarchicalHistogramWorkers(sparse.FromDense(testData(n)), 1)
	cdf, err := quantile.New(h)
	if err != nil {
		t.Fatal(err)
	}
	ws, err := wavelet.NewSynopsis(testData(n), 32)
	if err != nil {
		t.Fatal(err)
	}
	wsEst, err := synopsis.FromWavelet(ws)
	if err != nil {
		t.Fatal(err)
	}
	est, err := synopsis.VOptimal(testData(n), 10)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.DefaultOptions()
	opts.Workers = 1
	maint, err := stream.NewMaintainer(n, 6, 128, opts)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := stream.NewSharded(n, 6, 3, 128, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		p := 1 + (i*37)%n
		if err := maint.Add(p, 1); err != nil {
			t.Fatal(err)
		}
		if err := sharded.Add(p, 1); err != nil {
			t.Fatal(err)
		}
	}
	// Quiesce the sharded engine: a background compaction installing between
	// the expected-value computation and the wire query would change the
	// floating-point summation order (same mass, different bits).
	if _, err := sharded.Summary(); err != nil {
		t.Fatal(err)
	}

	_, jsonClient, binClient := startServer(t, map[string]any{
		"hist": h, "hier": hier, "cdf": cdf, "wave": ws, "est": est,
		"maint": maint, "shard": sharded,
	})

	xs, as, bs := queries(n, 64)
	const hierK = 3
	hierHist, err := hier.ForK(hierK)
	if err != nil {
		t.Fatal(err)
	}

	wantPoints := map[string][]float64{
		"hist": h.AtBatch(xs, nil, 1),
		"hier": hierHist.Histogram.AtBatch(xs, nil, 1),
	}
	wantPoints["cdf"] = make([]float64, len(xs))
	for i, x := range xs {
		v, err := cdf.At(x)
		if err != nil {
			t.Fatal(err)
		}
		wantPoints["cdf"][i] = v
	}
	if wantPoints["wave"], err = synopsis.EstimateRangeBatch(wsEst, xs, xs, 1); err != nil {
		t.Fatal(err)
	}
	if wantPoints["est"], err = synopsis.EstimateRangeBatch(est, xs, xs, 1); err != nil {
		t.Fatal(err)
	}
	// The streaming engines are mutable; the serve adapters answer exactly
	// what EstimateRange answers at this moment (no ingestion runs during
	// this test).
	estRange := func(er func(int, int) (float64, error), as, bs []int) []float64 {
		out := make([]float64, len(as))
		for i := range as {
			v, err := er(as[i], bs[i])
			if err != nil {
				t.Fatal(err)
			}
			out[i] = v
		}
		return out
	}
	wantPoints["maint"] = estRange(maint.EstimateRange, xs, xs)
	wantPoints["shard"] = estRange(sharded.EstimateRange, xs, xs)

	wantRanges := map[string][]float64{
		"hist":  h.RangeSumBatch(as, bs, nil, 1),
		"hier":  hierHist.Histogram.RangeSumBatch(as, bs, nil, 1),
		"maint": estRange(maint.EstimateRange, as, bs),
		"shard": estRange(sharded.EstimateRange, as, bs),
	}
	if wantRanges["wave"], err = synopsis.EstimateRangeBatch(wsEst, as, bs, 1); err != nil {
		t.Fatal(err)
	}
	if wantRanges["est"], err = synopsis.EstimateRangeBatch(est, as, bs, 1); err != nil {
		t.Fatal(err)
	}
	wantRanges["cdf"] = make([]float64, len(as))
	for i := range as {
		hi, err := cdf.At(bs[i])
		if err != nil {
			t.Fatal(err)
		}
		var lo float64
		if as[i] > 1 {
			if lo, err = cdf.At(as[i] - 1); err != nil {
				t.Fatal(err)
			}
		}
		wantRanges["cdf"][i] = hi - lo
	}

	for name, want := range wantPoints {
		for label, c := range map[string]*Client{"json": jsonClient, "binary": binClient} {
			got, err := c.AtForK(name, hierK, xs)
			if err != nil {
				t.Fatalf("%s/%s At: %v", name, label, err)
			}
			bitsEqual(t, name+"/"+label+" at", got, want)
		}
		// Single GET form must agree with the batch form.
		v, err := jsonClient.Point(name+"?", xs[0])
		if err == nil {
			t.Fatalf("%s: query with bad name suffix should 404, got %v", name, v)
		}
	}
	for name, want := range wantRanges {
		for label, c := range map[string]*Client{"json": jsonClient, "binary": binClient} {
			got, err := c.RangesForK(name, hierK, as, bs)
			if err != nil {
				t.Fatalf("%s/%s Ranges: %v", name, label, err)
			}
			bitsEqual(t, name+"/"+label+" range", got, want)
		}
	}

	// Single-query GET forms (hierarchy needs k, exercised via the client URL).
	for _, name := range []string{"hist", "est", "maint", "shard"} {
		got, err := jsonClient.Point(name, xs[3])
		if err != nil {
			t.Fatalf("%s Point: %v", name, err)
		}
		if math.Float64bits(got) != math.Float64bits(wantPoints[name][3]) {
			t.Fatalf("%s Point = %v, want %v", name, got, wantPoints[name][3])
		}
		got, err = jsonClient.Range(name, as[5], bs[5])
		if err != nil {
			t.Fatalf("%s Range: %v", name, err)
		}
		if math.Float64bits(got) != math.Float64bits(wantRanges[name][5]) {
			t.Fatalf("%s Range = %v, want %v", name, got, wantRanges[name][5])
		}
	}

	// Registry listing.
	infos, err := jsonClient.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 7 {
		t.Fatalf("listing has %d entries, want 7: %v", len(infos), infos)
	}
	kinds := map[string]string{}
	for _, in := range infos {
		kinds[in.Name] = in.Kind
	}
	for name, want := range map[string]string{
		"hist": "histogram", "hier": "hierarchy", "cdf": "cdf",
		"wave": "wavelet", "est": "estimator", "maint": "maintainer", "shard": "sharded",
	} {
		if kinds[name] != want {
			t.Fatalf("kind[%q] = %q, want %q", name, kinds[name], want)
		}
	}
}

// TestServeSnapshotRoundTrip snapshots every hosted kind over the wire and
// checks the bytes decode with the library's strict decoders.
// TestHierLevelIndexMatchesForK: the served level is the one ForK picks,
// also for a k whose 8k overflows int.
func TestHierLevelIndexMatchesForK(t *testing.T) {
	hier := core.ConstructHierarchicalHistogramWorkers(sparse.FromDense(testData(4000)), 1)
	s := &hierServed{hier: hier}
	for _, k := range []int{1, 2, 3, 10, 100, 1000, 1 << 59, 1 << 60, 1 << 62, math.MaxInt} {
		res, err := hier.ForK(k)
		if err != nil {
			t.Fatal(err)
		}
		if got := s.levelIndex(k); got != res.Rounds {
			t.Fatalf("k=%d: served level %d, ForK picks level %d", k, got, res.Rounds)
		}
		if k >= 1000 && res.Rounds != 0 {
			t.Fatalf("k=%d: level %d, want the finest", k, res.Rounds)
		}
	}
}

func TestServeSnapshotRoundTrip(t *testing.T) {
	const n = 1200
	h := testHistogram(t, n, 8)
	opts := core.DefaultOptions()
	opts.Workers = 1
	sharded, err := stream.NewSharded(n, 4, 2, 64, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		if err := sharded.Add(1+(i*11)%n, 1); err != nil {
			t.Fatal(err)
		}
	}
	// Quiesce so the source's answers stay bit-stable between the snapshot
	// and the comparison below.
	if _, err := sharded.Summary(); err != nil {
		t.Fatal(err)
	}
	_, c, _ := startServer(t, map[string]any{"hist": h, "shard": sharded})

	var buf bytes.Buffer
	if err := c.Snapshot("hist", &buf); err != nil {
		t.Fatal(err)
	}
	back, err := core.DecodeHistogram(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("wire histogram snapshot does not decode: %v", err)
	}
	_, as, bs := queries(n, 16)
	bitsEqual(t, "snapshot", back.RangeSumBatch(as, bs, nil, 1), h.RangeSumBatch(as, bs, nil, 1))

	buf.Reset()
	if err := c.Snapshot("shard", &buf); err != nil {
		t.Fatal(err)
	}
	restored, err := stream.RestoreSharded(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("wire sharded snapshot does not decode: %v", err)
	}
	for i := range as {
		want, err1 := sharded.EstimateRange(as[i], bs[i])
		got, err2 := restored.EstimateRange(as[i], bs[i])
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("restored EstimateRange(%d, %d) = %v, want %v", as[i], bs[i], got, want)
		}
	}
}

// TestServeHotSwap pushes a replacement snapshot and checks queries cut over
// atomically, including a type-changing swap.
func TestServeHotSwap(t *testing.T) {
	const n = 900
	h1 := testHistogram(t, n, 4)
	h2 := testHistogram(t, n, 40)
	_, c, _ := startServer(t, map[string]any{"col": h1})

	got, err := c.Range("col", 10, n-10)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(got) != math.Float64bits(h1.RangeSum(10, n-10)) {
		t.Fatal("pre-swap answer wrong")
	}

	var buf bytes.Buffer
	if _, err := h2.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if err := c.Push("col", bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	got, err = c.Range("col", 10, n-10)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(got) != math.Float64bits(h2.RangeSum(10, n-10)) {
		t.Fatal("post-swap answer is not the new histogram's")
	}

	// Swap in a different kind entirely: push a maintainer checkpoint, then
	// push to a brand-new name (creation via PUT).
	opts := core.DefaultOptions()
	opts.Workers = 1
	m, err := stream.NewMaintainer(n, 3, 32, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := m.Add(1+i%n, 2); err != nil {
			t.Fatal(err)
		}
	}
	buf.Reset()
	if err := m.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if err := c.Push("col", bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	want, err := m.EstimateRange(1, n)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := c.Range("col", 1, n); err != nil || math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("type-changing swap: got %v (%v), want %v", got, err, want)
	}
	if err := c.Push("fresh", bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("PUT to a new name should create it: %v", err)
	}
	infos, err := c.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 2 {
		t.Fatalf("listing: %v", infos)
	}
}

// TestServeIngest feeds updates over the wire (both codecs) and checks the
// served mass against a library-side replica fed identically.
func TestServeIngest(t *testing.T) {
	const n = 600
	opts := core.DefaultOptions()
	opts.Workers = 1
	mk := func() *stream.Sharded {
		s, err := stream.NewSharded(n, 4, 2, 4096, opts)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	servedEngine, replica := mk(), mk()
	_, jsonClient, binClient := startServer(t, map[string]any{"s": servedEngine})

	points := make([]int, 300)
	weights := make([]float64, 300)
	for i := range points {
		points[i] = 1 + (i*13)%n
		weights[i] = 1 + float64(i%5)
	}
	if err := jsonClient.Add("s", points, weights); err != nil {
		t.Fatal(err)
	}
	if err := binClient.Add("s", points, nil); err != nil {
		t.Fatal(err)
	}
	if err := replica.AddBatch(points, weights); err != nil {
		t.Fatal(err)
	}
	if err := replica.AddBatch(points, nil); err != nil {
		t.Fatal(err)
	}
	_, as, bs := queries(n, 24)
	for i := range as {
		want, err1 := replica.EstimateRange(as[i], bs[i])
		got, err2 := jsonClient.Range("s", as[i], bs[i])
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("EstimateRange(%d, %d) = %v over the wire, %v in-process", as[i], bs[i], got, want)
		}
	}
}

// TestServeErrors pins the HTTP error mapping: unknown names 404, malformed
// and oversized bodies 4xx, unsupported media types 415, ingest on an
// immutable synopsis 400 — and never a 5xx or a panic.
func TestServeErrors(t *testing.T) {
	const n = 500
	h := testHistogram(t, n, 6)
	hier := core.ConstructHierarchicalHistogramWorkers(sparse.FromDense(testData(n)), 1)
	ts, c, _ := startServer(t, map[string]any{"hist": h, "hier": hier})

	post := func(path, ctype, body string) int {
		req, err := http.NewRequest(http.MethodPost, ts.URL+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", ctype)
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	cases := []struct {
		label string
		got   int
		want  int
	}{
		{"unknown name", post("/v1/nope/at", ContentJSON, `{"points":[1]}`), http.StatusNotFound},
		{"bad json", post("/v1/hist/at", ContentJSON, `{"points":[1`), http.StatusBadRequest},
		{"unknown field", post("/v1/hist/at", ContentJSON, `{"pts":[1]}`), http.StatusBadRequest},
		{"bad media type", post("/v1/hist/at", "text/csv", "1,2"), http.StatusUnsupportedMediaType},
		{"out-of-range point", post("/v1/hist/at", ContentJSON, `{"points":[0]}`), http.StatusBadRequest},
		{"shape mismatch", post("/v1/hist/range", ContentJSON, `{"as":[1],"bs":[2,3]}`), http.StatusBadRequest},
		{"ingest on histogram", post("/v1/hist/add", ContentJSON, `{"points":[1]}`), http.StatusBadRequest},
		{"hierarchy without k", post("/v1/hier/at", ContentJSON, `{"points":[1]}`), http.StatusBadRequest},
		{"binary garbage", post("/v1/hist/at", ContentBatch, "HSYNgarbage"), http.StatusBadRequest},
		{"truncated binary", post("/v1/hist/at", ContentBatch, "HS"), http.StatusBadRequest},
	}
	for _, tc := range cases {
		if tc.got != tc.want {
			t.Errorf("%s: status %d, want %d", tc.label, tc.got, tc.want)
		}
	}

	if _, err := c.Point("hist", 0); err == nil {
		t.Error("out-of-range single query should error")
	}
	if _, err := c.Range("hist", 9, 3); err == nil {
		t.Error("inverted range should error")
	}
	resp, err := ts.Client().Get(ts.URL + "/v1/hist/at?x=notanint")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad x param: status %d", resp.StatusCode)
	}

	// A pushed snapshot that fails validation must not disturb the entry.
	req, err := http.NewRequest(http.MethodPut, ts.URL+"/v1/hist/snapshot", strings.NewReader("HSYN junk"))
	if err != nil {
		t.Fatal(err)
	}
	resp, err = ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("junk snapshot push: status %d", resp.StatusCode)
	}
	if got, err := c.Point("hist", 1); err != nil || math.Float64bits(got) != math.Float64bits(h.At(1)) {
		t.Errorf("entry disturbed by failed push: %v, %v", got, err)
	}

	// Batch cap: a server with a tiny MaxBatch rejects oversized bodies.
	small := NewServer(&Config{Workers: 1, MaxBatch: 4})
	if err := small.Host("h", h); err != nil {
		t.Fatal(err)
	}
	tsSmall := httptest.NewServer(small.Handler())
	defer tsSmall.Close()
	cSmall := NewClient(tsSmall.URL, tsSmall.Client(), false)
	if _, err := cSmall.At("h", []int{1, 2, 3, 4, 5}); err == nil {
		t.Error("batch above MaxBatch should be rejected")
	}
	cSmallBin := NewClient(tsSmall.URL, tsSmall.Client(), true)
	if _, err := cSmallBin.At("h", []int{1, 2, 3, 4, 5}); err == nil {
		t.Error("binary batch above MaxBatch should be rejected")
	}
	if _, err := cSmall.At("h", []int{1, 2, 3}); err != nil {
		t.Errorf("batch under MaxBatch rejected: %v", err)
	}
	// A body larger than the byte cap must come back 413, not 400: "shrink
	// your batch" is a different client signal than "malformed request".
	huge := bytes.Repeat([]byte(" "), int(64*4+4096)+100)
	copy(huge, `{"points":[1]`)
	req, err = http.NewRequest(http.MethodPost, tsSmall.URL+"/v1/h/at", bytes.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", ContentJSON)
	resp, err = tsSmall.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: status %d, want 413", resp.StatusCode)
	}
}

// TestPutHugeDeclaredSizesIsNot5xx pushes a 40-byte maintainer snapshot
// whose header declares a 2^40-entry update buffer, and a complete delta
// declaring the same — the body a replica's PUT carries. Preallocating the
// declared buffer would kill the process ("fatal error: runtime: out of
// memory"); both must get a non-5xx reply, and the hosted engine must
// answer.
func TestPutHugeDeclaredSizesIsNot5xx(t *testing.T) {
	cfg := codec.AppendUvarint(nil, 100)  // n
	cfg = codec.AppendUvarint(cfg, 4)     // k
	cfg = codec.AppendFloat64(cfg, 1)     // δ
	cfg = codec.AppendFloat64(cfg, 1)     // γ
	cfg = codec.AppendVarint(cfg, 1)      // workers
	cfg = codec.AppendUvarint(cfg, 1<<40) // buffer capacity
	emptyState := []byte{0, 0, 0, 0, 0}   // counters, no view, empty log
	frame := func(tag byte, parts ...[]byte) []byte {
		dst := codec.AppendFrameHeader(nil, tag)
		for _, p := range parts {
			dst = append(dst, p...)
		}
		return codec.FinishFrame(dst, 0)
	}
	snapshot := frame(codec.TagMaintainer, cfg, emptyState)
	if len(snapshot) != 40 {
		t.Fatalf("snapshot body is %d bytes, want 40", len(snapshot))
	}
	// Delta: epoch 1, one shard, carried from version 0 to 0.
	delta := frame(codec.TagShardedDelta, cfg, []byte{1, 1, 1, 0, 0, 0}, emptyState)
	srv := NewServer(&Config{Workers: 1})
	for _, body := range [][]byte{snapshot, delta} {
		req := httptest.NewRequest(http.MethodPut, "/v1/x/snapshot", bytes.NewReader(body))
		req.Header.Set("Content-Type", ContentSnapshot)
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, req)
		if rec.Code >= 500 {
			t.Fatalf("PUT of a %d-byte body: status %d: %s", len(body), rec.Code, rec.Body.String())
		}
		rec = httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/x/range?a=1&b=100", nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("range query after a %d-byte PUT: status %d: %s", len(body), rec.Code, rec.Body.String())
		}
	}
}

// TestPutSnapshotRejectsTrailingBytes pushes a valid histogram envelope
// followed by 16 garbage bytes. The body must be exactly one envelope, so
// the push gets a 400 and the synopsis hosted before it keeps answering;
// Load over the same bytes as a stream still reads its one envelope.
func TestPutSnapshotRejectsTrailingBytes(t *testing.T) {
	old, pushed := testHistogram(t, 500, 5), testHistogram(t, 500, 9)
	srv := NewServer(&Config{Workers: 1})
	if err := srv.Host("hist", old); err != nil {
		t.Fatal(err)
	}
	var blob bytes.Buffer
	if _, err := pushed.WriteTo(&blob); err != nil {
		t.Fatal(err)
	}
	body := append(blob.Bytes(), bytes.Repeat([]byte{0xee}, 16)...)

	req := httptest.NewRequest(http.MethodPut, "/v1/hist/snapshot", bytes.NewReader(body))
	req.Header.Set("Content-Type", ContentSnapshot)
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("PUT with 16 trailing bytes: status %d, want 400: %s", rec.Code, rec.Body.String())
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := NewClient(ts.URL, ts.Client(), true)
	for _, x := range []int{1, 250, 500} {
		if got, err := c.Point("hist", x); err != nil || math.Float64bits(got) != math.Float64bits(old.At(x)) {
			t.Fatalf("entry after the rejected push: Point(%d) = %v, %v, want %v", x, got, err, old.At(x))
		}
	}

	stream := bytes.NewReader(body)
	if err := srv.Load("loaded", stream); err != nil {
		t.Fatalf("Load of one envelope from a longer stream: %v", err)
	}
	if stream.Len() != 16 {
		t.Fatalf("Load left %d bytes of the stream, want the 16 after the envelope", stream.Len())
	}
}
