package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/stream"
)

// feedWindowed drives a windowed engine through sealed epochs plus a live
// tail, deterministically (no background-compaction ambiguity for the
// maintainer; the sharded caller quiesces itself).
func feedWindowed(t *testing.T, add func(int, float64) error, advance func() error, n, epochs, perEpoch, tail int) {
	t.Helper()
	state := uint64(4242)
	next := func() (int, float64) {
		state = state*6364136223846793005 + 1442695040888963407
		return 1 + int(state>>33)%n, 1 + float64(state>>52)/16
	}
	for e := 0; e < epochs; e++ {
		for i := 0; i < perEpoch; i++ {
			p, w := next()
			if err := add(p, w); err != nil {
				t.Fatal(err)
			}
		}
		if err := advance(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < tail; i++ {
		p, w := next()
		if err := add(p, w); err != nil {
			t.Fatal(err)
		}
	}
}

// windowedURL renders a /range query URL with the windowed knobs.
func windowedURL(base, name string, a, b, window int, halflife float64) string {
	return fmt.Sprintf("%s/v1/%s/range?a=%d&b=%d%s", base, name, a, b, windowKnobs(window, halflife))
}

// windowKnobs renders the &window= / &halflife= query suffix.
func windowKnobs(window int, halflife float64) string {
	var u string
	if window > 0 {
		u += fmt.Sprintf("&window=%d", window)
	}
	if halflife > 0 {
		u += fmt.Sprintf("&halflife=%g", halflife)
	}
	return u
}

// TestServeWindowedQueries pins ?window= / ?halflife= end-to-end on both
// engines, both endpoints and both codecs: every wire answer must be
// bit-identical to the library's EstimateRangeOver at the same parameters (a
// point x is the range [x, x]).
func TestServeWindowedQueries(t *testing.T) {
	const n, k, W, tail = 3000, 6, 4, 150
	opts := core.DefaultOptions()
	opts.Workers = 1
	maint, err := stream.NewWindowedMaintainer(n, k, W, 64, opts)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := stream.NewWindowedSharded(n, k, W, 3, 64, opts)
	if err != nil {
		t.Fatal(err)
	}
	feedWindowed(t, maint.Add, maint.Advance, n, W+1, 400, tail)
	feedWindowed(t, sharded.Add, sharded.Advance, n, W+1, 400, tail)
	// Quiesce the sharded engine so its answers stay bit-stable between the
	// expected-value computation and the wire queries.
	if _, err := sharded.SummaryOver(0, 0); err != nil {
		t.Fatal(err)
	}

	ts, _, _ := startServer(t, map[string]any{"wm": maint, "ws": sharded})
	_, as, bs := queries(n, 24)

	over := map[string]func(a, b, w int, hl float64) (float64, error){
		"wm": maint.EstimateRangeOver,
		"ws": sharded.EstimateRangeOver,
	}
	type knob struct {
		window   int
		halflife float64
	}
	knobs := []knob{{1, 0}, {2, 0}, {W, 0}, {0, 1.5}, {2, 0.75}, {W, 2.5}}
	for name, want := range over {
		for _, kn := range knobs {
			// Single GET form.
			resp, err := ts.Client().Get(windowedURL(ts.URL, name, as[0], bs[0], kn.window, kn.halflife))
			if err != nil {
				t.Fatal(err)
			}
			var single struct {
				Value float64 `json:"value"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&single); err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s GET window=%d halflife=%g: status %d", name, kn.window, kn.halflife, resp.StatusCode)
			}
			wv, err := want(as[0], bs[0], kn.window, kn.halflife)
			if err != nil {
				t.Fatal(err)
			}
			bitsEqual(t, fmt.Sprintf("%s single w=%d hl=%g", name, kn.window, kn.halflife), []float64{single.Value}, []float64{wv})

			wantVals := make([]float64, len(as))
			for i := range as {
				if wantVals[i], err = want(as[i], bs[i], kn.window, kn.halflife); err != nil {
					t.Fatal(err)
				}
			}
			batchURL := fmt.Sprintf("%s/v1/%s/range?", ts.URL, name)
			if kn.window > 0 {
				batchURL += fmt.Sprintf("window=%d&", kn.window)
			}
			if kn.halflife > 0 {
				batchURL += fmt.Sprintf("halflife=%g", kn.halflife)
			}

			// JSON batch.
			body, err := json.Marshal(rangesJSON{As: as, Bs: bs})
			if err != nil {
				t.Fatal(err)
			}
			resp, err = ts.Client().Post(batchURL, ContentJSON, bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			var got valuesJSON
			err = json.NewDecoder(resp.Body).Decode(&got)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK {
				t.Fatalf("%s JSON batch w=%d hl=%g: status %d, %v", name, kn.window, kn.halflife, resp.StatusCode, err)
			}
			bitsEqual(t, fmt.Sprintf("%s json w=%d hl=%g", name, kn.window, kn.halflife), got.Values, wantVals)

			// Binary batch.
			var frame bytes.Buffer
			if err := EncodeRangesBody(&frame, as, bs); err != nil {
				t.Fatal(err)
			}
			resp, err = ts.Client().Post(batchURL, ContentBatch, &frame)
			if err != nil {
				t.Fatal(err)
			}
			raw, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK {
				t.Fatalf("%s binary batch w=%d hl=%g: status %d, %v", name, kn.window, kn.halflife, resp.StatusCode, err)
			}
			gotBin, err := DecodeValuesBody(bytes.NewReader(raw))
			if err != nil {
				t.Fatal(err)
			}
			bitsEqual(t, fmt.Sprintf("%s binary w=%d hl=%g", name, kn.window, kn.halflife), gotBin, wantVals)

			checkWindowedPoints(t, ts, name, as, kn.window, kn.halflife, want)
		}
	}

	// The windowed snapshot round-trips over the wire: GET serves a
	// TagWindowed envelope, and PUT on a fresh server restores a windowed
	// engine that keeps answering windowed queries.
	for _, name := range []string{"wm", "ws"} {
		blob := getSnapshot(t, ts, name)
		if len(blob) < 6 || blob[5] != codec.TagWindowed {
			t.Fatalf("%s snapshot tag = %d, want TagWindowed", name, blob[5])
		}
		srv2 := NewServer(&Config{Workers: 1})
		ts2 := httptest.NewServer(srv2.Handler())
		req, err := http.NewRequest(http.MethodPut, ts2.URL+"/v1/"+name+"/snapshot", bytes.NewReader(blob))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := ts2.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("PUT windowed %s snapshot: status %d", name, resp.StatusCode)
		}
		wv, err := over[name](as[1], bs[1], 2, 1.5)
		if err != nil {
			t.Fatal(err)
		}
		resp, err = ts2.Client().Get(windowedURL(ts2.URL, name, as[1], bs[1], 2, 1.5))
		if err != nil {
			t.Fatal(err)
		}
		var single struct {
			Value float64 `json:"value"`
		}
		err = json.NewDecoder(resp.Body).Decode(&single)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("restored %s windowed query: status %d, %v", name, resp.StatusCode, err)
		}
		bitsEqual(t, "restored "+name, []float64{single.Value}, []float64{wv})
		ts2.Close()
	}
}

// checkWindowedPoints pins /at with the windowed knobs in its three forms —
// single GET, JSON batch and binary batch — against the library's answer
// for [x, x].
func checkWindowedPoints(t *testing.T, ts *httptest.Server, name string, xs []int, window int, halflife float64,
	want func(a, b, w int, hl float64) (float64, error)) {
	t.Helper()
	label := fmt.Sprintf("%s /at w=%d hl=%g", name, window, halflife)
	wantVals := make([]float64, len(xs))
	for i, x := range xs {
		var err error
		if wantVals[i], err = want(x, x, window, halflife); err != nil {
			t.Fatal(err)
		}
	}
	client := ts.Client()

	resp, err := client.Get(fmt.Sprintf("%s/v1/%s/at?x=%d%s", ts.URL, name, xs[0], windowKnobs(window, halflife)))
	if err != nil {
		t.Fatal(err)
	}
	var single struct {
		Value float64 `json:"value"`
	}
	err = json.NewDecoder(resp.Body).Decode(&single)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("%s single: status %d, %v", label, resp.StatusCode, err)
	}
	bitsEqual(t, label+" single", []float64{single.Value}, wantVals[:1])

	batchURL := fmt.Sprintf("%s/v1/%s/at?%s", ts.URL, name, windowKnobs(window, halflife))
	body, err := json.Marshal(pointsJSON{Points: xs})
	if err != nil {
		t.Fatal(err)
	}
	resp, err = client.Post(batchURL, ContentJSON, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var got valuesJSON
	err = json.NewDecoder(resp.Body).Decode(&got)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("%s JSON batch: status %d, %v", label, resp.StatusCode, err)
	}
	bitsEqual(t, label+" json", got.Values, wantVals)

	var frame bytes.Buffer
	if err := EncodePointsBody(&frame, xs); err != nil {
		t.Fatal(err)
	}
	resp, err = client.Post(batchURL, ContentBatch, &frame)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("%s binary batch: status %d, %v", label, resp.StatusCode, err)
	}
	gotBin, err := DecodeValuesBody(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	bitsEqual(t, label+" binary", gotBin, wantVals)
}

// TestServeWindowedParamValidation pins the 4xx contract for the windowed
// knobs: malformed values, windows beyond the retained span, and windowed
// queries against synopses that cannot answer them are all client errors.
func TestServeWindowedParamValidation(t *testing.T) {
	const n = 500
	opts := core.DefaultOptions()
	opts.Workers = 1
	wm, err := stream.NewWindowedMaintainer(n, 4, 3, 32, opts)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := stream.NewMaintainer(n, 4, 32, opts)
	if err != nil {
		t.Fatal(err)
	}
	ts, _, _ := startServer(t, map[string]any{
		"wm": wm, "plain": plain, "hist": testHistogram(t, n, 8),
	})

	cases := []struct {
		name  string
		query string
	}{
		{"wm", "window=abc"},
		{"wm", "window=0"},
		{"wm", "window=-2"},
		{"wm", "window=9"}, // beyond the 3-epoch span
		{"wm", "halflife=abc"},
		{"wm", "halflife=0"},
		{"wm", "halflife=-1"},
		{"wm", "halflife=Inf"},
		{"wm", "halflife=NaN"},
		{"plain", "window=2"}, // plain engine: no ring to query
		{"hist", "window=2"},  // immutable synopsis: no epochs at all
		{"hist", "halflife=1.5"},
	}
	for _, tc := range cases {
		resp, err := ts.Client().Get(fmt.Sprintf("%s/v1/%s/range?a=1&b=10&%s", ts.URL, tc.name, tc.query))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s ?%s: status %d, want 400", tc.name, tc.query, resp.StatusCode)
		}
	}

	// Valid windowed queries on the windowed engine still answer.
	resp, err := ts.Client().Get(ts.URL + "/v1/wm/range?a=1&b=10&window=2&halflife=1.5")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("valid windowed query: status %d", resp.StatusCode)
	}
}

// TestAnswerBinaryWindowedZeroAlloc extends the steady-state zero-allocation
// pin to the windowed batch kernel: a binary batch of 256 ranges (four
// kernel groups) with both knobs set, against engines holding sealed epochs
// and a pending tail, must not allocate after warm-up on any streaming kind
// that serves windowed queries.
func TestAnswerBinaryWindowedZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items at random")
	}
	const n, k, W, capacity, tail = 20000, 8, 4, 128, 90
	opts := core.DefaultOptions()
	opts.Workers = 1
	sharded, err := stream.NewWindowedSharded(n, k, W, 2, capacity, opts)
	if err != nil {
		t.Fatal(err)
	}
	durable, err := stream.NewDurableSharded(n, k, 2, capacity, opts, stream.DurableOptions{
		Dir: t.TempDir(), CheckpointEvery: -1, WindowEpochs: W,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { durable.Close() })
	maint, err := stream.NewWindowedMaintainer(n, k, W, capacity, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Each Advance drains the engine; the tail then stays pending (fewer
	// than capacity updates per shard, so no compaction starts).
	feedWindowed(t, sharded.Add, sharded.Advance, n, W+1, 600, tail)
	feedWindowed(t, durable.Add, durable.Advance, n, W+1, 600, tail)
	feedWindowed(t, maint.Add, maint.Advance, n, W+1, 600, tail)

	s := NewServer(&Config{Workers: 1})
	q := queryParams{workers: 1, window: 3, halflife: 1.5}
	_, as, bs := queries(n, 4*64)
	rangeReq := encodeBody(t, func(w io.Writer) error { return EncodeRangesBody(w, as, bs) })
	for name, eng := range map[string]any{"sharded": sharded, "durable-sharded": durable, "maintainer": maint} {
		if err := s.Host(name, eng); err != nil {
			t.Fatal(err)
		}
		sv, _ := s.lookup(name)
		// Warm-up: grows the pooled buffers and builds every slot
		// histogram's lazily constructed query index.
		rd := bytes.NewReader(rangeReq)
		wb := s.bufs.get()
		if _, err := s.answerBinary(sv, q, true, rd, wb); err != nil {
			t.Fatal(err)
		}
		s.bufs.put(wb)

		if allocs := testing.AllocsPerRun(200, func() {
			wb := s.bufs.get()
			rd.Reset(rangeReq)
			if _, err := s.answerBinary(sv, q, true, rd, wb); err != nil {
				t.Fatal(err)
			}
			s.bufs.put(wb)
		}); allocs != 0 {
			t.Fatalf("%s: windowed binary range path allocates %v/op at steady state, want 0", name, allocs)
		}
	}
}

// TestSnapshotDeltaMalformedSince pins GET /snapshot?since= against abuse:
// syntactically malformed vectors are 400s, and anything parsable that does
// not match the engine's topology or epoch downgrades to the complete frame —
// never a 5xx, never a panic.
func TestSnapshotDeltaMalformedSince(t *testing.T) {
	const n = 800
	opts := core.DefaultOptions()
	opts.Workers = 1
	eng, err := stream.NewSharded(n, 4, 3, 32, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if err := eng.Add(1+(i*13)%n, 1); err != nil {
			t.Fatal(err)
		}
	}
	srv := NewServer(&Config{Workers: 1})
	if err := srv.Host("s", eng); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	get := func(since string) (int, []byte) {
		t.Helper()
		resp, err := ts.Client().Get(ts.URL + "/v1/s/snapshot?since=" + since)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, body
	}

	// Syntactically malformed: 400, with a JSON error body.
	for _, since := range []string{"abc", "5", "1:", "1:x", "1:3,", ":1,2,3", "1:1,2,3x"} {
		status, body := get(since)
		if status != http.StatusBadRequest {
			t.Errorf("since=%q: status %d, want 400 (body %q)", since, status, body)
			continue
		}
		var e errorJSON
		if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
			t.Errorf("since=%q: non-JSON error body %q", since, body)
		}
	}

	// Parsable but foreign coordinates: complete-frame downgrade, 200.
	wrong := []string{
		"0",                          // explicit full sync
		"1:1,2",                      // wrong shard count (2 of 3)
		"1:1,2,3,4,5",                // wrong shard count (5 of 3)
		"999999:1,2,3",               // unknown epoch
		"18446744073709551615:0,0,0", // max uint64 epoch
	}
	for _, since := range wrong {
		status, body := get(since)
		if status != http.StatusOK {
			t.Errorf("since=%q: status %d, want 200 complete-frame downgrade (body %q)", since, status, body)
			continue
		}
		d, err := stream.ParseShardedDelta(body)
		if err != nil {
			t.Errorf("since=%q: undecodable delta frame: %v", since, err)
			continue
		}
		if !d.Complete() {
			t.Errorf("since=%q: partial frame, want complete downgrade", since)
		}
	}
}
