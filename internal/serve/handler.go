package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"mime"
	"net/http"
	"strconv"
	"strings"

	"repro/internal/codec"
)

// Handler returns the HTTP handler serving the registry. Routing uses the
// standard library mux; see the package comment for the endpoint table.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1", s.handleList)
	mux.HandleFunc("GET /v1/{name}/at", s.handleQuery)
	mux.HandleFunc("POST /v1/{name}/at", s.handleQuery)
	mux.HandleFunc("GET /v1/{name}/range", s.handleQuery)
	mux.HandleFunc("POST /v1/{name}/range", s.handleQuery)
	mux.HandleFunc("POST /v1/{name}/add", s.handleAdd)
	mux.HandleFunc("GET /v1/{name}/snapshot", s.handleSnapshotGet)
	mux.HandleFunc("PUT /v1/{name}/snapshot", s.handleSnapshotPut)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	return mux
}

// handleHealthz is liveness: the process is up and the handler runs. Always
// 200 — a wedged engine shows in /metrics and /readyz, not here.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_, _ = io.WriteString(w, "ok\n")
}

// handleReadyz is readiness: 200 once recovery/replay has finished and the
// registry accepts traffic, 503 before (see Server.SetReady).
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if !s.Ready() {
		httpError(w, http.StatusServiceUnavailable, "recovering")
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_, _ = io.WriteString(w, "ok\n")
}

// JSON request/response shapes.
type pointsJSON struct {
	Points []int `json:"points"`
}
type rangesJSON struct {
	As []int `json:"as"`
	Bs []int `json:"bs"`
}
type addJSON struct {
	Points  []int     `json:"points"`
	Weights []float64 `json:"weights,omitempty"`
}
type valuesJSON struct {
	Values []float64 `json:"values"`
}
type errorJSON struct {
	Error string `json:"error"`
}

// httpError writes a JSON error body with the given status.
func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", ContentJSON)
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(errorJSON{Error: fmt.Sprintf(format, args...)})
}

// bodyErrStatus maps a request-body decode error to its status: an oversized
// body (the MaxBytesReader tripping) is 413 — "shrink your batch", not
// "malformed request" — and everything else is a plain 400.
func bodyErrStatus(err error) int {
	var maxErr *http.MaxBytesError
	if errors.As(err, &maxErr) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// writeJSON writes v as a 200 JSON response.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", ContentJSON)
	_ = json.NewEncoder(w).Encode(v)
}

// resolve loads the synopsis a request addresses — and its registry slot,
// whose counters the handler bumps — or writes the 404.
func (s *Server) resolve(w http.ResponseWriter, r *http.Request) (served, *entry, bool) {
	name := r.PathValue("name")
	ent, ok := s.lookupEntry(name)
	if !ok {
		httpError(w, http.StatusNotFound, "no synopsis named %q", name)
		return nil, nil, false
	}
	p := ent.ptr.Load()
	if p == nil {
		httpError(w, http.StatusNotFound, "no synopsis named %q", name)
		return nil, nil, false
	}
	return *p, ent, true
}

// params extracts the per-request query knobs (?k= for hierarchies,
// ?window= / ?halflife= for windowed streaming engines; the batch fan-out
// comes from the server configuration).
func (s *Server) params(r *http.Request) (queryParams, error) {
	q := queryParams{workers: s.cfg.Workers}
	if raw := r.URL.Query().Get("k"); raw != "" {
		k, err := strconv.Atoi(raw)
		if err != nil {
			return q, fmt.Errorf("bad k %q", raw)
		}
		q.k = k
	}
	if raw := r.URL.Query().Get("window"); raw != "" {
		w, err := strconv.Atoi(raw)
		if err != nil || w < 1 {
			return q, fmt.Errorf("bad window %q (want an integer ≥ 1 epochs)", raw)
		}
		q.window = w
	}
	if raw := r.URL.Query().Get("halflife"); raw != "" {
		hl, err := strconv.ParseFloat(raw, 64)
		if err != nil || hl <= 0 || math.IsInf(hl, 0) || math.IsNaN(hl) {
			return q, fmt.Errorf("bad halflife %q (want a finite number of epochs > 0)", raw)
		}
		q.halflife = hl
	}
	return q, nil
}

// contentType parses the request's Content-Type, defaulting to JSON when the
// header is absent.
func contentType(r *http.Request) (string, error) {
	raw := r.Header.Get("Content-Type")
	if raw == "" {
		return ContentJSON, nil
	}
	ct, _, err := mime.ParseMediaType(raw)
	if err != nil {
		return "", fmt.Errorf("bad Content-Type %q", raw)
	}
	return ct, nil
}

// handleList serves the registry listing.
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, struct {
		Synopses []NameInfo `json:"synopses"`
	}{Synopses: s.Names()})
}

// handleQuery serves /at and /range in both single (GET + URL params) and
// batch (POST + body) form. The response codec follows the request codec.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	sv, ent, ok := s.resolve(w, r)
	if !ok {
		return
	}
	q, err := s.params(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if q.windowed() {
		ws, ok := sv.(windowedServed)
		if !ok || !ws.windowedQueries() {
			httpError(w, http.StatusBadRequest,
				"synopsis kind %q does not answer windowed or decayed queries (?window= / ?halflife= need a windowed streaming engine)", sv.kind())
			return
		}
	}
	isRange := strings.HasSuffix(r.URL.Path, "/range")
	if isRange {
		ent.stats.ranges.Add(1)
	} else {
		ent.stats.points.Add(1)
	}

	if r.Method == http.MethodGet {
		s.handleSingleQuery(w, r, sv, q, isRange)
		return
	}

	ct, err := contentType(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	body := http.MaxBytesReader(w, r.Body, maxQueryBodyBytes(s.cfg.MaxBatch))
	var values []float64
	switch ct {
	case ContentJSON:
		var qerr error
		if isRange {
			var req rangesJSON
			if err := decodeJSONBody(body, &req); err != nil {
				httpError(w, bodyErrStatus(err), "%v", err)
				return
			}
			if len(req.As) != len(req.Bs) {
				httpError(w, http.StatusBadRequest, "%d starts for %d ends", len(req.As), len(req.Bs))
				return
			}
			if len(req.As) > s.cfg.MaxBatch {
				httpError(w, http.StatusBadRequest, "batch of %d exceeds the server's limit of %d", len(req.As), s.cfg.MaxBatch)
				return
			}
			values, qerr = sv.rangeBatch(req.As, req.Bs, q, nil)
		} else {
			var req pointsJSON
			if err := decodeJSONBody(body, &req); err != nil {
				httpError(w, bodyErrStatus(err), "%v", err)
				return
			}
			if len(req.Points) > s.cfg.MaxBatch {
				httpError(w, http.StatusBadRequest, "batch of %d exceeds the server's limit of %d", len(req.Points), s.cfg.MaxBatch)
				return
			}
			values, qerr = sv.pointBatch(req.Points, q, nil)
		}
		if qerr != nil {
			httpError(w, http.StatusBadRequest, "%v", qerr)
			return
		}
		writeJSON(w, valuesJSON{Values: values})
	case ContentBatch:
		wb := s.bufs.get()
		status, err := s.answerBinary(sv, q, isRange, body, wb)
		if err != nil {
			s.bufs.put(wb)
			httpError(w, status, "%v", err)
			return
		}
		w.Header().Set("Content-Type", ContentBatch)
		w.Header().Set("Content-Length", strconv.Itoa(len(wb.resp)))
		_, _ = w.Write(wb.resp)
		// net/http copies the bytes out during Write, so the frame can be
		// recycled as soon as it returns.
		s.bufs.put(wb)
	default:
		httpError(w, http.StatusUnsupportedMediaType, "unsupported Content-Type %q (want %q or %q)", ct, ContentJSON, ContentBatch)
	}
}

// answerBinary is the zero-copy binary batch path: the request body is read
// into a pooled buffer, checksum-verified and parsed in place, answered into
// the pooled value vector, and the response frame is appended directly into
// wb.resp — header first, packed values, one CRC pass over the filled region.
// After warm-up the whole request performs no allocations. On success wb.resp
// holds the complete response frame; on error it returns the HTTP status to
// report. Factored off the handler so tests can pin the allocation count
// without a ResponseWriter in the way.
func (s *Server) answerBinary(sv served, q queryParams, isRange bool, body io.Reader, wb *wireBuf) (int, error) {
	req, err := readBodyInto(wb.req, body)
	wb.req = req
	if err != nil {
		return bodyErrStatus(err), err
	}
	var values []float64
	if isRange {
		as, bs, err := ParseRangesBody(req, s.cfg.MaxBatch, wb.xs, wb.bs)
		if err != nil {
			return http.StatusBadRequest, err
		}
		wb.xs, wb.bs = as, bs
		values, err = sv.rangeBatch(as, bs, q, wb.vals)
		if err != nil {
			return http.StatusBadRequest, err
		}
	} else {
		xs, err := ParsePointsBody(req, s.cfg.MaxBatch, wb.xs)
		if err != nil {
			return http.StatusBadRequest, err
		}
		wb.xs = xs
		values, err = sv.pointBatch(xs, q, wb.vals)
		if err != nil {
			return http.StatusBadRequest, err
		}
	}
	wb.vals = values
	wb.resp = AppendValuesBody(wb.resp[:0], values)
	return http.StatusOK, nil
}

// handleSingleQuery answers GET /at?x= and GET /range?a=&b= with a one-value
// JSON object — the curl-friendly face of the batch machinery, answered by
// the same adapters so single and batch answers are bit-identical.
func (s *Server) handleSingleQuery(w http.ResponseWriter, r *http.Request, sv served, q queryParams, isRange bool) {
	get := func(key string) (int, bool) {
		v, err := strconv.Atoi(r.URL.Query().Get(key))
		if err != nil {
			httpError(w, http.StatusBadRequest, "bad or missing %s=%q", key, r.URL.Query().Get(key))
			return 0, false
		}
		return v, true
	}
	var values []float64
	var err error
	if isRange {
		a, ok := get("a")
		if !ok {
			return
		}
		b, ok := get("b")
		if !ok {
			return
		}
		values, err = sv.rangeBatch([]int{a}, []int{b}, q, nil)
	} else {
		x, ok := get("x")
		if !ok {
			return
		}
		values, err = sv.pointBatch([]int{x}, q, nil)
	}
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, struct {
		Value float64 `json:"value"`
	}{Value: values[0]})
}

// handleAdd serves ingest batches into a hosted streaming engine.
func (s *Server) handleAdd(w http.ResponseWriter, r *http.Request) {
	sv, ent, ok := s.resolve(w, r)
	if !ok {
		return
	}
	ing, ok := sv.(ingester)
	if !ok {
		httpError(w, http.StatusBadRequest, "synopsis kind %q does not accept updates", sv.kind())
		return
	}
	ent.stats.ingests.Add(1)
	ct, err := contentType(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	body := http.MaxBytesReader(w, r.Body, maxQueryBodyBytes(s.cfg.MaxBatch))
	switch ct {
	case ContentJSON:
		points, weights, err := decodeAddJSON(body, s.cfg.MaxBatch)
		if err != nil {
			httpError(w, bodyErrStatus(err), "%v", err)
			return
		}
		if weights != nil && len(weights) != len(points) {
			httpError(w, http.StatusBadRequest, "%d weights for %d points", len(weights), len(points))
			return
		}
		if err := ing.ingest(points, weights); err != nil {
			httpError(w, http.StatusBadRequest, "%v", err)
			return
		}
		writeJSON(w, struct {
			Ingested int `json:"ingested"`
		}{Ingested: len(points)})
	case ContentBatch:
		wb := s.bufs.get()
		status, err := s.ingestBinary(ing, body, wb)
		if err != nil {
			s.bufs.put(wb)
			httpError(w, status, "%v", err)
			return
		}
		w.Header().Set("Content-Type", ContentJSON)
		w.Header().Set("Content-Length", strconv.Itoa(len(wb.resp)))
		_, _ = w.Write(wb.resp)
		// net/http copies the bytes out during Write, so the reply can be
		// recycled as soon as it returns.
		s.bufs.put(wb)
	default:
		httpError(w, http.StatusUnsupportedMediaType, "unsupported Content-Type %q (want %q or %q)", ct, ContentJSON, ContentBatch)
	}
}

// ingestBinary is the zero-copy binary ingest path, mirroring answerBinary:
// the request body is read into a pooled buffer, checksum-verified and
// parsed in place into the pooled point/weight vectors, fed to the engine,
// and the {"ingested":N} reply is appended into the pooled response buffer.
// After warm-up the whole request performs no allocations (the hosted
// maintainer's compactions included). On success wb.resp holds the complete
// reply; on error it returns the HTTP status to report. Factored off the
// handler so tests can pin the allocation count without a ResponseWriter in
// the way.
func (s *Server) ingestBinary(ing ingester, body io.Reader, wb *wireBuf) (int, error) {
	req, err := readBodyInto(wb.req, body)
	wb.req = req
	if err != nil {
		return bodyErrStatus(err), err
	}
	points, weights, err := ParseAddBody(req, s.cfg.MaxBatch, wb.xs, wb.vals)
	if err != nil {
		return http.StatusBadRequest, err
	}
	wb.xs = points
	if weights != nil {
		wb.vals = weights
	}
	if err := ing.ingest(points, weights); err != nil {
		return http.StatusBadRequest, err
	}
	wb.resp = appendIngestedJSON(wb.resp[:0], len(points))
	return http.StatusOK, nil
}

// appendIngestedJSON renders the {"ingested":N} reply byte-for-byte as
// writeJSON's json.Encoder would (trailing newline included), without the
// encoder allocations.
func appendIngestedJSON(dst []byte, n int) []byte {
	dst = append(dst, `{"ingested":`...)
	dst = strconv.AppendInt(dst, int64(n), 10)
	return append(dst, '}', '\n')
}

// decodeAddJSON decodes an ingest body {"points":[...],"weights":[...]} with
// the strictness of decodeJSONBody (unknown fields and trailing data
// rejected) but enforces maxBatch DURING the points array scan: a body
// claiming a million points is rejected at element maxBatch+1 instead of
// after materializing the whole slice. The binary path gets the same
// guarantee from the length prefix; the streaming JSON grammar has no
// prefix, so the decoder has to count as it goes.
func decodeAddJSON(r io.Reader, maxBatch int) (points []int, weights []float64, err error) {
	dec := json.NewDecoder(r)
	dec.UseNumber()
	if err := expectDelim(dec, '{'); err != nil {
		return nil, nil, err
	}
	seenP, seenW := false, false
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			return nil, nil, err
		}
		key, _ := tok.(string)
		switch key {
		case "points":
			if seenP {
				return nil, nil, fmt.Errorf(`json: duplicate field "points"`)
			}
			seenP = true
			if points, err = decodeJSONIntArray(dec, maxBatch); err != nil {
				return nil, nil, fmt.Errorf("points: %w", err)
			}
		case "weights":
			if seenW {
				return nil, nil, fmt.Errorf(`json: duplicate field "weights"`)
			}
			seenW = true
			if weights, err = decodeJSONFloatArray(dec, maxBatch); err != nil {
				return nil, nil, fmt.Errorf("weights: %w", err)
			}
		default:
			return nil, nil, fmt.Errorf("json: unknown field %q", key)
		}
	}
	if err := expectDelim(dec, '}'); err != nil {
		return nil, nil, err
	}
	if dec.More() {
		return nil, nil, fmt.Errorf("trailing data after JSON body")
	}
	return points, weights, nil
}

// expectDelim consumes one token and requires it to be the delimiter.
func expectDelim(dec *json.Decoder, want json.Delim) error {
	tok, err := dec.Token()
	if err != nil {
		return err
	}
	if d, ok := tok.(json.Delim); !ok || d != want {
		return fmt.Errorf("json: expected %q, got %v", want.String(), tok)
	}
	return nil
}

// decodeJSONIntArray streams an integer array, failing as soon as it exceeds
// maxBatch elements. A JSON null decodes to nil, like encoding/json.
func decodeJSONIntArray(dec *json.Decoder, maxBatch int) ([]int, error) {
	tok, err := dec.Token()
	if err != nil {
		return nil, err
	}
	if tok == nil {
		return nil, nil
	}
	if d, ok := tok.(json.Delim); !ok || d != '[' {
		return nil, fmt.Errorf("json: expected an array, got %v", tok)
	}
	out := []int{}
	for dec.More() {
		if len(out) >= maxBatch {
			return nil, fmt.Errorf("batch exceeds the server's limit of %d", maxBatch)
		}
		tok, err := dec.Token()
		if err != nil {
			return nil, err
		}
		num, ok := tok.(json.Number)
		if !ok {
			return nil, fmt.Errorf("json: element %d is not a number", len(out))
		}
		v, err := strconv.ParseInt(num.String(), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("json: element %d: %v", len(out), err)
		}
		out = append(out, int(v))
	}
	_, err = dec.Token() // the closing ]
	return out, err
}

// decodeJSONFloatArray streams a float array, failing as soon as it exceeds
// maxBatch elements. A JSON null decodes to nil, like encoding/json.
func decodeJSONFloatArray(dec *json.Decoder, maxBatch int) ([]float64, error) {
	tok, err := dec.Token()
	if err != nil {
		return nil, err
	}
	if tok == nil {
		return nil, nil
	}
	if d, ok := tok.(json.Delim); !ok || d != '[' {
		return nil, fmt.Errorf("json: expected an array, got %v", tok)
	}
	out := []float64{}
	for dec.More() {
		if len(out) >= maxBatch {
			return nil, fmt.Errorf("batch exceeds the server's limit of %d", maxBatch)
		}
		tok, err := dec.Token()
		if err != nil {
			return nil, err
		}
		num, ok := tok.(json.Number)
		if !ok {
			return nil, fmt.Errorf("json: element %d is not a number", len(out))
		}
		v, err := num.Float64()
		if err != nil {
			return nil, fmt.Errorf("json: element %d: %v", len(out), err)
		}
		out = append(out, v)
	}
	_, err = dec.Token() // the closing ]
	return out, err
}

// handleSnapshotGet streams the synopsis as one binary envelope. The
// envelope is staged in memory first — synopses are O(k) numbers — so a
// capture error still maps to a clean HTTP status instead of a torn body.
// For immutable synopses the staged body is memoized on the registry entry,
// keyed by the published pointer: every GET between two hot-swaps serves the
// same preserialized bytes, and the atomic store that publishes a replacement
// is also what retires the cache. Mutable engines (anything that ingests) are
// never cached — their bytes change without a swap.
func (s *Server) handleSnapshotGet(w http.ResponseWriter, r *http.Request) {
	if since := r.URL.Query().Get("since"); since != "" {
		s.handleSnapshotDelta(w, r, since)
		return
	}
	name := r.PathValue("name")
	ent, ok := s.lookupEntry(name)
	if !ok {
		httpError(w, http.StatusNotFound, "no synopsis named %q", name)
		return
	}
	p := ent.ptr.Load()
	if p == nil {
		httpError(w, http.StatusNotFound, "no synopsis named %q", name)
		return
	}
	ent.stats.snapshots.Add(1)
	if c := ent.snap.Load(); c != nil && c.owner == p {
		writeSnapshotBody(w, c.body)
		return
	}
	sv := *p
	s.snapshotEncodes.Add(1)
	var buf bytes.Buffer
	if err := sv.snapshot(&buf); err != nil {
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	body := buf.Bytes()
	if _, mutable := sv.(ingester); !mutable {
		ent.snap.Store(&snapCache{owner: p, body: body})
	}
	writeSnapshotBody(w, body)
}

// writeSnapshotBody writes one complete snapshot envelope.
func writeSnapshotBody(w http.ResponseWriter, body []byte) {
	w.Header().Set("Content-Type", ContentSnapshot)
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	_, _ = w.Write(body)
}

// handleSnapshotPut replaces (or creates) the synopsis served under a name
// from a pushed binary envelope: decode and validate the complete
// replacement first, then publish it with one atomic pointer store.
// In-flight requests keep serving the object they already loaded. The body
// lands in a pooled wire buffer — on a replica syncing every few hundred
// milliseconds this is the hot path, and steady-state decode should recycle
// its scratch like the binary query paths do. A delta body (TagShardedDelta
// or TagShardedDeltaW) is dispatched to the delta-apply path instead of the
// decode-and-swap one.
func (s *Server) handleSnapshotPut(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxSnapshotBytes)
	wb := s.bufs.get()
	defer s.bufs.put(wb)
	req, err := readBodyInto(wb.req, body)
	wb.req = req
	if err != nil {
		status := http.StatusBadRequest
		var maxErr *http.MaxBytesError
		if errors.As(err, &maxErr) {
			status = http.StatusRequestEntityTooLarge
		}
		httpError(w, status, "%v", err)
		return
	}
	if len(req) >= 6 && [4]byte(req[:4]) == codec.Magic &&
		(req[5] == codec.TagShardedDelta || req[5] == codec.TagShardedDeltaW) {
		s.applyDelta(w, name, req)
		return
	}
	// The body must be exactly one envelope: Load reads one from a stream
	// and leaves the rest, but here the rest is part of the request.
	rest := bytes.NewReader(req)
	v, err := decodeAny(rest)
	if err == nil && rest.Len() > 0 {
		err = fmt.Errorf("serve: %d bytes after the snapshot envelope", rest.Len())
	}
	if err == nil {
		err = s.Host(name, v)
	}
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	sv, _ := s.lookup(name)
	writeJSON(w, struct {
		Name string `json:"name"`
		Kind string `json:"kind"`
	}{Name: name, Kind: sv.kind()})
}

// decodeJSONBody strictly decodes one JSON value, rejecting unknown fields,
// trailing garbage, and oversized bodies (the MaxBytesReader surfaces here
// as a read error).
func decodeJSONBody(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return fmt.Errorf("trailing data after JSON body")
	}
	return nil
}

// maxQueryBodyBytes bounds a query/ingest body: generous per-element worst
// cases (JSON renders a float64 in ≤ 25 bytes; two of those plus separators
// per range query) plus framing slack.
func maxQueryBodyBytes(maxBatch int) int64 {
	return int64(maxBatch)*64 + 4096
}
