package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call the benchmark made into a module, or one request
// as the client or the server-side handler wrapper saw it.
type span struct {
	id, parent int64 // parent 0: a root span
	req        int64 // request id shared by a request's client and handler spans; 0: none
	name       string
	start, end int64 // nanoseconds since the tracer's epoch
}

// tracer keeps every span of the traced pass in memory; they are written
// out once the run ends. A nil *tracer records nothing, so untraced code
// paths call the same methods.
type tracer struct {
	epoch time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// newID reserves a span id, so children can name their parent before the
// parent span ends.
func (t *tracer) newID() int64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// add records a finished span under a reserved id (0 reserves one).
func (t *tracer) add(id, parent, req int64, name string, start, end time.Time) {
	if t == nil {
		return
	}
	if id == 0 {
		id = t.ids.Add(1)
	}
	s := span{id: id, parent: parent, req: req, name: name,
		start: start.Sub(t.epoch).Nanoseconds(), end: end.Sub(t.epoch).Nanoseconds()}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// snapshot returns the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// durs returns the durations of the spans with the given name.
func durs(spans []span, name string) durations {
	var d durations
	for _, s := range spans {
		if s.name == name {
			d = append(d, time.Duration(s.end-s.start))
		}
	}
	return d
}

// handlerDurs returns the durations of the named handler spans that belong
// to timed requests (set-up requests carry no request id).
func handlerDurs(spans []span, name string) durations {
	var d durations
	for _, s := range spans {
		if s.name == name && s.req != 0 {
			d = append(d, time.Duration(s.end-s.start))
		}
	}
	return d
}

// byReq maps request id to the duration of the named span carrying it.
func byReq(spans []span, name string) map[int64]time.Duration {
	m := map[int64]time.Duration{}
	for _, s := range spans {
		if s.name == name && s.req != 0 {
			m[s.req] = time.Duration(s.end - s.start)
		}
	}
	return m
}

// transport returns, per request, the client span minus the handler span
// of the same request: time spent outside the server's handler.
func transport(spans []span, client, handler string) durations {
	h := byReq(spans, handler)
	var d durations
	for _, s := range spans {
		if s.name != client || s.req == 0 {
			continue
		}
		if hd, ok := h[s.req]; ok {
			d = append(d, time.Duration(s.end-s.start)-hd)
		}
	}
	return d
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its child spans cover.
func selfTimes(spans []span) map[int64]int64 {
	kids := map[int64][][2]int64{}
	for _, s := range spans {
		if s.parent != 0 {
			kids[s.parent] = append(kids[s.parent], [2]int64{s.start, s.end})
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		iv := kids[s.id]
		sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
		covered, curS, curE := int64(0), int64(0), int64(-1)
		for _, c := range iv {
			lo, hi := max(c[0], s.start), min(c[1], s.end)
			if hi <= lo {
				continue
			}
			if lo > curE {
				if curE > curS {
					covered += curE - curS
				}
				curS, curE = lo, hi
			} else if hi > curE {
				curE = hi
			}
		}
		if curE > curS {
			covered += curE - curS
		}
		self[s.id] = s.end - s.start - covered
	}
	return self
}

// writeTrace writes the spans as JSON lines to <prefix>.spans.jsonl and the
// per-layer metrics, the environment and a per-name busy/self summary to
// <prefix>.layers.json.
func writeTrace(prefix string, t *tracer, layers map[string]metric, env envInfo) error {
	spans := t.snapshot()
	self := selfTimes(spans)
	f, err := os.Create(prefix + ".spans.jsonl")
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	var b []byte
	type agg struct {
		Count int64   `json:"count"`
		BusyS float64 `json:"busy_s"`
		SelfS float64 `json:"self_s"`
	}
	names := map[string]*agg{}
	for _, s := range spans {
		b = b[:0]
		b = append(b, `{"name":`...)
		b = strconv.AppendQuote(b, s.name)
		b = append(b, `,"id":`...)
		b = strconv.AppendInt(b, s.id, 10)
		b = append(b, `,"parent":`...)
		b = strconv.AppendInt(b, s.parent, 10)
		b = append(b, `,"req":`...)
		b = strconv.AppendInt(b, s.req, 10)
		b = append(b, `,"start_ns":`...)
		b = strconv.AppendInt(b, s.start, 10)
		b = append(b, `,"end_ns":`...)
		b = strconv.AppendInt(b, s.end, 10)
		b = append(b, `,"self_ns":`...)
		b = strconv.AppendInt(b, self[s.id], 10)
		b = append(b, "}\n"...)
		if _, err := w.Write(b); err != nil {
			f.Close()
			return err
		}
		a := names[s.name]
		if a == nil {
			a = &agg{}
			names[s.name] = a
		}
		a.Count++
		a.BusyS += float64(s.end-s.start) / 1e9
		a.SelfS += float64(self[s.id]) / 1e9
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	doc, err := json.MarshalIndent(struct {
		Env     envInfo           `json:"env"`
		Metrics map[string]metric `json:"metrics"`
		Spans   map[string]*agg   `json:"spans"`
	}{env, layers, names}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(prefix+".layers.json", append(doc, '\n'), 0o644)
}
