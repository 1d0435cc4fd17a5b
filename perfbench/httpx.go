package main

import (
	"bytes"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"time"
)

// reqIDHeader carries the client span's id to the handler wrapper, which
// records its own span under the same request id.
const reqIDHeader = "X-Request-Id"

// httpServer is one in-process HTTP server on a loopback port.
type httpServer struct {
	srv  *http.Server
	done chan error
	base string
}

func startServer(h http.Handler) (*httpServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &httpServer{srv: &http.Server{Handler: h}, done: make(chan error, 1), base: "http://" + ln.Addr().String()}
	go func() { s.done <- s.srv.Serve(ln) }()
	return s, nil
}

// close stops the server and waits for its accept loop to return.
func (s *httpServer) close() {
	_ = s.srv.Close() // Close only reports listener errors, which Serve already returned
	<-s.done
}

// tracedHandler wraps h so every request records a handler span named by
// name(r), joined to the client span through the request-id header.
func tracedHandler(t *tracer, h http.Handler, name func(*http.Request) string) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, _ := strconv.ParseInt(r.Header.Get(reqIDHeader), 10, 64)
		start := time.Now()
		h.ServeHTTP(w, r)
		t.add(0, req, req, name(r), start, time.Now())
	})
}

// conn is one load client: its own transport, so its own keep-alive
// connection, used by one goroutine at a time.
type conn struct {
	tr   *http.Transport
	hc   *http.Client
	resp bytes.Buffer
}

func newConn() *conn {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &conn{tr: tr, hc: &http.Client{Transport: tr}}
}

func (c *conn) close() { c.tr.CloseIdleConnections() }

// post sends body and returns the status and the response body, which is
// valid until the next call. reqID, when non-zero, is sent in the
// request-id header.
func (c *conn) post(url, contentType string, body []byte, reqID int64) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", contentType)
	if reqID != 0 {
		req.Header.Set(reqIDHeader, strconv.FormatInt(reqID, 10))
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	c.resp.Reset()
	_, err = c.resp.ReadFrom(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return resp.StatusCode, nil, fmt.Errorf("reading response: %w", err)
	}
	return resp.StatusCode, c.resp.Bytes(), nil
}
