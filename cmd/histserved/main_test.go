package main

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	histapprox "repro"
)

// jsonDecode decodes one JSON response body and closes it.
func jsonDecode(r *http.Response, v any) error {
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d", r.StatusCode)
	}
	return json.NewDecoder(r.Body).Decode(v)
}

// startDaemon runs the daemon in-process on a random port and returns its
// base URL plus the channel run's error arrives on.
func startDaemon(t *testing.T, args []string) (string, chan error) {
	t.Helper()
	addrCh := make(chan net.Addr, 1)
	onListen = func(a net.Addr) { addrCh <- a }
	t.Cleanup(func() { onListen = nil })
	done := make(chan error, 1)
	go func() { done <- run(append([]string{"-addr", "127.0.0.1:0"}, args...)) }()
	select {
	case a := <-addrCh:
		return "http://" + a.String(), done
	case err := <-done:
		t.Fatalf("daemon exited before listening: %v", err)
		return "", nil
	case <-time.After(10 * time.Second):
		t.Fatal("daemon never started listening")
		return "", nil
	}
}

// TestGracefulShutdown is the end-to-end drain test: boot a durable daemon,
// ingest through HTTP, SIGTERM it, and prove (a) run returns nil — exit 0 —
// and (b) recovering the WAL directory finds a final checkpoint holding
// every acknowledged update, with no log tail left to replay.
func TestGracefulShutdown(t *testing.T) {
	dir := t.TempDir()
	base, done := startDaemon(t, []string{
		"-sharded", "ev=1000,6,2,32",
		"-wal", dir, "-sync-every", "1", "-checkpoint-every", "1000",
	})

	if resp, err := http.Get(base + "/readyz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz: %v %v", resp, err)
	}
	const calls = 20
	for i := 0; i < calls; i++ {
		body := fmt.Sprintf(`{"points":[%d,%d,%d]}`, 1+i%1000, 1+(i*7)%1000, 1+(i*13)%1000)
		resp, err := http.Post(base+"/v1/ev/add", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("ingest %d: status %d", i, resp.StatusCode)
		}
	}
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: status %d", resp.StatusCode)
	}

	// The daemon catches SIGTERM via signal.Notify, so delivering it to our
	// own process exercises the real shutdown path without a subprocess.
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown returned %v, want nil (exit 0)", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("daemon did not shut down after SIGTERM")
	}

	// The listener must actually be closed.
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Fatal("daemon still serving after shutdown")
	}

	rec, err := histapprox.RecoverDurableShardedMaintainer(histapprox.DurabilityOptions{
		Dir: dir + "/ev", CheckpointEvery: -1,
	})
	if err != nil {
		t.Fatalf("recovering after clean shutdown: %v", err)
	}
	defer rec.Close()
	if n := rec.Replayed(); n != 0 {
		t.Errorf("clean shutdown left %d WAL records to replay, want 0 (final checkpoint)", n)
	}
	st := rec.Stats()
	if got, want := st.Ingest.Updates, calls*3; got != want {
		t.Errorf("recovered %d updates, want %d", got, want)
	}
	if got, want := st.WAL.LastSeq, uint64(calls); got != want {
		t.Errorf("recovered WAL seq %d, want %d", got, want)
	}
}

// TestDaemonWindowedEngine boots a durable windowed engine with an epoch
// ticker, ingests, answers windowed and decayed queries over HTTP, rejects
// malformed knobs, and keeps the window across a restart.
func TestDaemonWindowedEngine(t *testing.T) {
	dir := t.TempDir()
	args := []string{
		"-windowed", "rec=1000,6,4,2,32",
		"-advance-interval", "25ms",
		"-wal", dir, "-sync-every", "1",
	}
	base, done := startDaemon(t, args)
	resp, err := http.Post(base+"/v1/rec/add", "application/json",
		strings.NewReader(`{"points":[5,5,7],"weights":[2,2,3]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: status %d", resp.StatusCode)
	}
	// Windowed and decayed answers are 200s; the full-history mass includes
	// the ingest regardless of how many epochs the ticker has sealed so far.
	var out struct {
		Value float64 `json:"value"`
	}
	r, err := http.Get(base + "/v1/rec/range?a=1&b=1000&window=4&halflife=2")
	if err != nil {
		t.Fatal(err)
	}
	if err := jsonDecode(r, &out); err != nil {
		t.Fatal(err)
	}
	r, err = http.Get(base + "/v1/rec/range?a=1&b=1000")
	if err != nil {
		t.Fatal(err)
	}
	if err := jsonDecode(r, &out); err != nil {
		t.Fatal(err)
	}
	if out.Value != 7 {
		t.Errorf("full-history mass = %v, want 7", out.Value)
	}
	// Malformed knobs are client errors.
	for _, q := range []string{"window=0", "window=abc", "window=99", "halflife=-1"} {
		r, err := http.Get(base + "/v1/rec/range?a=1&b=1000&" + q)
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != http.StatusBadRequest {
			t.Errorf("?%s: status %d, want 400", q, r.StatusCode)
		}
	}
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("first shutdown: %v", err)
	}

	// Restart on the same WAL: recovery restores the windowed shape, so
	// windowed queries keep answering (a plain engine would 400).
	base, done = startDaemon(t, args)
	r, err = http.Get(base + "/v1/rec/range?a=1&b=1000&window=1")
	if err != nil {
		t.Fatal(err)
	}
	if err := jsonDecode(r, &out); err != nil {
		t.Fatalf("windowed query after restart: %v", err)
	}
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("second shutdown: %v", err)
	}
}

// TestDaemonRestartRecovers boots, ingests, shuts down cleanly, then boots
// AGAIN on the same WAL directory and checks the served answers include the
// first life's updates.
func TestDaemonRestartRecovers(t *testing.T) {
	dir := t.TempDir()
	args := []string{
		"-sharded", "ev=1000,6,2,32",
		"-wal", dir, "-sync-every", "1",
	}
	base, done := startDaemon(t, args)
	resp, err := http.Post(base+"/v1/ev/add", "application/json",
		strings.NewReader(`{"points":[5,5,5],"weights":[2,2,2]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: status %d", resp.StatusCode)
	}
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("first shutdown: %v", err)
	}

	base, done = startDaemon(t, args)
	r, err := http.Get(base + "/v1/ev/range?a=1&b=1000")
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		Value float64 `json:"value"`
	}
	if err := jsonDecode(r, &out); err != nil {
		t.Fatal(err)
	}
	if out.Value != 6 {
		t.Errorf("total mass after restart = %v, want 6", out.Value)
	}
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("second shutdown: %v", err)
	}
}

// bootError runs the daemon and returns the error that stopped its boot. A
// daemon that boots instead is shut down and fails the test.
func bootError(t *testing.T, args []string) error {
	t.Helper()
	listening := make(chan net.Addr, 1)
	onListen = func(a net.Addr) { listening <- a }
	defer func() { onListen = nil }()
	done := make(chan error, 1)
	go func() { done <- run(append([]string{"-addr", "127.0.0.1:0"}, args...)) }()
	select {
	case err := <-done:
		return err
	case <-listening:
		if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		<-done
		t.Fatalf("%v: the daemon booted, want a boot error", args)
		return nil
	}
}

// TestWindowedFlagNeedsEpochs: a -windowed engine needs a window of at least
// one epoch with or without -wal, and a bad value fails the boot before the
// WAL directory is touched. A -windowed engine whose WAL holds a plain
// engine is refused too, rather than failing every epoch seal.
func TestWindowedFlagNeedsEpochs(t *testing.T) {
	dir := t.TempDir()
	engineDir := filepath.Join(dir, "rec")
	for _, args := range [][]string{
		{"-windowed", "rec=1000,6,0"},
		{"-windowed", "rec=1000,6,0", "-wal", dir},
		{"-windowed", "rec=1000,6,-2,2,32", "-wal", dir},
	} {
		if err := bootError(t, args); !strings.Contains(err.Error(), "epochs") {
			t.Errorf("%v: %v, want an error about the window's epochs", args, err)
		}
		if _, err := os.Stat(engineDir); !os.IsNotExist(err) {
			t.Fatalf("%v touched %s: %v", args, engineDir, err)
		}
	}

	plain, err := histapprox.OpenDurableShardedMaintainer(1000, 6, 2, 32, nil, histapprox.DurabilityOptions{Dir: engineDir})
	if err != nil {
		t.Fatal(err)
	}
	if err := plain.Close(); err != nil {
		t.Fatal(err)
	}
	args := []string{"-windowed", "rec=1000,6,4", "-wal", dir}
	if err := bootError(t, args); !strings.Contains(err.Error(), "non-windowed") {
		t.Errorf("%v over a plain engine's WAL: %v, want an error naming the non-windowed engine", args, err)
	}
}
