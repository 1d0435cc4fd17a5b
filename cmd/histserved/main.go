// Command histserved serves synopses over HTTP: host checkpoint files
// and/or fresh streaming intake engines, then answer point/range queries,
// ingest update batches, and replicate snapshots.
//
// Usage:
//
//	histserved -addr :8157 \
//	    -load latency=latency_v1.bin \         # restore any snapshot file
//	    -load col=estimator_v1.bin \
//	    -sharded events=1000000,64 \           # fresh intake engine: n,k[,shards[,bufcap]]
//	    -windowed recent=1000000,64,24 \       # sliding-window engine: n,k,epochs[,shards[,bufcap]]
//	    -advance-interval 1h \                 # seal every -windowed engine's epoch hourly
//	    -wal /var/lib/histserved \             # make intake engines crash-safe
//	    -replicate events \                    # fan events out to the replicas below
//	    -replica http://replica1:8157 \
//	    -replica http://replica2:8157
//
// With -replicate set, the daemon ships version-vector deltas of the named
// engine to every -replica on the -replicate-interval cadence: only shards
// that changed since a replica's last sync travel, replicas at the same
// coordinates share one memoized encode, and a restarted primary or replica
// self-heals through an automatic full resync. Per-replica lag, sync, and
// byte counters appear on /metrics (histapprox_replica_* families).
//
// With -wal set, every -sharded and -windowed engine is write-ahead logged
// under <dir>/<name>: acknowledged ingests (and epoch seals) survive a crash
// (per the -sync-every group-commit policy), periodic checkpoints bound the
// log, and a restart with the same flags recovers each engine — snapshot
// restored, log tail replayed — before the listener accepts traffic (GET
// /readyz flips to 200 when recovery is done). SIGINT/SIGTERM drains
// in-flight requests, flushes the logs, cuts a final checkpoint, and exits 0.
//
// Endpoints (see the package documentation of repro's serving layer):
//
//	GET  /v1                        list hosted synopses
//	GET  /v1/{name}/at?x=42         one point query
//	POST /v1/{name}/at              batch point queries (JSON or binary body)
//	GET  /v1/{name}/range?a=1&b=99  one range query
//	     ...&window=6&halflife=12   windowed/decayed answers (-windowed engines)
//	POST /v1/{name}/range           batch range queries
//	POST /v1/{name}/add             ingest updates (streaming engines)
//	GET  /v1/{name}/snapshot        download the binary snapshot
//	PUT  /v1/{name}/snapshot        hot-swap from a pushed snapshot
//	GET  /metrics                   Prometheus scrape (ingest, WAL, checkpoints)
//	GET  /healthz                   liveness (always 200)
//	GET  /readyz                    readiness (503 until recovery finishes)
//
// Snapshots are the library's versioned binary envelopes, so files written
// by one process (or fetched from another histserved) restore directly.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	_ "net/http/pprof" // profiling handlers, exposed only behind -pprof
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	histapprox "repro"
)

// nameValue parses a repeatable "name=value" flag.
func nameValue(raw, flagName string) (name, value string, err error) {
	name, value, ok := strings.Cut(raw, "=")
	if !ok || name == "" || value == "" {
		return "", "", fmt.Errorf("-%s wants name=value, got %q", flagName, raw)
	}
	return name, value, nil
}

// loopbackHostPort renders a bound listener address as something dialable:
// a wildcard host (":8157" listens on every interface) is rewritten to
// loopback, since the replicator's primary client runs in this process.
func loopbackHostPort(a net.Addr) string {
	host, port, err := net.SplitHostPort(a.String())
	if err != nil {
		return a.String()
	}
	if ip := net.ParseIP(host); host == "" || (ip != nil && ip.IsUnspecified()) {
		host = "127.0.0.1"
	}
	return net.JoinHostPort(host, port)
}

// engineSpec is one -sharded or -windowed engine: epochs is 0 for
// -sharded and at least 1 for -windowed.
type engineSpec struct {
	name                         string
	n, k, epochs, shards, bufcap int
}

// parseEngine parses a -sharded value (name=n,k[,shards[,bufcap]]) or a
// -windowed value (name=n,k,epochs[,shards[,bufcap]]).
func parseEngine(flagName, raw string) (engineSpec, error) {
	name, value, err := nameValue(raw, flagName)
	if err != nil {
		return engineSpec{}, err
	}
	windowed := flagName == "windowed"
	form, required := "n,k[,shards[,bufcap]]", 2
	if windowed {
		form, required = "n,k,epochs[,shards[,bufcap]]", 3
	}
	parts := strings.Split(value, ",")
	if len(parts) < required || len(parts) > required+2 {
		return engineSpec{}, fmt.Errorf("want name=%s", form)
	}
	var nums [5]int // n, k, epochs, shards, bufcap
	for i, p := range parts {
		if !windowed && i >= 2 {
			i++ // a -sharded value has no epochs field
		}
		if nums[i], err = strconv.Atoi(strings.TrimSpace(p)); err != nil {
			return engineSpec{}, err
		}
	}
	if windowed && nums[2] < 1 {
		return engineSpec{}, fmt.Errorf("window of %d epochs (want ≥ 1)", nums[2])
	}
	return engineSpec{name, nums[0], nums[1], nums[2], nums[3], nums[4]}, nil
}

// hostEngine opens the engine sp describes and hosts it on srv: in memory,
// or write-ahead logged under <walBase>/<name> when walBase is set, with
// d's sync and checkpoint policies. It returns the boot log's line, the
// engine's Advance when it is windowed, and the durable engine to close at
// shutdown (nil in memory).
func hostEngine(srv *histapprox.SynopsisServer, sp engineSpec, walBase string, d histapprox.DurabilityOptions) (desc string, advance func() error, durable *histapprox.DurableShardedHistogram, err error) {
	windowed := sp.epochs > 0
	kind := "sharded"
	if windowed {
		kind = fmt.Sprintf("windowed epochs=%d", sp.epochs)
	}
	var engine interface{ Advance() error }
	if walBase == "" {
		var s *histapprox.ShardedHistogram
		if windowed {
			s, err = histapprox.NewWindowedShardedMaintainer(sp.n, sp.k, sp.epochs, sp.shards, sp.bufcap, nil)
		} else {
			s, err = histapprox.NewShardedMaintainer(sp.n, sp.k, sp.shards, sp.bufcap, nil)
		}
		if err != nil {
			return "", nil, nil, err
		}
		engine, desc = s, fmt.Sprintf("%s (%s n=%d k=%d shards=%d)", sp.name, kind, sp.n, sp.k, s.Shards())
	} else {
		d.Dir, d.WindowEpochs = filepath.Join(walBase, sp.name), sp.epochs
		if durable, err = histapprox.OpenDurableShardedMaintainer(sp.n, sp.k, sp.shards, sp.bufcap, nil, d); err != nil {
			return "", nil, nil, fmt.Errorf("opening durable engine %q in %s: %w", sp.name, d.Dir, err)
		}
		engine, desc = durable, fmt.Sprintf("%s (durable %s, wal=%s", sp.name, kind, d.Dir)
		if n := durable.Replayed(); n > 0 {
			desc += fmt.Sprintf(", replayed %d WAL records", n)
		}
		desc += ")"
		// Recovery keeps the checkpointed shape, whatever the flag says, and
		// a plain engine would fail every epoch seal.
		if windowed && !durable.Windowed() {
			err = fmt.Errorf("-windowed %s: the WAL in %s holds a non-windowed engine", sp.name, d.Dir)
		}
	}
	if err == nil {
		err = srv.Host(sp.name, engine)
	}
	if err != nil {
		if durable != nil {
			durable.Close()
		}
		return "", nil, nil, err
	}
	if windowed {
		advance = engine.Advance
	}
	return desc, advance, durable, nil
}

// onListen, when non-nil, receives the bound listener address before the
// server starts accepting — the e2e test's handle on a :0 port.
var onListen func(net.Addr)

func main() {
	log.SetFlags(0)
	log.SetPrefix("histserved: ")
	if err := run(os.Args[1:]); err != nil {
		log.Fatal(err)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("histserved", flag.ContinueOnError)
	addr := fs.String("addr", ":8157", "listen address")
	workers := fs.Int("workers", 1, "per-request batch fan-out (≤ 0 = all cores; 1 is usually best under concurrent load)")
	maxBatch := fs.Int("max-batch", 0, "max queries/updates per request body (0 = default)")
	pprofAddr := fs.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060; empty = off)")
	walDir := fs.String("wal", "", "write-ahead log base directory; each -sharded and -windowed engine persists under <dir>/<name> (empty = in-memory only)")
	syncEvery := fs.Int("sync-every", 0, "fsync the WAL at least every N appended records (1 = before every ingest returns; 0 = default)")
	ckptEvery := fs.Int("checkpoint-every", 0, "checkpoint after N logged ingest calls (0 = default, negative = count-based checkpoints off)")
	ckptInterval := fs.Duration("checkpoint-interval", 0, "also checkpoint on this wall-clock period (0 = off)")

	replName := fs.String("replicate", "", "fan this hosted engine out to every -replica on a cadence (requires ≥ 1 -replica)")
	replInterval := fs.Duration("replicate-interval", time.Second, "delta sync cadence for -replicate")
	advanceInterval := fs.Duration("advance-interval", 0, "seal every -windowed engine's live epoch on this wall-clock period (0 = only external seals)")

	var loads, replicas []string
	fs.Func("load", "host a snapshot file as name=path (repeatable)", func(raw string) error {
		loads = append(loads, raw)
		return nil
	})
	// Engine flags are parsed as they are read, so a bad value fails the
	// boot before any engine opens or any WAL directory is touched.
	var specs []engineSpec
	engineFlag := func(name, usage string) {
		fs.Func(name, usage, func(raw string) error {
			sp, err := parseEngine(name, raw)
			specs = append(specs, sp)
			return err
		})
	}
	engineFlag("sharded", "host a fresh sharded intake engine as name=n,k[,shards[,bufcap]] (repeatable)")
	engineFlag("windowed", "host a fresh sliding-window sharded engine as name=n,k,epochs[,shards[,bufcap]] with epochs ≥ 1; query with ?window= / ?halflife= (repeatable)")
	fs.Func("replica", "replica base URL for -replicate, e.g. http://host:8158 (repeatable)", func(raw string) error {
		replicas = append(replicas, raw)
		return nil
	})
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *replName != "" && len(replicas) == 0 {
		return fmt.Errorf("-replicate %s needs at least one -replica", *replName)
	}
	if *replName == "" && len(replicas) > 0 {
		return fmt.Errorf("-replica given without -replicate")
	}

	srv := histapprox.NewSynopsisServer(&histapprox.ServeConfig{Workers: *workers, MaxBatch: *maxBatch})
	// Not ready until every engine is hosted — with a WAL that includes
	// recovery replay, which a load balancer must wait out.
	srv.SetReady(false)

	var hosted []string
	// closers are the durable engines to flush on shutdown, closed in
	// reverse hosting order.
	var closers []*histapprox.DurableShardedHistogram

	for _, raw := range loads {
		name, path, err := nameValue(raw, "load")
		if err != nil {
			return err
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		err = srv.Load(name, f)
		f.Close()
		if err != nil {
			return fmt.Errorf("loading %s: %w", path, err)
		}
		hosted = append(hosted, name+" ("+path+")")
	}
	durability := histapprox.DurabilityOptions{
		SyncEvery:          *syncEvery,
		CheckpointEvery:    *ckptEvery,
		CheckpointInterval: *ckptInterval,
	}
	// advancers are the windowed engines the -advance-interval ticker seals.
	var advancers []func() error
	for _, sp := range specs {
		desc, advance, durable, err := hostEngine(srv, sp, *walDir, durability)
		if err != nil {
			return err
		}
		if durable != nil {
			closers = append(closers, durable)
		}
		if advance != nil {
			advancers = append(advancers, advance)
		}
		hosted = append(hosted, desc)
	}
	if *advanceInterval > 0 && len(advancers) == 0 {
		return fmt.Errorf("-advance-interval given without any -windowed engine")
	}
	if len(hosted) == 0 {
		log.Print("warning: nothing hosted at boot; push snapshots via PUT /v1/{name}/snapshot")
	}
	for _, h := range hosted {
		log.Printf("hosting %s", h)
	}
	srv.SetReady(true)

	if *pprofAddr != "" {
		// The blank net/http/pprof import registers its handlers on
		// http.DefaultServeMux, which the query listener never uses — the
		// profiling surface stays on its own (typically loopback-only) port.
		go func() {
			log.Printf("pprof listening on %s", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				log.Printf("pprof server: %v", err)
			}
		}()
	}

	// Catch the shutdown signals before the listener is announced: a
	// SIGTERM arriving between the two would otherwise take the default
	// action and kill the process without draining.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	if onListen != nil {
		onListen(ln.Addr())
	}
	httpSrv := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	serveErr := make(chan error, 1)
	go func() {
		log.Printf("listening on %s", ln.Addr())
		serveErr <- httpSrv.Serve(ln)
	}()

	// Replication fan-out: the primary client points at our own bound
	// listener (so it works with -addr :0), the replicas at their URLs.
	var repl *histapprox.SynopsisReplicator
	if *replName != "" {
		primary := histapprox.NewServeClient("http://"+loopbackHostPort(ln.Addr()), nil, true)
		members := make([]*histapprox.ServeClient, len(replicas))
		for i, base := range replicas {
			members[i] = histapprox.NewServeClient(base, nil, true)
			members[i].Retries = 2
			members[i].RetryBackoff = 50 * time.Millisecond
		}
		repl, err = histapprox.NewSynopsisReplicator(*replName, primary, members, *replInterval)
		if err != nil {
			return err
		}
		srv.AttachReplicator(repl)
		repl.Start()
		log.Printf("replicating %s to %s every %s", *replName, strings.Join(replicas, ", "), *replInterval)
	}

	// Epoch ticker: wall-clock epochs for the windowed engines. Sealing is
	// cheap (one drain + compaction per shard), so one goroutine serves all.
	var advanceStop chan struct{}
	if *advanceInterval > 0 {
		advanceStop = make(chan struct{})
		go func() {
			ticker := time.NewTicker(*advanceInterval)
			defer ticker.Stop()
			for {
				select {
				case <-ticker.C:
					for _, adv := range advancers {
						if err := adv(); err != nil {
							log.Printf("sealing windowed epoch: %v", err)
						}
					}
				case <-advanceStop:
					return
				}
			}
		}()
		log.Printf("sealing windowed epochs every %s", *advanceInterval)
	}

	select {
	case err := <-serveErr:
		return err
	case s := <-sig:
		log.Printf("%s: shutting down", s)
	}
	// Stop intake first: drain in-flight requests (new connections are
	// refused), THEN flush and checkpoint the durable engines — after the
	// drain no ingest can race the final checkpoint.
	srv.SetReady(false)
	if repl != nil {
		repl.Stop()
		// The replicator's clients use http.DefaultClient, and one of them
		// dials our own listener. A connection it dialed but never used sits
		// on that listener unread, which Shutdown only reclaims once it is
		// 5 s old, the whole drain budget below; close such connections from
		// the client side first.
		http.DefaultClient.CloseIdleConnections()
	}
	if advanceStop != nil {
		close(advanceStop)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		return err
	}
	for i := len(closers) - 1; i >= 0; i-- {
		if err := closers[i].Close(); err != nil {
			return fmt.Errorf("closing durable engine: %w", err)
		}
	}
	log.Print("clean shutdown: WAL flushed, final checkpoint committed")
	return nil
}
