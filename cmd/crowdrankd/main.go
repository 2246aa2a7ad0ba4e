// Command crowdrankd is the long-running ranking daemon: it accepts vote
// batches over HTTP, journals them crash-safely, and serves rankings with
// deadline-aware degradation.
//
// Usage:
//
//	crowdrankd -n 100 -m 30 -journal votes.wal [-addr :8077] [-seed S]
//	           [-fsync always|os] [-parallelism P]
//	           [-snapshot-every N] [-max-journal-bytes M] [-snapshot-keep K]
//	           [-drain 10s] [-addr-file path]
//	           [-pprof addr] [-slow-request 1s]
//	           [-read-timeout 1m] [-write-timeout 2m] [-idle-timeout 2m]
//	           [-idempotency-window N]
//	           [-replicate-from URL] [-epoch-dir path] [-advertise URL]
//	           [-max-lag N]
//
// Endpoints:
//
//	POST /votes      {"votes":[{"worker":0,"i":3,"j":7,"prefers_i":true}]}
//	GET  /rank       ?deadline_ms=50 bounds inference; degraded answers
//	                 still return 200 and name the algorithm used
//	POST /snapshot   take a state snapshot now and compact the journal
//	GET  /metrics    Prometheus text exposition: ingest/rank counters,
//	                 per-stage latency histograms, journal and snapshot
//	                 timings, queue depths, breaker state, replication
//	                 role/epoch/lag
//	GET  /healthz    operational stats (journal/snapshot disk usage,
//	                 segment count, last snapshot, last sync error, ack
//	                 window occupancy/capacity, replication status)
//	GET  /readyz     503 once shutdown has begun, a disk fault has
//	                 poisoned the journal, or — on a follower — the
//	                 replication stream is detached or more than
//	                 -max-lag records behind
//	GET  /replicate/stream    leader: journal records from ?from=, then
//	                          live appends and heartbeats (follower API)
//	GET  /replicate/snapshot  leader: current state snapshot, for
//	                          bootstrapping an empty follower
//	POST /promote    bump the fencing epoch durably and take over as
//	                 leader (operator failover action)
//
// Replication: start a warm standby with -replicate-from pointing at the
// leader's base URL. The follower bootstraps from the leader's snapshot
// when its own store is empty, tails the journal stream (the leader sends
// each record as its journal appends it, and heartbeats while idle),
// serves reads, and answers ingest with 503 plus an X-Crowdrank-Leader
// hint. On leader loss, POST /promote on the survivor; the bumped epoch
// fences the old leader if it comes back. -advertise sets the URL handed
// out in hints (defaults to the bound address); -epoch-dir stores the
// fencing epoch (defaults to the journal directory).
//
// -pprof serves net/http/pprof on a SEPARATE listener (loopback it in
// production); profiling never shares the public API port. Requests
// slower than -slow-request are logged and counted in
// crowdrankd_http_slow_requests_total (negative disables).
//
// POST /votes takes one JSON object whose "votes" array holds objects
// with integer "worker", "i" and "j" and boolean "prefers_i" (prefers i
// over j). The daemon reads exactly what Go's encoding/json would decode
// into that shape: keys match case-insensitively, unknown members are
// skipped, null leaves a field at its zero value, a fraction or an
// exponent in an id is refused, and bytes after the object are ignored.
// Votes outside the universe (-n objects, -m workers), or comparing an
// object with itself, are counted as malformed and dropped. A body that
// is not such JSON is answered 400, and 413 has two causes: a body longer
// than 32 MiB, refused as soon as the cap is read past, and a batch of
// more than 65536 votes, refused once the body is read, naming its vote
// count. The body is decoded in one pass as it arrives, into 12-byte
// packed votes, and votes past the cap are only counted: a request
// allocates a 16 KiB pooled read buffer and at most 36 bytes per vote of
// the cap (2.3 MiB; a full batch of valid votes takes 768 KiB), whatever
// the body's size.
//
// Retried POST /votes batches carrying an Idempotency-Key header are
// acknowledged exactly once: a repeated key inside the last
// -idempotency-window batches (default 65536, negative disables) returns
// the original acknowledgement without re-applying, before and after a
// restart.
//
// SIGINT/SIGTERM triggers graceful shutdown: the listener stops, in-flight
// requests drain (bounded by -drain), and the journal is synced and closed.
// On restart the newest valid snapshot is loaded and only the journal
// segments past it replay; every acknowledged batch is recovered, and a
// torn tail from a crash is truncated and reported. A journal directory
// that is not writable refuses startup with a non-zero exit instead of
// failing on the first ingest.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"crowdrank"
	"crowdrank/internal/replica"
	"crowdrank/internal/serve"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "crowdrankd: %v\n", err)
		os.Exit(1)
	}
}

// run is main under test: it parses flags, starts the daemon, and blocks
// until the listener fails or ctx-from-signals is cancelled.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("crowdrankd", flag.ContinueOnError)
	fs.SetOutput(out)
	addr := fs.String("addr", "127.0.0.1:8077", "listen address")
	n := fs.Int("n", 0, "number of objects being ranked (required)")
	m := fs.Int("m", 0, "worker-pool size (required)")
	journalPath := fs.String("journal", "", "write-ahead journal directory (empty: in-memory, NOT crash-safe)")
	seed := fs.Uint64("seed", 0, "pipeline seed (0: drawn at startup)")
	fsync := fs.String("fsync", "always", "journal durability: always (fsync per ack) | os (page cache)")
	snapshotEvery := fs.Int("snapshot-every", 0, "snapshot+compact after this many acked batches (0: default 1024, negative: disable)")
	maxJournalBytes := fs.Int64("max-journal-bytes", 0, "snapshot+compact when the journal exceeds this many bytes (0: default 64MiB, negative: disable)")
	parallelism := fs.Int("parallelism", 0, "goroutines for Step 3's walk sums, the only parallel stage (0: sequential)")
	drain := fs.Duration("drain", 10*time.Second, "graceful-shutdown drain bound")
	addrFile := fs.String("addr-file", "", "write the bound address to this file once listening")
	pprofAddr := fs.String("pprof", "", "serve net/http/pprof on this separate address (empty: disabled)")
	slowReq := fs.Duration("slow-request", 0, "log requests slower than this (0: default 1s, negative: disable)")
	readTimeout := fs.Duration("read-timeout", time.Minute, "HTTP server read timeout (full request including body)")
	writeTimeout := fs.Duration("write-timeout", 2*time.Minute, "HTTP server write timeout (must exceed the rank deadline cap)")
	idleTimeout := fs.Duration("idle-timeout", 2*time.Minute, "HTTP keep-alive idle timeout")
	idemWindow := fs.Int("idempotency-window", 0, "batch acks remembered for exactly-once retries (0: default 65536, negative: disable)")
	snapshotKeep := fs.Int("snapshot-keep", 2, "on-disk snapshots retained after compaction (minimum 1)")
	replicateFrom := fs.String("replicate-from", "", "leader base URL to follow as a warm standby (empty: this node leads)")
	epochDir := fs.String("epoch-dir", "", "directory for the durable fencing epoch (empty: the journal directory)")
	advertise := fs.String("advertise", "", "base URL handed to clients as the leader hint (empty: http://<bound address>)")
	maxLag := fs.Uint64("max-lag", 0, "follower readiness threshold in records behind the leader (0: default 16)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *n < 1 || *m < 1 {
		return fmt.Errorf("-n and -m are required (got n=%d m=%d)", *n, *m)
	}
	if *snapshotKeep < 1 {
		return fmt.Errorf("-snapshot-keep must be >= 1 (the newest snapshot must survive pruning), got %d", *snapshotKeep)
	}

	cfg := crowdrank.DefaultServeConfig(*n, *m)
	cfg.JournalPath = *journalPath
	cfg.Seed = *seed
	cfg.SnapshotEveryBatches = *snapshotEvery
	cfg.SnapshotMaxJournalBytes = *maxJournalBytes
	cfg.Parallelism = *parallelism
	cfg.SlowRequestThreshold = *slowReq
	cfg.IdempotencyWindow = *idemWindow
	cfg.SnapshotKeep = *snapshotKeep
	if *writeTimeout > 0 && *writeTimeout <= serve.MaxDeadline {
		return fmt.Errorf("-write-timeout %v must exceed the rank deadline cap %v, or responses get cut mid-flight", *writeTimeout, serve.MaxDeadline)
	}
	switch *fsync {
	case "always":
		// cfg default
	case "os":
		cfg.JournalSync = crowdrank.JournalSyncOS
	default:
		return fmt.Errorf("-fsync must be always or os, got %q", *fsync)
	}
	cfg.Logf = func(format string, args ...any) {
		fmt.Fprintf(out, "crowdrankd: "+format+"\n", args...)
	}
	if *journalPath == "" {
		fmt.Fprintln(out, "crowdrankd: warning: no -journal; acknowledged votes will NOT survive a crash")
	}

	// An unwritable journal directory fails here — before the listener
	// binds — so the exit code, not the first acked ingest, is what breaks.
	if *journalPath != "" {
		if err := probeWritable(*journalPath); err != nil {
			return err
		}
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	rcfg := replica.Config{
		Self:     *advertise,
		Leader:   *replicateFrom,
		EpochDir: *epochDir,
		MaxLag:   *maxLag,
		Logf:     cfg.Logf,
	}
	if rcfg.Self == "" {
		rcfg.Self = "http://" + ln.Addr().String()
	}
	if rcfg.EpochDir == "" {
		// In-memory nodes (no journal) keep the epoch in memory too.
		rcfg.EpochDir = *journalPath
	}
	node, err := replica.Open(ctx, rcfg, cfg)
	if err != nil {
		//lint:ignore errcheck error-path cleanup of a listener nothing is serving yet
		_ = ln.Close()
		return err
	}
	srv := node.Server()
	if *journalPath != "" {
		fmt.Fprintf(out, "crowdrankd: recovery: %s (%d votes)\n", srv.Recovered(), srv.VoteCount())
	}
	if *addrFile != "" {
		// Written atomically so watchers never read a half-written address.
		tmp := *addrFile + ".tmp"
		if err := os.WriteFile(tmp, []byte(ln.Addr().String()), 0o644); err != nil {
			return err
		}
		if err := os.Rename(tmp, *addrFile); err != nil {
			return err
		}
	}
	fmt.Fprintf(out, "crowdrankd: serving n=%d m=%d seed=%d role=%s epoch=%d on %s\n", *n, *m, srv.Seed(), node.Role(), node.Epoch(), ln.Addr())
	if *replicateFrom != "" {
		fmt.Fprintf(out, "crowdrankd: replicating from %s (advertised as %s)\n", *replicateFrom, rcfg.Self)
	}

	if *pprofAddr != "" {
		pln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			return fmt.Errorf("pprof listener: %w", err)
		}
		pmux := http.NewServeMux()
		pmux.HandleFunc("/debug/pprof/", pprof.Index)
		pmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		pprofSrv := &http.Server{
			Handler:           pmux,
			ReadHeaderTimeout: 5 * time.Second,
			ReadTimeout:       *readTimeout,
			// Profile and trace streams run for their ?seconds= argument;
			// a write timeout sized for API responses would cut them off.
			WriteTimeout: 5 * time.Minute,
			IdleTimeout:  *idleTimeout,
		}
		defer func() {
			if err := pprofSrv.Close(); err != nil {
				fmt.Fprintf(out, "crowdrankd: closing pprof listener: %v\n", err)
			}
		}()
		//lint:ignore goroleak the pprof server's lifetime is the process: the deferred Close above reaps the goroutine on every run() exit path, and profiling must stay reachable through shutdown drains
		go func() {
			if err := pprofSrv.Serve(pln); err != nil && !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintf(out, "crowdrankd: pprof listener failed: %v\n", err)
			}
		}()
		fmt.Fprintf(out, "crowdrankd: pprof on http://%s/debug/pprof/\n", pln.Addr())
	}

	httpSrv := &http.Server{
		Handler:           node.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       *readTimeout,
		WriteTimeout:      *writeTimeout,
		IdleTimeout:       *idleTimeout,
	}
	// Follower streams live as long as their follower; Shutdown ends
	// them instead of waiting out the whole drain bound.
	httpSrv.RegisterOnShutdown(node.StopReplication)
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case err := <-serveErr:
		return fmt.Errorf("listener failed: %w", err)
	case <-ctx.Done():
	}
	stop() // a second signal kills immediately instead of waiting for drain
	fmt.Fprintln(out, "crowdrankd: shutting down (draining in-flight requests)")
	shutCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintf(out, "crowdrankd: shutdown: %v\n", err)
	}
	// Close stops the replication loop, drains anything Shutdown abandoned,
	// and performs the final journal sync; after this every acknowledged
	// batch is on disk.
	if err := node.Close(); err != nil {
		return err
	}
	fmt.Fprintln(out, "crowdrankd: journal synced, bye")
	return nil
}

// probeWritable verifies the journal directory can be created and written
// before the listener binds, mirroring the journal's own startup check.
func probeWritable(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("journal directory %s is not writable: %w", dir, err)
	}
	f, err := os.CreateTemp(dir, ".probe-*")
	if err != nil {
		return fmt.Errorf("journal directory %s is not writable: %w", dir, err)
	}
	name := f.Name()
	//lint:ignore errcheck the probe file carries no data worth flushing
	_ = f.Close()
	//lint:ignore errcheck best-effort cleanup of an empty probe file
	_ = os.Remove(name)
	return nil
}
