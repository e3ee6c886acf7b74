// Command meshsortd is the trial-serving daemon: it exposes the batched
// Monte-Carlo core over HTTP (see internal/serve) with a bounded job
// queue, a content-addressed result cache, Prometheus-text /metrics, and
// graceful drain on SIGINT/SIGTERM.
//
// Usage:
//
//	meshsortd [-addr 127.0.0.1:8080] [-portfile FILE]
//	          [-concurrency 2] [-queue 64] [-trial-workers 0]
//	          [-job-timeout 60s] [-cache 512] [-max-trials N] [-max-cells N]
//	          [-store DIR]
//	          [-peers host:p1,host:p2] [-fabric-min-trials 256]
//	          [-fabric-shard-trials 0] [-fabric-attempts 3]
//	          [-drain-timeout 2m] [-drain-grace 500ms] [-log-level info]
//
// With -addr host:0 the kernel picks a free port; -portfile writes the
// bound port as decimal text so scripts (make serve-smoke) can find it.
//
// With -peers the daemon coordinates a distributed trial fabric
// (internal/fabric): jobs and campaign cells with at least
// -fabric-min-trials trials are split into contiguous shards and fanned
// out across the listed worker daemons, with retry/requeue on peer
// failure and local fallback when the fleet is unreachable. Results are
// bit-identical to a single-node run, so the cache, store, and payload
// bytes are unaffected. Every daemon is always a fabric worker: the
// /v1/fabric/shard endpoint serves shards whether or not -peers is set.
//
// With -store DIR the daemon opens the durable content-addressed result
// store (internal/store) in DIR: executed payloads persist write-behind,
// cache misses read through to disk, and the /v1/campaigns endpoints
// accept resumable sweep campaigns, whose cells run one at a time as
// jobs. Without it the daemon is memory-only and campaigns answer 503.
//
// Shutdown sequence on signal: stop accepting jobs (503), wait until every
// queued and running job finished (bounded by -drain-timeout), keep the
// listener up for -drain-grace so pollers collect their results, then
// close the listener. In-flight long-poll requests are waited for by the
// final HTTP shutdown, so no finished result is dropped.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/fabric"
	"repro/internal/serve"
	"repro/internal/store"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("meshsortd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr         = fs.String("addr", "127.0.0.1:8080", "listen address (port 0 picks a free port)")
		portfile     = fs.String("portfile", "", "write the bound port to this file")
		concurrency  = fs.Int("concurrency", 0, "jobs executing simultaneously (0 = default 2)")
		queue        = fs.Int("queue", 0, "queued-job backlog before 429 (0 = default 64)")
		trialWorkers = fs.Int("trial-workers", 0, "mcbatch workers per job (0 = GOMAXPROCS)")
		jobTimeout   = fs.Duration("job-timeout", 0, "per-job execution deadline (0 = default 60s)")
		cacheSize    = fs.Int("cache", 0, "result-cache entries (0 = default 512)")
		maxTrials    = fs.Int("max-trials", 0, "largest trials value a job may request (0 = default)")
		maxCells     = fs.Int("max-cells", 0, "largest rows*cols a job may request (0 = default)")
		storeDir     = fs.String("store", "", "durable result-store directory (empty = memory-only, no campaigns)")
		peers        = fs.String("peers", "", "comma-separated worker daemons to fan trials out to (empty = no fabric)")
		fabricMin    = fs.Int("fabric-min-trials", 0, "smallest job routed through the fabric (0 = default 256)")
		fabricShard  = fs.Int("fabric-shard-trials", 0, "trials per fabric shard, rounded up to 64 (0 = auto)")
		fabricTries  = fs.Int("fabric-attempts", 0, "remote attempts per shard before local fallback (0 = default 3)")
		drainTimeout = fs.Duration("drain-timeout", 2*time.Minute, "bound on waiting for in-flight jobs at shutdown")
		drainGrace   = fs.Duration("drain-grace", 500*time.Millisecond, "listener grace after drain so pollers fetch results")
		logLevel     = fs.String("log-level", "info", "log level: debug, info, warn or error")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "meshsortd: unexpected arguments %q\n", fs.Args())
		return 2
	}
	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		fmt.Fprintf(stderr, "meshsortd: bad -log-level %q\n", *logLevel)
		return 2
	}
	logger := slog.New(slog.NewTextHandler(stderr, &slog.HandlerOptions{Level: level}))

	var st *store.Store
	if *storeDir != "" {
		var err error
		st, err = store.Open(*storeDir)
		if err != nil {
			fmt.Fprintln(stderr, "meshsortd:", err)
			return 1
		}
		// Closed after the listener stops: every write-behind put is
		// covered by Drain/Close, which the shutdown path runs first.
		defer st.Close()
		stats := st.Stats()
		logger.Info("store open", "dir", *storeDir,
			"entries", stats.Entries, "live_bytes", stats.LiveBytes,
			"recovered_bytes", stats.RecoveredBytes)
	}

	var coord *fabric.Coordinator
	if *peers != "" {
		var peerList []string
		for _, p := range strings.Split(*peers, ",") {
			if p = strings.TrimSpace(p); p != "" {
				peerList = append(peerList, p)
			}
		}
		coord = fabric.New(fabric.Config{
			Peers:       peerList,
			ShardTrials: *fabricShard,
			MaxAttempts: *fabricTries,
			Logger:      logger,
		})
		defer coord.Close()
		logger.Info("fabric coordinator up", "peers", len(peerList))
	}

	srv := serve.NewServer(serve.Config{
		Concurrency:     *concurrency,
		QueueDepth:      *queue,
		TrialWorkers:    *trialWorkers,
		JobTimeout:      *jobTimeout,
		CacheEntries:    *cacheSize,
		Limits:          serve.Limits{MaxTrials: *maxTrials, MaxCells: *maxCells},
		Store:           st,
		Logger:          logger,
		Fabric:          coord,
		FabricMinTrials: *fabricMin,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(stderr, "meshsortd:", err)
		return 1
	}
	if *portfile != "" {
		port := ln.Addr().(*net.TCPAddr).Port
		if err := os.WriteFile(*portfile, []byte(strconv.Itoa(port)+"\n"), 0o644); err != nil {
			fmt.Fprintln(stderr, "meshsortd:", err)
			return 1
		}
	}

	hs := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()
	fmt.Fprintf(stdout, "meshsortd listening on %s\n", ln.Addr())
	logger.Info("meshsortd up", "addr", ln.Addr().String())

	select {
	case err := <-serveErr:
		fmt.Fprintln(stderr, "meshsortd:", err)
		return 1
	case <-ctx.Done():
	}

	logger.Info("signal received, draining")
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Drain(drainCtx); err != nil {
		logger.Error("drain timed out, forcing shutdown", "err", err)
		srv.Close()
	}
	time.Sleep(*drainGrace)

	shutdownCtx, cancel2 := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel2()
	if err := hs.Shutdown(shutdownCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Error("http shutdown", "err", err)
		return 1
	}
	logger.Info("meshsortd stopped cleanly")
	return 0
}
