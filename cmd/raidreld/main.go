// Command raidreld is the reliability-as-a-service daemon: a long-running
// HTTP/JSON server that accepts Monte Carlo campaign requests, schedules
// them over a bounded pool of concurrent campaigns, memoizes results by
// the campaign config fingerprint (a million users asking about the same
// few thousand RAID configs hit cached confidence intervals, not the
// simulation engines), streams live progress over SSE, and merges sharded
// campaigns bit-exactly.
//
// Usage:
//
//	raidreld [-addr :8321] [-max-concurrent 4] [-workers 0]
//	         [-checkpoint-dir DIR] [-drain-timeout 30s]
//
// With -checkpoint-dir set, every in-flight campaign checkpoints after
// each batch; SIGTERM drains gracefully — running campaigns stop at their
// next batch boundary with checkpoints current — and a restarted daemon
// resumes a resubmitted spec from where the previous process stopped.
//
// A job may ask for at most 2^40 iterations (a sharded job's total
// included), about a month of simulation; a larger count is a 400.
//
// API (see README for curl examples):
//
//	POST   /v1/jobs            submit a campaign spec
//	GET    /v1/jobs            list jobs
//	GET    /v1/jobs/{id}        status + latest progress
//	GET    /v1/jobs/{id}/result final result with the sparse event index
//	GET    /v1/jobs/{id}/stream live progress (SSE)
//	DELETE /v1/jobs/{id}        cancel
//	POST   /v1/merge           merge completed shard jobs
//	GET    /healthz, /metrics  health and counters
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"raidrel/internal/service"
)

// Server timeouts bound what a slow or stalled client can hold open: the
// request headers, the whole request (bodies are capped at 1 MiB by the
// service, so a healthy client sends one in far less), and an idle
// keep-alive connection.
const (
	readHeaderTimeout = 10 * time.Second
	readTimeout       = 30 * time.Second
	idleTimeout       = 2 * time.Minute
)

// newHTTPServer wraps h in the daemon's http.Server with its timeouts.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout,
		// No WriteTimeout: an SSE progress stream stays open as long as
		// its campaign runs, which no fixed write deadline can bound.
	}
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "raidreld:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("raidreld", flag.ContinueOnError)
	addr := fs.String("addr", ":8321", "listen address")
	maxConcurrent := fs.Int("max-concurrent", service.DefaultMaxConcurrent, "campaigns simulated concurrently")
	workers := fs.Int("workers", 0, "sim workers per campaign (0 = GOMAXPROCS)")
	checkpointDir := fs.String("checkpoint-dir", "", "directory for per-job campaign checkpoints (empty = no checkpointing)")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "graceful-drain budget on SIGTERM")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *checkpointDir != "" {
		if err := os.MkdirAll(*checkpointDir, 0o755); err != nil {
			return fmt.Errorf("-checkpoint-dir: %w", err)
		}
	}

	svc := service.New(service.Options{
		MaxConcurrent: *maxConcurrent,
		Workers:       *workers,
		CheckpointDir: *checkpointDir,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	srv := newHTTPServer(svc.Handler())
	fmt.Fprintf(out, "raidreld: listening on %s\n", ln.Addr())

	errc := make(chan error, 1)
	go func() {
		if err := srv.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
			errc <- err
			return
		}
		errc <- nil
	}()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}

	// Graceful drain: refuse new submissions, cancel running campaigns at
	// their next batch boundary (checkpoints stay current), then close the
	// listener once in-flight requests finish.
	fmt.Fprintf(out, "raidreld: draining (budget %s)\n", *drainTimeout)
	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	drainErr := svc.Drain(dctx)
	shutdownErr := srv.Shutdown(dctx)
	if drainErr != nil {
		return drainErr
	}
	if shutdownErr != nil {
		return shutdownErr
	}
	fmt.Fprintln(out, "raidreld: drained, all in-flight campaigns checkpointed")
	return nil
}
