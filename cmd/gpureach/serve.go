package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"gpureach/internal/serve"
)

// runServe is the `gpureach serve` subcommand: the sweep engine as a
// long-running campaign service. Submit matrix specs over HTTP,
// stream per-run progress, fetch aggregates byte-identical to the CLI
// sweep's; overlapping campaigns share the content-addressed cache
// and coalesce duplicate in-flight cells. SIGTERM/SIGINT drains
// gracefully: in-flight runs finish and are journaled, interrupted
// campaigns stay resumable with `gpureach sweep -resume`.
func runServe(args []string) {
	fs := flag.NewFlagSet("gpureach serve", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:8787", "listen address (host:port; port 0 picks a free port)")
	data := fs.String("data", "serve-data", "service root: cache/ (shared results) and campaigns/<id>/ (journal + aggregates)")
	procs := fs.Int("procs", 0, "shared worker pool size (default: GOMAXPROCS)")
	queue := fs.Int("queue", 8, "max campaigns queued or running before submissions get 429 + Retry-After")
	retries := fs.Int("retries", 3, "max attempts per run on simulation errors")
	fs.Parse(args)

	cfg := serve.Config{
		DataDir: *data, Procs: *procs,
		MaxCampaigns: *queue, MaxAttempts: *retries,
	}

	srv, err := serve.New(cfg)
	if err != nil {
		fatalf("%v", err)
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatalf("serve: %v", err)
	}
	// The listen line goes to stdout so scripts can discover the
	// port (-addr :0) by parsing it.
	fmt.Printf("serve: listening on http://%s (data dir %s)\n", ln.Addr(), *data)

	hs := &http.Server{Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case got := <-sig:
		fmt.Fprintf(os.Stderr, "serve: %v — draining (in-flight runs finish, journals flush)\n", got)
	case err := <-errc:
		fatalf("serve: %v", err)
	}

	srv.Drain()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "serve: shutdown: %v\n", err)
	}
	interrupted := 0
	for _, c := range srv.Campaigns() {
		if c.State() == serve.StateInterrupted {
			interrupted++
			fmt.Fprintf(os.Stderr, "serve: campaign %s interrupted — resume with: gpureach sweep -resume -out %s\n",
				c.ID, c.Dir)
		}
	}
	fmt.Fprintf(os.Stderr, "serve: drained (%d campaigns, %d interrupted)\n", len(srv.Campaigns()), interrupted)
}
