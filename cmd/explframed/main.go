// explframed serves ExplFrame campaigns as a long-running HTTP service.
//
// Usage:
//
//	explframed [-addr host:port] [-journal file] [-store dir] [-parallel n]
//
// The server accepts the same strict-JSON scenario and campaign specs the
// explframe CLI loads (POST /v1/campaigns), shards trials across a bounded
// worker fleet (the member specs of a campaign run one at a time, in
// declaration order), streams per-trial results as JSON lines
// (GET /v1/campaigns/{id}/stream), and checkpoints every completed trial
// to the append-only journal.  A killed or restarted server resumes
// unfinished campaigns from the journal without recomputing journaled
// trials; completed campaign tables persist in the store directory in the
// docs/results.json shape.  See `explframe submit` and `explframe watch`
// for the matching client.
//
// On SIGINT or SIGTERM the server shuts down gracefully: in-flight trials
// are cancelled via context, the final checkpoint is flushed, and the
// process exits 0.
//
// Exit codes: 0 clean shutdown, 1 server error, 2 usage error.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"explframe/internal/service"
)

// readHeaderTimeout caps how long a client may take to send its request
// headers, so a slow-header client cannot hold a connection open forever.
const readHeaderTimeout = 10 * time.Second

func main() { os.Exit(run(os.Args[1:])) }

// run is the testable body of main.
func run(args []string) int {
	fs := flag.NewFlagSet("explframed", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8750", "listen address")
	journal := fs.String("journal", "explframed.journal.jsonl",
		"append-only checkpoint journal; restarting on the same journal resumes unfinished campaigns")
	store := fs.String("store", "explframed-store",
		"directory completed campaign tables persist to (docs/results.json shape)")
	parallel := fs.Int("parallel", runtime.GOMAXPROCS(0),
		"trial workers per spec; results are identical at any value (deterministic per-trial streams)")
	switch err := fs.Parse(args); {
	case err == nil:
	case errors.Is(err, flag.ErrHelp):
		return 0
	default:
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "explframed: unexpected argument %q\n", fs.Arg(0))
		return 2
	}

	logger := log.New(os.Stderr, "explframed: ", log.LstdFlags)
	srv, err := service.New(service.Config{
		Journal:      *journal,
		Store:        *store,
		TrialWorkers: *parallel,
		Log:          logger,
	})
	if err != nil {
		logger.Print(err)
		return 1
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Print(err)
		srv.Shutdown()
		return 1
	}
	// Only the header read is bounded: campaign streams stay open for as
	// long as their trials run, so no write or idle deadline applies.
	hs := &http.Server{Handler: srv, ReadHeaderTimeout: readHeaderTimeout}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()
	logger.Printf("listening on http://%s (journal %s, store %s)", ln.Addr(), *journal, *store)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case <-ctx.Done():
		logger.Print("signal received, shutting down")
		// Cancel campaigns and flush the final checkpoint first, so the
		// still-attached streams end and the HTTP drain below is quick.
		if err := srv.Shutdown(); err != nil {
			logger.Print(err)
		}
		drain, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := hs.Shutdown(drain); err != nil {
			logger.Print(err)
		}
		logger.Print("journal flushed, bye")
		return 0
	case err := <-serveErr:
		logger.Print(err)
		srv.Shutdown()
		return 1
	}
}
