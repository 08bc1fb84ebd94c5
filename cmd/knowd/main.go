// Command knowd runs the knowledge-serving daemon: an HTTP/JSON service
// over the model-checking stack that keeps per-session announcement
// chains warm between requests. See internal/server for the API and the
// robustness contract (admission control, idempotency dedupe, panic
// recovery, graceful drain).
//
// knowd follows the repository's shared flag conventions: -seed pins
// every seeded draw (scenario fault sampling for sessions opened without
// an explicit seed) and -parallel caps EvalBatch workers (0 forces the
// serial loop, <0 uses one worker per core).
//
// SIGTERM or SIGINT drains gracefully: intake stops, in-flight requests
// finish, and — when -state is set — session chains are persisted to
// sessions.json and restored on the next start.
//
// Usage:
//
//	knowd -addr 127.0.0.1:7433 -seed 1 -parallel -1 -state /var/lib/knowd
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"os/signal"
	"strconv"
	"syscall"
	"time"

	"repro/internal/kripke"
	"repro/internal/server"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "knowd:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("knowd", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:7433", "listen address")
	seed := fs.Int64("seed", 1, "seed for scenario sessions opened without an explicit seed")
	parallel := fs.Int("parallel", -1,
		"evaluation worker cap per request (0 forces the serial loop, <0 uses one worker per core)")
	queue := fs.Int("queue", 64, "concurrent compute slots before load shedding (429)")
	dedupe := fs.Int("dedupe", 256, "idempotency keys remembered by the dedupe window")
	sessionTTL := fs.Duration("session-ttl", 15*time.Minute, "idle session eviction age")
	state := fs.String("state", "", "directory for session persistence across drains (empty disables)")
	writeThrough := fs.Bool("write-through", false,
		"persist session state after every mutation, not only on drain (crash-survivable; needs -state)")
	drain := fs.Duration("drain", 30*time.Second, "graceful shutdown deadline")
	quiet := fs.Bool("quiet", false, "suppress operational logging")
	if err := fs.Parse(args); err != nil {
		return err
	}

	logf := log.New(os.Stderr, "knowd: ", log.LstdFlags).Printf
	if *quiet {
		logf = nil
	}
	if *writeThrough && *state == "" {
		return fmt.Errorf("-write-through needs -state")
	}
	// A fresh incarnation stamp every boot: session ids minted by a
	// crashed-and-restarted knowd can never alias the previous process's,
	// and routers watching /healthz see the generation change.
	bootID := strconv.FormatInt(time.Now().UnixNano()^int64(os.Getpid()), 36)
	if bootID[0] == '-' {
		bootID = bootID[1:]
	}
	s := server.New(server.Config{
		Seed:         *seed,
		Workers:      kripke.WorkersFromFlag(*parallel),
		Queue:        *queue,
		DedupeWindow: *dedupe,
		SessionTTL:   *sessionTTL,
		StateDir:     *state,
		WriteThrough: *writeThrough,
		BootID:       bootID,
		Logf:         logf,
	})
	// Catch SIGTERM before restoring and listening, so one that arrives in
	// between is drained like any other instead of killing the process.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, os.Interrupt)
	defer signal.Stop(sigc)

	if *state != "" {
		restored, err := s.LoadSessions()
		if err != nil {
			return err
		}
		if restored > 0 {
			fmt.Fprintf(out, "knowd: restored %d sessions from %s\n", restored, *state)
		}
	}

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "knowd: listening on %s (seed %d)\n", l.Addr(), *seed)

	served := make(chan error, 1)
	go func() { served <- s.Serve(l) }()
	select {
	case err := <-served:
		return err
	case sig := <-sigc:
		fmt.Fprintf(out, "knowd: %v: draining\n", sig)
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			return err
		}
		if err := <-served; err != nil {
			return err
		}
		fmt.Fprintln(out, "knowd: drained cleanly")
		return nil
	}
}
