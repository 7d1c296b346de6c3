package main

import (
	"context"
	"encoding/json"
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

	"structura/internal/replica"
	"structura/internal/wal"
)

// runReplicaServe is `structura serve -replicate-from`: follow a primary's
// replication stream, mirror it durably into the store directory, and serve
// degraded stale-ok reads (plus POST /promote for failover) on addr. The
// process keeps serving its mirrored state even when the primary dies or
// turns out to be deposed — that is exactly when an operator promotes it.
func runReplicaServe(addr, dir, from string, opts replica.Options, out io.Writer) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "listening on %s\n", ln.Addr())

	r, err := replica.New(dir, from, opts)
	if err != nil {
		return err
	}
	httpSrv := newHTTPServer(r.Handler())
	httpErr := make(chan error, 1)
	go func() { httpErr <- httpSrv.Serve(ln) }()

	fmt.Fprintf(out, "replica: mirroring %s into %s, stale-ok reads ready\n", from, dir)
	runErr := make(chan error, 1)
	go func() { runErr <- r.Run() }()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	for {
		select {
		case err := <-httpErr:
			return err
		case err := <-runErr:
			runErr = nil // keep serving; a nil channel never fires again
			switch {
			case errors.Is(err, replica.ErrDeposed):
				fmt.Fprintln(out, "configured primary is deposed (lower fence); serving mirrored state, promotable")
			case err != nil:
				fmt.Fprintf(out, "follow loop stopped: %v; serving mirrored state\n", err)
			default:
				// Stop or promotion via POST /promote.
			}
			continue
		case <-ctx.Done():
		}
		break
	}

	fmt.Fprintln(out, "shutting down")
	r.Stop()
	sdCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if srv := r.PromotedServer(); srv != nil {
		if err := srv.Shutdown(sdCtx); err != nil {
			return fmt.Errorf("promoted server shutdown: %w", err)
		}
		if err := r.PromotedLog().Close(); err != nil {
			return fmt.Errorf("promoted wal close: %w", err)
		}
	}
	if err := httpSrv.Shutdown(sdCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		return fmt.Errorf("http shutdown: %w", err)
	}
	return nil
}

// runReplicate is the `structura replicate` status subcommand: describe a
// store or mirror directory without mutating it — generation, fencing token,
// committed batch, label epoch, and what a recovery would reconstruct.
func runReplicate(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("structura replicate", flag.ContinueOnError)
	store := fs.String("store", "", "store or mirror directory to describe")
	asJSON := fs.Bool("json", false, "emit the description as JSON")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *store == "" {
		return fmt.Errorf("-store is required")
	}
	info, err := wal.Inspect(nil, *store)
	if err != nil {
		return fmt.Errorf("inspect %s: %w", *store, err)
	}
	if *asJSON {
		enc := json.NewEncoder(out)
		enc.SetIndent("", " ")
		return enc.Encode(info)
	}
	fmt.Fprintf(out, "store:       %s\n", info.Dir)
	fmt.Fprintf(out, "generation:  %d (fence %d)\n", info.Gen, info.Fence)
	fmt.Fprintf(out, "snapshot:    %s (batch %d)\n", info.SnapName, info.SnapSeq)
	fmt.Fprintf(out, "log:         %s (%d byte(s))\n", info.LogName, info.LogBytes)
	fmt.Fprintf(out, "recoverable: batch %d, %d record(s), %d node(s)\n", info.Seq, info.Records, info.Nodes)
	if info.HasLabels {
		fmt.Fprintf(out, "label epoch: batch %d (warm start covers batches ≤ %d; later batches heal dirty)\n",
			info.LabelSeq, info.LabelSeq)
	} else {
		fmt.Fprintln(out, "label epoch: none (recovery recomputes labels)")
	}
	if info.Truncated {
		fmt.Fprintf(out, "torn tail:   %s\n", info.TruncateNote)
	}
	return nil
}
