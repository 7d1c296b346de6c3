package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"structura/internal/gen"
	"structura/internal/graph"
	"structura/internal/heal"
	"structura/internal/replica"
	"structura/internal/server"
	"structura/internal/stats"
	"structura/internal/wal"
)

// readHeaderTimeout bounds how long a client may take to send a request's
// headers, readTimeout how long it may take to send the whole request,
// and idleTimeout how long a keep-alive connection may sit idle between
// requests, so a slow, stalled or abandoned client cannot pin a connection
// forever.
//
// readTimeout must still admit the largest body /mutate accepts,
// (QueueDepth+BatchMax+1)×128 B. At the default 4096-deep queue and 256-op
// batches that is 557,184 B, so 30 s refuses only a sender slower than
// about 19 KB/s, while a trickling slowloris body is cut off instead of
// holding its connection. The body bound grows with -queue and -batch-max;
// even a 100k-deep queue needs only about 430 KB/s.
const (
	readHeaderTimeout = 10 * time.Second
	readTimeout       = 30 * time.Second
	idleTimeout       = 120 * time.Second
)

// newHTTPServer is the one http.Server both the serve and replicate
// listeners use, with the hostile-client timeouts set.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout,
	}
}

// runServe is the `structura serve` subcommand: stand up the resident
// structure server over a generated or loaded topology, listen on -addr,
// and serve until ctx is cancelled. With -data-dir every mutation batch is
// journaled to a write-ahead log before it is applied, and a restart
// recovers the last committed state; the listener binds before recovery
// starts, answering 503 on every path until replay completes. Whatever the
// run acquired is released on every return, an error return included.
func runServe(ctx context.Context, args []string, out io.Writer) (err error) {
	fs := flag.NewFlagSet("structura serve", flag.ContinueOnError)
	var (
		nodes      = fs.Int("nodes", 10000, "nodes in the generated ER topology")
		avgDeg     = fs.Float64("avg-degree", 8, "average degree of the topology")
		seed       = fs.Int64("seed", 1, "deterministic topology seed")
		dest       = fs.Int("dest", 0, "destination node the route labels point toward")
		addr       = fs.String("addr", ":8372", "listen address")
		cds        = fs.Bool("cds", false, "maintain the CDS backbone (needs a connected graph; slow to build on large ones)")
		inflight   = fs.Int("max-inflight", 0, "concurrent query cap before 429 shed (0 = default)")
		queue      = fs.Int("queue", 0, "mutation queue depth (0 = default)")
		batchMax   = fs.Int("batch-max", 0, "max mutations folded into one epoch (0 = default)")
		maxK       = fs.Int("max-k", 0, "largest k accepted by /khop (0 = default)")
		maxRounds  = fs.Int("max-rounds", 0, "repair budget: max localized repair sweeps (0 = unbounded)")
		maxTouched = fs.Int("max-touched", 0, "repair budget: max nodes one repair may touch (0 = unbounded)")

		dataDir  = fs.String("data-dir", "", "WAL store directory: journal mutations and recover on restart")
		fsyncPol = fs.String("fsync", "batch", "WAL fsync policy: batch | interval | none")
		syncEvr  = fs.Int("sync-every", 0, "batches per fsync with -fsync=interval (0 = default)")
		compact  = fs.Int("compact-every", 0, "batches between snapshot compactions (0 = default, <0 disables)")
		loadFile = fs.String("load", "", "boot topology from a snapshot-codec graph file instead of generating")
		saveFile = fs.String("save", "", "write the final topology to a snapshot-codec graph file on shutdown")

		replListen = fs.String("repl-listen", "", "serve the replication stream to replicas on this address (requires -data-dir)")
		replFrom   = fs.String("replicate-from", "", "follow the primary at this address as a replica: mirror into -data-dir, serve stale-ok reads on -addr")
		promote    = fs.Bool("promote", false, "recover -data-dir under a bumped fencing token and serve as the new primary (failover takeover)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if (*replFrom != "" || *replListen != "" || *promote) && *dataDir == "" {
		return fmt.Errorf("-replicate-from, -repl-listen, and -promote all require -data-dir")
	}
	if *replFrom != "" && (*promote || *replListen != "") {
		return fmt.Errorf("-replicate-from runs a follower; it cannot combine with -promote or -repl-listen (promote a running replica via POST /promote)")
	}
	if *loadFile == "" && *nodes < 2 {
		return fmt.Errorf("need at least 2 nodes, got %d", *nodes)
	}

	var syncPolicy wal.SyncPolicy
	switch *fsyncPol {
	case "batch":
		syncPolicy = wal.SyncEachBatch
	case "interval":
		syncPolicy = wal.SyncInterval
	case "none":
		syncPolicy = wal.SyncNone
	default:
		return fmt.Errorf("-fsync must be batch, interval, or none, got %q", *fsyncPol)
	}
	walOpts := wal.Options{Sync: syncPolicy, SyncEvery: *syncEvr, CompactEvery: *compact}

	if *replFrom != "" {
		return runReplicaServe(ctx, *addr, *dataDir, *replFrom, replica.Options{
			WAL: walOpts, Dest: *dest, SkipCDS: !*cds,
		}, out)
	}

	// Bind before the (possibly slow) recovery so the port is reachable
	// immediately; the gate answers 503 until the server is up.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "listening on %s\n", ln.Addr())
	gate := server.NewGate()
	httpSrv := newHTTPServer(gate)
	errCh := make(chan error, 1)
	var serving sync.WaitGroup
	serving.Add(1)
	go func() {
		defer serving.Done()
		errCh <- httpSrv.Serve(ln)
	}()

	// The one release path, in reverse order of acquisition. The first error
	// wins; -save runs only after a clean stop, once the writer has exited.
	// Serve closes the listener on its way out, so the path waits for it: a
	// Shutdown that lands before Serve starts closes nothing itself.
	var (
		wlog *wal.Log
		srv  *server.Server
		repl *replica.Primary
	)
	defer func() {
		sdCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		keep := func(e error) {
			if err == nil {
				err = e
			}
		}
		if repl != nil {
			repl.Close()
		}
		var serr error
		if srv != nil {
			serr = srv.Shutdown(sdCtx)
		}
		switch {
		case serr != nil:
			// The writer may still be appending, so the log stays open.
			keep(fmt.Errorf("server shutdown: %w", serr))
		case wlog != nil:
			if cerr := wlog.Close(); cerr != nil {
				keep(fmt.Errorf("wal close: %w", cerr))
			}
		}
		if err == nil && *saveFile != "" {
			final := frozenToGraph(srv.Epoch().Topo)
			if serr := wal.SaveGraph(*saveFile, final); serr != nil {
				keep(fmt.Errorf("-save %s: %w", *saveFile, serr))
			} else {
				fmt.Fprintf(out, "saved %d node(s), %d edge(s) to %s\n", final.N(), final.M(), *saveFile)
			}
		}
		if herr := httpSrv.Shutdown(sdCtx); herr != nil && !errors.Is(herr, http.ErrServerClosed) {
			keep(fmt.Errorf("http shutdown: %w", herr))
		}
		serving.Wait()
	}()

	// Boot topology: snapshot file, else generated ER.
	var g *graph.Graph
	if *loadFile != "" {
		if g, err = wal.LoadGraph(*loadFile); err != nil {
			return fmt.Errorf("-load %s: %w", *loadFile, err)
		}
		fmt.Fprintf(out, "loaded %d node(s), %d edge(s) from %s\n", g.N(), g.M(), *loadFile)
	} else {
		g = gen.SparseErdosRenyi(stats.NewRand(*seed), *nodes, *avgDeg/float64(*nodes-1))
	}

	// Durability: open (recover) or create the WAL store. An existing store
	// wins over both -load and the generated topology — the journal is the
	// truth about what this service has acknowledged.
	cfg := server.Config{
		Dest: *dest, SkipCDS: !*cds,
		MaxInFlight: *inflight, QueueDepth: *queue, BatchMax: *batchMax, MaxK: *maxK,
		RepairBudget: heal.Budget{MaxRounds: *maxRounds, MaxTouched: *maxTouched},
	}
	if *dataDir != "" && *promote {
		l, rec, err := wal.Promote(*dataDir, walOpts)
		if err != nil {
			return fmt.Errorf("-promote %s: %w", *dataDir, err)
		}
		wlog = l
		g = l.Graph()
		cfg.WAL = l
		cfg.Recovered = &rec
		fmt.Fprintf(out, "promoted %s: batch %d, fence %d — a deposed primary's stream is now rejected\n",
			*dataDir, rec.Seq, l.Metrics().Fence)
	} else if *dataDir != "" {
		l, rec, created, err := wal.OpenOrCreate(*dataDir, g, walOpts)
		if err != nil {
			return fmt.Errorf("-data-dir %s: %w", *dataDir, err)
		}
		wlog = l
		g = l.Graph() // the log's replica is the one topology the server mutates
		cfg.WAL = l
		if created {
			fmt.Fprintf(out, "created store in %s at batch 0\n", *dataDir)
		} else {
			cfg.Recovered = &rec
			fmt.Fprintf(out, "recovered %s: batch %d (%d batch(es), %d record(s) replayed from the log)\n",
				*dataDir, rec.Seq, rec.Batches, rec.Replayed)
			if rec.Truncated() {
				fmt.Fprintf(out, "recovery truncated the log at offset %d: %s\n", rec.TruncatedAt, rec.Reason)
			}
		}
	}

	if srv, err = server.New(g, cfg); err != nil {
		return err
	}
	if cfg.Recovered != nil {
		// One-line recovery summary: how the process got back to ready.
		readyNs, labelNs, warm, healed := srv.ReadySummary()
		rec := cfg.Recovered
		labelSeq := uint64(0)
		if rec.Labels != nil {
			labelSeq = rec.Labels.Seq
		}
		fmt.Fprintf(out, "recovery summary: gen %d, %d record(s) replayed, label epoch %d, warm-start=%v (%d dirty healed), recovery %s, labels %s, ready %s\n",
			rec.Gen, rec.Replayed, labelSeq, warm, healed,
			time.Duration(rec.RecoveryNs).Round(time.Microsecond),
			time.Duration(labelNs).Round(time.Microsecond),
			time.Duration(readyNs).Round(time.Microsecond))
	}

	if *replListen != "" {
		if repl, err = replica.NewPrimary(wlog, *replListen, replica.PrimaryOptions{}); err != nil {
			return fmt.Errorf("-repl-listen %s: %w", *replListen, err)
		}
		fmt.Fprintf(out, "replication listener on %s\n", repl.Addr())
	}
	ep := srv.Epoch()
	fmt.Fprintf(out, "serving %d node(s), %d edge(s), dest %d, epoch %d\n",
		ep.Topo.N(), ep.Topo.M(), ep.Labels.Destination(), ep.Seq)

	gate.SetReady(srv.Handler())
	fmt.Fprintln(out, "ready")
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	fmt.Fprintln(out, "shutting down")
	return nil
}

// frozenToGraph materializes a mutable graph from an epoch's topology —
// what -save persists when the process exits.
func frozenToGraph(c wal.Topology) *graph.Graph {
	n := c.N()
	var g *graph.Graph
	if c.Directed() {
		g = graph.NewDirected(n)
	} else {
		g = graph.New(n)
	}
	for u := 0; u < n; u++ {
		ws := c.NeighborWeights(u)
		for i, v := range c.Neighbors(u) {
			if c.Directed() || u < int(v) {
				_ = g.AddWeightedEdge(u, int(v), ws[i])
			}
		}
	}
	return g
}
