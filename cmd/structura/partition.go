package main

import (
	"flag"
	"fmt"
	"io"
	"time"

	"structura/internal/gen"
	"structura/internal/partition"
	"structura/internal/runtime"
	"structura/internal/stats"
)

// runPartition is the `structura partition` subcommand: generate a sparse ER
// graph, split it into edge-cut shards, report the partition quality (cut
// fraction, ghost fraction, imbalance), and run the distributed-max workload
// on the round kernel, reporting rounds/sec and the exchange a sharded
// deployment would ship (partition.Run's cost model).
func runPartition(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("structura partition", flag.ContinueOnError)
	var (
		nodes    = fs.Int("nodes", 100_000, "graph size (sparse Erdős–Rényi)")
		degree   = fs.Float64("degree", 10, "expected degree")
		shards   = fs.Int("shards", 8, "shard count")
		strategy = fs.String("strategy", "contiguous", "boundary placement: contiguous | degree-balanced")
		rounds   = fs.Int("rounds", 15, "round budget for the workload")
		delta    = fs.Bool("delta", false, "run the workload on the delta-frontier path")
		workers  = fs.Int("workers", 0, "kernel worker count (0 = automatic)")
		seed     = fs.Int64("seed", 1, "graph generation seed")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	var strat partition.Strategy
	switch *strategy {
	case "contiguous":
		strat = partition.Contiguous
	case "degree-balanced":
		strat = partition.DegreeBalanced
	default:
		return fmt.Errorf("unknown strategy %q (want contiguous | degree-balanced)", *strategy)
	}
	if *nodes < 2 {
		return fmt.Errorf("need at least 2 nodes, got %d", *nodes)
	}

	g := gen.SparseErdosRenyi(stats.NewRand(*seed), *nodes, *degree/float64(*nodes-1))
	csr, err := g.FreezeChecked()
	if err != nil {
		return err
	}
	plan, err := partition.New(csr, *shards, partition.WithStrategy(strat))
	if err != nil {
		return err
	}
	ps := plan.Stats()
	fmt.Fprintf(out, "partition: %d nodes, %d edges -> %d %s shards\n",
		ps.Nodes, ps.Edges, ps.Shards, strat)
	fmt.Fprintf(out, "  cut edges      %10d  (%.2f%% of edges)\n", ps.CutEdges, 100*ps.CutFraction)
	fmt.Fprintf(out, "  ghost replicas %10d  (%.2f%% of nodes)\n", ps.Ghosts, 100*ps.GhostFraction)
	fmt.Fprintf(out, "  owned range    %10d .. %d nodes/shard\n", ps.MinOwned, ps.MaxOwned)
	fmt.Fprintf(out, "  edge imbalance %13.3f  (max shard half-edges / mean)\n", ps.Imbalance)

	init := func(v int) int { return v * 2654435761 % 1_000_003 }
	maxStep := func(v int, self int, nbrs []int) (int, bool) {
		best := self
		for _, nb := range nbrs {
			if nb > best {
				best = nb
			}
		}
		return best, best != self
	}
	opts := []runtime.Option{runtime.WithMaxRounds(*rounds), runtime.WithParallelism(*workers)}
	if *delta {
		opts = append(opts, runtime.WithDelta())
	}
	start := time.Now()
	_, st, es, err := partition.Run(plan, init, maxStep, nil, opts...)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	mode := "full"
	if *delta {
		mode = "delta"
	}
	fmt.Fprintf(out, "workload: distributed-max, %s mode, -workers %d (0 = automatic)\n", mode, *workers)
	fmt.Fprintf(out, "  rounds         %10d  in %v  (%.2f rounds/sec)\n",
		st.Rounds, elapsed.Round(time.Millisecond), float64(st.Rounds)/elapsed.Seconds())
	fmt.Fprintf(out, "  exchange       %12.0f values/round  %.0f bytes/round  (max round %d values)\n",
		es.ValuesPerRound(), es.BytesPerRound(), es.MaxRoundValues)
	return nil
}
