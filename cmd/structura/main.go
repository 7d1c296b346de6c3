// Command structura regenerates the paper's figures and quantitative
// claims as text tables.
//
// Usage:
//
//	structura list                 # list available experiments
//	structura all                  # run everything
//	structura fig3 fig4 tour       # run selected experiments
//	structura trace                # per-round kernel convergence traces
//	structura -seed 7 fig5         # override the deterministic seed
//	structura chaos -list          # fault-injection scenarios and invariants
//	structura chaos -scenario mis -loss 0.2 -seed 11   # chaos run + minimal repro
//	structura chaos -scenario mis -churn-add 1 -churn-remove 1 -seeds 1..8
//	structura heal -engine mis -seed 1 -rounds 200     # supervised self-healing run
//	structura heal -engine distvec -seeds 1..8 -compare
//	structura async -list                              # message-driven executor scenarios
//	structura async -scenario distvec -seed 3 -loss 0.1 -delay bimodal
//	structura async -scenario mis -seeds 1..8 -compare # sync-vs-async equivalence check
//	structura partition -nodes 1000000 -shards 8 -strategy degree-balanced
//	structura partition -shards 4 -delta -workers 2    # priced exchange per round
//	structura serve -nodes 100000 -addr :8372          # resident structure server
//	structura serve -nodes 10000 -loadgen 200000       # in-process throughput smoke
//	structura serve -data-dir p -repl-listen :9372     # primary serving the replication stream
//	structura serve -data-dir m -replicate-from host:9372  # follower: stale-ok reads + POST /promote
//	structura serve -data-dir m -promote               # failover takeover (fence bump)
//	structura replicate -store m                       # describe a store/mirror directory
//
// The global -cpuprofile/-memprofile flags work with every subcommand when
// placed before it:
//
//	structura -cpuprofile cpu.out partition -nodes 1000000 -shards 8
//	structura -memprofile mem.out fig3
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"structura"
)

func main() {
	args, prof, err := extractProfileFlags(os.Args[1:])
	if err == nil {
		if err = prof.start(); err == nil {
			err = run(args)
			if perr := prof.stop(); err == nil {
				err = perr
			}
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "structura:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) > 0 && args[0] == "chaos" {
		return runChaos(args[1:], os.Stdout)
	}
	if len(args) > 0 && args[0] == "heal" {
		return runHeal(args[1:], os.Stdout)
	}
	if len(args) > 0 && args[0] == "async" {
		return runAsync(args[1:], os.Stdout)
	}
	if len(args) > 0 && args[0] == "partition" {
		return runPartition(args[1:], os.Stdout)
	}
	if len(args) > 0 && args[0] == "serve" {
		return runServe(args[1:], os.Stdout)
	}
	if len(args) > 0 && args[0] == "replicate" {
		return runReplicate(args[1:], os.Stdout)
	}
	fs := flag.NewFlagSet("structura", flag.ContinueOnError)
	seed := fs.Int64("seed", 42, "deterministic experiment seed")
	format := fs.String("format", "text", "output format: text | json")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *format != "text" && *format != "json" {
		return fmt.Errorf("unknown format %q", *format)
	}
	ids := fs.Args()
	if len(ids) == 0 {
		fs.Usage()
		fmt.Fprintln(os.Stderr, "\nrun 'structura list' to see experiments")
		return fmt.Errorf("no experiments requested")
	}
	if len(ids) == 1 && ids[0] == "list" {
		for _, e := range structura.Experiments() {
			fmt.Printf("%-11s %-9s %-22s %s\n", e.ID, e.Strategy, e.PaperRef, e.Title)
		}
		return nil
	}
	if len(ids) == 1 && ids[0] == "all" {
		if *format == "json" {
			ids = nil
			for _, e := range structura.Experiments() {
				ids = append(ids, e.ID)
			}
		} else {
			return structura.RunAll(os.Stdout, *seed)
		}
	}
	type jsonExperiment struct {
		ID       string            `json:"id"`
		Title    string            `json:"title"`
		PaperRef string            `json:"paper_ref"`
		Tables   []structura.Table `json:"tables"`
	}
	var jsonOut []jsonExperiment
	for _, id := range ids {
		e, err := structura.LookupExperiment(id)
		if err != nil {
			return err
		}
		tables, err := e.Run(*seed)
		if err != nil {
			return err
		}
		if *format == "json" {
			jsonOut = append(jsonOut, jsonExperiment{
				ID: e.ID, Title: e.Title, PaperRef: e.PaperRef, Tables: tables,
			})
			continue
		}
		fmt.Printf("=== %s — %s (%s)\n", e.ID, e.Title, e.PaperRef)
		for _, t := range tables {
			if err := t.Render(os.Stdout); err != nil {
				return err
			}
		}
		fmt.Println()
	}
	if *format == "json" {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", " ")
		return enc.Encode(jsonOut)
	}
	return nil
}
