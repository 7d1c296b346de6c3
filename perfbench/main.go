// Command perfbench is the end-to-end benchmark of `structura serve`. It
// builds a seeded 100k-node Erdős–Rényi store, launches the built binary
// over it, drives one workload over keep-alive TCP, checks the answers
// against an oracle, and prints every metric with its unit; the last line
// of its output is one JSON object. With --trace 1 it instead replays the
// workload in-process through each layer's public calls and reports the
// per-layer metrics. Run it through run.sh, which builds both binaries:
//
//	bash perfbench/run.sh --workload read-mix --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	defer killAll()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		killAll()
		os.Exit(1)
	}()

	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "", "workload: read-mix | write-churn | ingest")
		seed    = fs.Int64("seed", 1, "seed of the topology, the read mix and the mutation stream")
		seconds = fs.Float64("seconds", 20, "measured window in seconds")
		trace   = fs.Int("trace", 0, "1: traced in-process replay reporting per-layer metrics")
		bin     = fs.String("bin", "", "built structura binary")
		work    = fs.String("work", ".bench_build/work", "directory for the run's stores")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	if *bin == "" || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -bin, --seconds > 0 and --trace 0|1")
		return 2
	}
	if _, err := os.Stat(*bin); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	cfg := config{
		workload: w, seed: *seed, seconds: *seconds, trace: *trace == 1, nodes: servedNodes,
		launches: setupLaunches, restarts: measuredRestarts, bin: *bin, work: *work,
	}

	var res *result
	var err error
	defs := e2eMetrics
	if cfg.trace {
		res, err = runTrace(cfg)
		defs = layerMetrics
	} else {
		res, err = runE2E(cfg, nil)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %v\n", w.name, cfg.seed, err)
		return 1
	}
	if missing := report(os.Stdout, cfg, res, defs); missing != "" {
		fmt.Fprintf(os.Stderr, "perfbench: %s\n", missing)
		return 1
	}
	if len(res.errs) > 0 {
		return 1
	}
	return 0
}

// outcome is the last line of output.
type outcome struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints the run's metrics, diagnostics and oracle verdict, then the
// JSON line. It returns a complaint when a metric is missing or not a
// positive finite number (a per-layer metric may read 0 or less), and then
// prints no JSON line.
func report(out io.Writer, cfg config, res *result, defs []metricDef) string {
	p := func(format string, args ...any) { fmt.Fprintf(out, format+"\n", args...) }
	p("workload %s  seed %d  nodes %d  window %gs  trace %v", cfg.workload.name, cfg.seed, cfg.nodes, cfg.seconds, cfg.trace)
	p("why: %s", cfg.workload.why)
	for _, k := range sortedKeys(res.meta) {
		p("meta %s: %s", k, res.meta[k])
	}
	for _, k := range sortedKeys(res.diag) {
		p("diag %s: %.6g", k, res.diag[k])
	}
	for _, k := range sortedKeys(res.socketPass) {
		p("socket-pass %s: %.6g", k, res.socketPass[k])
	}
	failedFrac := 0.0
	if res.ops.attempted > 0 {
		failedFrac = float64(res.ops.failed) / float64(res.ops.attempted)
	}
	p("failed_frac %.6g ratio  (%d failed of %d attempted)", failedFrac, res.ops.failed, res.ops.attempted)
	if cfg.trace {
		p("%-34s %14s %-6s  %-48s %s", "per-layer metric", "value", "unit", "should move", "on")
	}
	o := outcome{Correct: len(res.errs) == 0, Attempted: res.ops.attempted, Failed: res.ops.failed,
		Metrics: map[string]metricValue{}}
	var missing []string
	for _, d := range defs {
		v, ok := res.metrics[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) || (!cfg.trace && v <= 0) {
			missing = append(missing, fmt.Sprintf("%s=%v", d.name, v))
			continue
		}
		if cfg.trace {
			p("%-34s %14.6g %-6s  %-48s %s", d.name, v, d.unit, d.moves, d.on)
		} else {
			p("metric %s %.6g %s", d.name, v, d.unit)
		}
		o.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	if cfg.trace {
		p("unplaced by the outside-in trace: server.socket_us %.4g us of read_p50_us %.4g us; writer.unexplained_ms %.4g ms of visible_p50_ms %.4g ms",
			res.metrics["server.socket_us"], res.readP50Us, res.metrics["writer.unexplained_ms"], res.visibleP50Ms)
	}
	for _, e := range res.errs {
		p("ORACLE MISMATCH: %s", e)
	}
	if o.Attempted < 1 {
		missing = append(missing, "no operation attempted")
	}
	if len(missing) > 0 {
		return "metrics missing or not positive: " + strings.Join(missing, ", ")
	}
	line, err := json.Marshal(o)
	if err != nil {
		return err.Error()
	}
	p("%s", line)
	return ""
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
