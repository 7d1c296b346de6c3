package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
)

var (
	buildOnce sync.Once
	builtBin  string
	buildErr  error
	buildDir  string
)

// serveBinary builds structura once per test binary.
func serveBinary(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		buildDir, buildErr = os.MkdirTemp("", "perfbench-bin-")
		if buildErr != nil {
			return
		}
		builtBin = filepath.Join(buildDir, "structura")
		out, err := exec.Command("go", "build", "-o", builtBin, "structura/cmd/structura").CombinedOutput()
		if err != nil {
			buildErr = err
			builtBin = string(out)
		}
	})
	if buildErr != nil {
		t.Fatalf("build structura: %v\n%s", buildErr, builtBin)
	}
	return builtBin
}

func TestMain(m *testing.M) {
	code := m.Run()
	if buildDir != "" {
		os.RemoveAll(buildDir)
	}
	os.Exit(code)
}

func tinyConfig(t *testing.T, name string) config {
	w, ok := findWorkload(name)
	if !ok {
		t.Fatalf("no workload %s", name)
	}
	return config{
		workload: w, seed: 3, seconds: 0.5, nodes: 300, launches: 2, restarts: 1,
		bin: serveBinary(t), work: t.TempDir(),
	}
}

// A short pass of every workload on a tiny graph against the built binary:
// every end-to-end metric is reported, nothing fails, the oracle passes.
func TestEveryWorkloadEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("launches the server binary")
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			cfg := tinyConfig(t, w.name)
			res, err := runE2E(cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			var out bytes.Buffer
			if msg := report(&out, cfg, res, e2eMetrics); msg != "" {
				t.Fatalf("%s\n%s", msg, out.String())
			}
			o := lastLine(t, out.String())
			if !o.Correct || o.Failed != 0 || o.Attempted < 1 || len(o.Metrics) != len(e2eMetrics) {
				t.Fatalf("outcome %+v\n%s", o, out.String())
			}
		})
	}
}

// A served answer that disagrees with the mirror fails the run: the JSON
// line says correct=false.
func TestOracleMismatchFailsTheRun(t *testing.T) {
	if testing.Short() {
		t.Skip("launches the server binary")
	}
	cfg := tinyConfig(t, "read-mix")
	e, err := newE2E(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	if err := e.setup(); err != nil {
		t.Fatal(err)
	}
	// The benchmark's copy loses an edge the server still serves.
	for u := 0; ; u++ {
		if nb := e.churn.mirror.Neighbors(u); len(nb) > 0 {
			e.churn.mirror.RemoveEdge(u, nb[0])
			break
		}
	}
	if err := e.finalCheck(); err != nil {
		t.Fatal(err)
	}
	if len(e.res.errs) == 0 {
		t.Fatal("oracle accepted a topology that differs from the mirror")
	}
	if !strings.Contains(e.res.errs[0], "hash") {
		t.Errorf("first mismatch %q, want the topology hash", e.res.errs[0])
	}
	for _, m := range e2eMetrics {
		e.res.metrics[m.name] = 1
	}
	e.res.ops.ok(1)
	var out bytes.Buffer
	if msg := report(&out, cfg, e.res, e2eMetrics); msg != "" {
		t.Fatal(msg)
	}
	if o := lastLine(t, out.String()); o.Correct {
		t.Fatalf("run with an oracle mismatch reported correct\n%s", out.String())
	}
}

// The traced run reports every per-layer metric (scales shrunk for the
// test).
func TestTracedRunReportsEveryLayerMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("launches the server binary")
	}
	saved := scales
	defer func() { scales = saved }()
	scales = slices.Clone(scales)
	scales[0].nodes, scales[0].batches = 200, 3
	scales[1].nodes, scales[1].batches = 400, 3
	cfg := tinyConfig(t, "write-churn")
	cfg.trace = true
	res, err := runTrace(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if msg := report(&out, cfg, res, layerMetrics); msg != "" {
		t.Fatalf("%s\n%s", msg, out.String())
	}
	if o := lastLine(t, out.String()); !o.Correct || len(o.Metrics) != len(layerMetrics) {
		t.Fatalf("outcome %+v", o)
	}
	data, err := os.ReadFile(res.meta["spans_file"])
	if err != nil {
		t.Fatal(err)
	}
	var s span
	if err := json.Unmarshal(data[:bytes.IndexByte(data, '\n')], &s); err != nil || s.Name == "" || s.Workload != "write-churn" {
		t.Fatalf("first span %+v, %v", s, err)
	}
}

func lastLine(t *testing.T, out string) outcome {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var o outcome
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &o); err != nil {
		t.Fatalf("last line is not the outcome: %v\n%s", err, out)
	}
	return o
}

// BENCHMARK.json names exactly the workloads and metrics this program
// reports, with the same units and directions.
func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark")
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d here", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: %+v, want %s: %s", i, b.Workloads[i], w.name, w.why)
		}
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d here", len(got), kind, len(want))
		}
		for i, m := range want {
			if got[i].Name != m.name || got[i].Unit != m.unit || got[i].Better != m.better {
				t.Errorf("%s metric %d: %+v, want %s %s %s", kind, i, got[i], m.name, m.unit, m.better)
			}
		}
	}
	check("end_to_end", b.EndToEnd, e2eMetrics)
	check("per_layer", b.PerLayer, layerMetrics)
}
