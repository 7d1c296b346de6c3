package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"structura/internal/gen"
	"structura/internal/stats"
	"structura/internal/wal"
)

// The wal-smoke parameters must match between the child process flags and
// the parent's mirror of the topology and mutation stream.
const (
	smokeNodes  = 60
	smokeAvgDeg = 6.0
	smokeSeed   = 7
)

type smokeMut struct {
	Op string `json:"op"`
	U  int    `json:"u"`
	V  int    `json:"v"`
}

// smokeStream is the deterministic mutation stream: mixed adds and removes,
// no self-loops, biased toward adds so the graph stays connected enough.
func smokeStream(n, count int) []smokeMut {
	r := stats.NewRand(99)
	muts := make([]smokeMut, 0, count)
	for len(muts) < count {
		u, v := r.Intn(n), r.Intn(n)
		if u == v {
			continue
		}
		op := "add"
		if r.Float64() < 0.3 {
			op = "remove"
		}
		muts = append(muts, smokeMut{Op: op, U: u, V: v})
	}
	return muts
}

// prefixHashes applies the stream to a mirror of the server's boot topology
// under the WAL's acceptance rule and returns the graph hash after every
// mutation prefix: prefixHashes[i] is the topology after the first i
// journaled records. The WAL journals every record (cum counts them all)
// but applies only topologically valid ones, exactly like this mirror.
func prefixHashes(muts []smokeMut) []uint64 {
	p := smokeAvgDeg / float64(smokeNodes-1)
	g := gen.SparseErdosRenyi(stats.NewRand(smokeSeed), smokeNodes, p)
	out := make([]uint64, 0, len(muts)+1)
	out = append(out, wal.GraphHash(g))
	for _, m := range muts {
		if m.Op == "add" {
			if !g.HasEdge(m.U, m.V) {
				_ = g.AddEdge(m.U, m.V)
			}
		} else {
			g.RemoveEdge(m.U, m.V)
		}
		out = append(out, wal.GraphHash(g))
	}
	return out
}

// smokeProc is one `structura serve` child process.
type smokeProc struct {
	cmd  *exec.Cmd
	addr string
	out  *bytes.Buffer
	mu   sync.Mutex
}

func startServe(t *testing.T, bin, dataDir string) *smokeProc {
	t.Helper()
	cmd := exec.Command(bin, "serve",
		"-nodes", fmt.Sprint(smokeNodes),
		"-avg-degree", fmt.Sprint(smokeAvgDeg),
		"-seed", fmt.Sprint(smokeSeed),
		"-addr", "127.0.0.1:0",
		"-data-dir", dataDir,
		"-batch-max", "4",
	)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatalf("start serve: %v", err)
	}
	p := &smokeProc{cmd: cmd, out: &bytes.Buffer{}}
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		re := regexp.MustCompile(`^listening on (\S+)$`)
		for sc.Scan() {
			line := sc.Text()
			p.mu.Lock()
			p.out.WriteString(line + "\n")
			p.mu.Unlock()
			if m := re.FindStringSubmatch(line); m != nil {
				select {
				case addrCh <- m[1]:
				default:
				}
			}
		}
	}()
	select {
	case p.addr = <-addrCh:
	case <-time.After(20 * time.Second):
		_ = cmd.Process.Kill()
		t.Fatalf("serve never printed its address; output:\n%s", p.output())
	}
	t.Cleanup(func() {
		_ = cmd.Process.Kill()
		_, _ = cmd.Process.Wait()
	})
	return p
}

func (p *smokeProc) output() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.out.String()
}

func (p *smokeProc) url(path string) string { return "http://" + p.addr + path }

// waitReady polls /healthz until the recovery gate opens (200).
func (p *smokeProc) waitReady(t *testing.T) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(p.url("/healthz"))
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
			if resp.StatusCode != http.StatusServiceUnavailable {
				t.Fatalf("/healthz: unexpected status %d", resp.StatusCode)
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("server never became ready; output:\n%s", p.output())
}

func (p *smokeProc) mutate(t *testing.T, muts []smokeMut) {
	t.Helper()
	body, _ := json.Marshal(struct {
		Ops []smokeMut `json:"ops"`
	}{muts})
	resp, err := http.Post(p.url("/mutate"), "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("mutate: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		var b bytes.Buffer
		_, _ = b.ReadFrom(resp.Body)
		t.Fatalf("mutate: status %d: %s", resp.StatusCode, b.String())
	}
}

type smokeMetrics struct {
	Epoch    uint64 `json:"epoch"`
	Accepted uint64 `json:"accepted"`
	Applied  uint64 `json:"applied"`
	WAL      *struct {
		Records          uint64 `json:"records"`
		Syncs            uint64 `json:"syncs"`
		RecoveredSeq     uint64 `json:"recovered_seq"`
		RecoveryStanding uint64 `json:"recovery_standing"`
	} `json:"wal"`
}

func (p *smokeProc) metrics(t *testing.T) smokeMetrics {
	t.Helper()
	resp, err := http.Get(p.url("/metrics"))
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	defer resp.Body.Close()
	var m smokeMetrics
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatalf("metrics decode: %v", err)
	}
	return m
}

func (p *smokeProc) quiesce(t *testing.T) smokeMetrics {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		m := p.metrics(t)
		if m.Accepted == m.Applied {
			return m
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("server never quiesced")
	return smokeMetrics{}
}

func (p *smokeProc) graphHash(t *testing.T) string {
	t.Helper()
	resp, err := http.Get(p.url("/labels?hash=1"))
	if err != nil {
		t.Fatalf("labels: %v", err)
	}
	defer resp.Body.Close()
	var sum struct {
		GraphHash string `json:"graph_hash"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sum); err != nil {
		t.Fatalf("labels decode: %v", err)
	}
	return sum.GraphHash
}

// TestWALSmokeKillRecover is the end-to-end durability proof through the
// real binary: start `structura serve -data-dir`, mutate under churn, kill
// the process with SIGKILL mid-ingest, restart on the same store, and
// verify the recovered topology is exactly the mutation prefix the WAL
// committed — matching a parent-side replay hash — with a clean invariant
// sweep and a server that accepts writes again.
func TestWALSmokeKillRecover(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and drives the real binary; skipped with -short")
	}
	tmp := t.TempDir()
	bin := filepath.Join(tmp, "structura")
	build := exec.Command("go", "build", "-race", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build -race: %v\n%s", err, out)
	}
	dataDir := filepath.Join(tmp, "store")

	// One spare mutation beyond the ingest stream: the post-recovery write
	// continues the stream wherever the committed prefix ended, even if the
	// entire churn burst landed before the kill.
	const tracked, churn = 40, 200
	muts := smokeStream(smokeNodes, tracked+churn+1)
	hashes := prefixHashes(muts)

	// ---- First life: tracked ingest, then churn, then SIGKILL. ----
	p1 := startServe(t, bin, dataDir)
	p1.waitReady(t)

	for i := 0; i < tracked; i++ {
		p1.mutate(t, muts[i:i+1])
	}
	m := p1.quiesce(t)
	if m.WAL == nil || m.WAL.Records != tracked {
		t.Fatalf("after tracked ingest: wal metrics %+v, want %d records", m.WAL, tracked)
	}
	if m.WAL.Syncs == 0 {
		t.Fatal("no fsyncs recorded under the per-batch policy")
	}
	if got, want := p1.graphHash(t), fmt.Sprintf("%016x", hashes[tracked]); got != want {
		t.Fatalf("live hash after %d mutation(s): %s, want %s", tracked, got, want)
	}

	// Churn: fire the rest without waiting, then kill -9 mid-ingest.
	for i := tracked; i < tracked+churn; i += 5 {
		p1.mutate(t, muts[i:i+5])
	}
	time.Sleep(20 * time.Millisecond) // let some batches land mid-flight
	if err := p1.cmd.Process.Kill(); err != nil {
		t.Fatalf("kill: %v", err)
	}
	_, _ = p1.cmd.Process.Wait()

	// ---- Second life: recover from the same store. ----
	p2 := startServe(t, bin, dataDir)
	p2.waitReady(t)
	m2 := p2.metrics(t)
	if m2.WAL == nil {
		t.Fatal("restarted server has no WAL metrics")
	}
	rec := m2.WAL.Records
	if rec < tracked || rec > tracked+churn {
		t.Fatalf("recovered %d record(s), want within [%d,%d]", rec, tracked, tracked+churn)
	}
	if m2.WAL.RecoveryStanding != 0 {
		t.Fatalf("post-recovery invariant sweep found %d violation(s)", m2.WAL.RecoveryStanding)
	}
	if got, want := p2.graphHash(t), fmt.Sprintf("%016x", hashes[rec]); got != want {
		t.Fatalf("recovered topology is not the committed prefix: hash %s at %d record(s), want %s\noutput:\n%s",
			got, rec, want, p2.output())
	}
	if !strings.Contains(p2.output(), "recovered "+dataDir) {
		t.Fatalf("restart did not report recovery; output:\n%s", p2.output())
	}

	// The recovered server keeps accepting writes, still in lockstep.
	next := muts[rec : rec+1]
	p2.mutate(t, next)
	p2.quiesce(t)
	if got, want := p2.graphHash(t), fmt.Sprintf("%016x", hashes[rec+1]); got != want {
		t.Fatalf("post-recovery mutation: hash %s, want %s", got, want)
	}

	// ---- Third life: clean restart must be a no-op recovery. ----
	if err := p2.cmd.Process.Kill(); err != nil {
		t.Fatalf("kill: %v", err)
	}
	_, _ = p2.cmd.Process.Wait()
	p3 := startServe(t, bin, dataDir)
	p3.waitReady(t)
	m3 := p3.metrics(t)
	if m3.WAL == nil || m3.WAL.Records < rec {
		t.Fatalf("third life lost records: %+v, had %d", m3.WAL, rec)
	}
	if got, want := p3.graphHash(t), fmt.Sprintf("%016x", hashes[m3.WAL.Records]); got != want {
		t.Fatalf("third-life topology hash %s at %d record(s), want %s", got, m3.WAL.Records, want)
	}
}

// TestServeLoadSaveRoundTrip covers -load and -save in-process: save a
// topology through the snapshot codec, boot from it on a real listener,
// confirm the served graph hashes the same over the socket, and stop the
// run to write the final topology back out unchanged.
func TestServeLoadSaveRoundTrip(t *testing.T) {
	tmp := t.TempDir()
	file := filepath.Join(tmp, "boot.snap")
	g := gen.SparseErdosRenyi(stats.NewRand(5), 30, 0.2)
	if err := wal.SaveGraph(file, g); err != nil {
		t.Fatalf("save: %v", err)
	}
	loaded, err := wal.LoadGraph(file)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if wal.GraphHash(loaded) != wal.GraphHash(g) {
		t.Fatal("snapshot-codec round trip changed the topology")
	}

	s := startLiveServe(t, "-addr", "127.0.0.1:0",
		"-load", file, "-save", filepath.Join(tmp, "final.snap"))
	s.waitReady(t)
	if got, want := s.graphHash(t), fmt.Sprintf("%016x", wal.GraphHash(g)); got != want {
		t.Fatalf("served graph hash %s, want the boot file's %s", got, want)
	}
	if err := s.stop(); err != nil {
		t.Fatalf("serve -load -save: %v\n%s", err, s.output())
	}
	if !strings.Contains(s.output(), fmt.Sprintf("loaded %d node(s)", g.N())) {
		t.Fatalf("serve did not report loading the boot file:\n%s", s.output())
	}
	final, err := wal.LoadGraph(filepath.Join(tmp, "final.snap"))
	if err != nil {
		t.Fatalf("load final: %v", err)
	}
	if wal.GraphHash(final) != wal.GraphHash(g) {
		t.Fatal("-save after a query-only run changed the topology")
	}
}
