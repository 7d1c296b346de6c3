package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// child is one `structura serve` process.
type child struct {
	cmd      *exec.Cmd
	addr     string
	gcLines  atomic.Int64 // "gc N @" lines on stderr, counted when GODEBUG=gctrace=1
	stderr   *bytes.Buffer
	mu       sync.Mutex
	pipes    sync.WaitGroup
	killOnce sync.Once
}

var (
	childrenMu sync.Mutex
	children   = map[*child]bool{}
)

// killAll stops every child still running; main defers it so no process
// outlives the benchmark.
func killAll() {
	childrenMu.Lock()
	live := make([]*child, 0, len(children))
	for c := range children {
		live = append(live, c)
	}
	childrenMu.Unlock()
	for _, c := range live {
		c.kill()
	}
}

var listenRE = regexp.MustCompile(`^listening on (\S+)$`)

// startServe execs `bin serve args...` and returns once it printed its
// listen address. env entries are added to the benchmark's environment.
func startServe(bin string, args, env []string) (*child, error) {
	cmd := exec.Command(bin, append([]string{"serve"}, args...)...)
	cmd.Env = append(os.Environ(), env...)
	// The kernel kills the server if the benchmark dies first.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	c := &child{cmd: cmd, stderr: &bytes.Buffer{}}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s serve: %w", bin, err)
	}
	childrenMu.Lock()
	children[c] = true
	childrenMu.Unlock()

	addrCh := make(chan string, 1)
	c.pipes.Add(2)
	go func() {
		defer c.pipes.Done()
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if m := listenRE.FindStringSubmatch(sc.Text()); m != nil {
				select {
				case addrCh <- m[1]:
				default:
				}
			}
		}
		_, _ = io.Copy(io.Discard, stdout)
	}()
	go func() {
		defer c.pipes.Done()
		sc := bufio.NewScanner(stderr)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		for sc.Scan() {
			line := sc.Text()
			if strings.HasPrefix(line, "gc ") {
				c.gcLines.Add(1)
				continue
			}
			c.mu.Lock()
			if c.stderr.Len() < 64<<10 {
				c.stderr.WriteString(line + "\n")
			}
			c.mu.Unlock()
		}
		_, _ = io.Copy(io.Discard, stderr)
	}()
	select {
	case c.addr = <-addrCh:
		return c, nil
	case <-time.After(60 * time.Second):
		c.kill()
		return nil, fmt.Errorf("serve printed no listen address within 60s; stderr:\n%s", c.stderrText())
	}
}

func (c *child) pid() int { return c.cmd.Process.Pid }

func (c *child) stderrText() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stderr.String()
}

// kill sends SIGKILL and waits for the process and its output pipes.
func (c *child) kill() {
	c.killOnce.Do(func() {
		_ = c.cmd.Process.Kill()
		_ = c.cmd.Wait()
		c.pipes.Wait()
		childrenMu.Lock()
		delete(children, c)
		childrenMu.Unlock()
	})
}

// waitReady polls /healthz on one keep-alive connection until it answers
// 200; the gate in front of a booting server answers 503.
func (c *child) waitReady(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	req := getRequest("/healthz")
	var rc *rawConn
	defer func() {
		if rc != nil {
			rc.Close()
		}
	}()
	for time.Now().Before(deadline) {
		if rc == nil {
			var err error
			if rc, err = dial(c.addr); err != nil {
				rc = nil
				time.Sleep(time.Millisecond)
				continue
			}
		}
		status, _, err := rc.do(req)
		if err != nil {
			rc.Close()
			rc = nil
		} else if status == 200 {
			return nil
		}
		time.Sleep(500 * time.Microsecond)
	}
	return fmt.Errorf("serve at %s not ready within %v; stderr:\n%s", c.addr, timeout, c.stderrText())
}

// launch starts serve and returns it with the seconds from exec to the first
// /healthz 200 and the host's steal share over that interval.
func launch(bin string, args, env []string) (*child, float64, float64, error) {
	m0, t0 := hostCPU(), time.Now()
	c, err := startServe(bin, args, env)
	if err != nil {
		return nil, 0, 0, err
	}
	if err := c.waitReady(120 * time.Second); err != nil {
		c.kill()
		return nil, 0, 0, err
	}
	secs := time.Since(t0).Seconds()
	return c, secs, stealShare(m0, hostCPU()), nil
}

// serverMetrics is the part of /metrics the benchmark reads.
type serverMetrics struct {
	Accepted uint64 `json:"accepted"`
	Applied  uint64 `json:"applied"`
	Batches  uint64 `json:"batches"`
	WAL      *struct {
		Compactions uint64 `json:"compactions"`
	} `json:"wal"`
}

func getJSON(rc *rawConn, path string, v any) error {
	status, body, err := rc.do(getRequest(path))
	if err != nil {
		return fmt.Errorf("GET %s: %w", path, err)
	}
	if status != 200 {
		return fmt.Errorf("GET %s: status %d: %s", path, status, body)
	}
	if err := json.Unmarshal(body, v); err != nil {
		return fmt.Errorf("GET %s: %w", path, err)
	}
	return nil
}

func fetchMetrics(rc *rawConn) (serverMetrics, error) {
	var m serverMetrics
	err := getJSON(rc, "/metrics", &m)
	return m, err
}

// fetchHash returns the served epoch's topology hash.
func fetchHash(rc *rawConn) (string, error) {
	var s struct {
		GraphHash string `json:"graph_hash"`
	}
	if err := getJSON(rc, "/labels?hash=1", &s); err != nil {
		return "", err
	}
	if s.GraphHash == "" {
		return "", errors.New("/labels?hash=1 returned no graph_hash")
	}
	return s.GraphHash, nil
}

// waitQuiesced polls /metrics until every accepted mutation is applied.
func waitQuiesced(rc *rawConn, timeout time.Duration) (serverMetrics, error) {
	deadline := time.Now().Add(timeout)
	for {
		m, err := fetchMetrics(rc)
		if err != nil {
			return m, err
		}
		if m.Applied == m.Accepted {
			return m, nil
		}
		if time.Now().After(deadline) {
			return m, fmt.Errorf("writer not quiesced after %v: applied %d of %d", timeout, m.Applied, m.Accepted)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// ---- /proc readers ----

// clockTick is USER_HZ, fixed at 100 on Linux for every architecture Go
// supports.
const clockTick = 100

// procCPU returns a process's user+system CPU seconds (/proc/<pid>/stat).
func procCPU(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	i := bytes.LastIndexByte(data, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	f := strings.Fields(string(data[i+1:]))
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("malformed utime/stime")
	}
	return (ut + st) / clockTick, nil
}

// procField reads one "name: value" line from a /proc file as an integer.
func procField(path, name string) (int64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, name+":") {
			f := strings.Fields(line[len(name)+1:])
			if len(f) == 0 {
				break
			}
			return strconv.ParseInt(f[0], 10, 64)
		}
	}
	return 0, fmt.Errorf("%s: no %s", path, name)
}

// procWriteBytes is the bytes a process caused to be sent to storage.
func procWriteBytes(pid int) (int64, error) {
	return procField(fmt.Sprintf("/proc/%d/io", pid), "write_bytes")
}

// procHWM is a process's peak resident set in MB.
func procHWM(pid int) (float64, error) {
	kb, err := procField(fmt.Sprintf("/proc/%d/status", pid), "VmHWM")
	return float64(kb) / 1024, err
}

// hostMark is the aggregate CPU line of /proc/stat: cumulative ticks in
// total and stolen by the hypervisor.
type hostMark struct{ total, steal float64 }

func hostCPU() hostMark {
	var m hostMark
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return m
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	for i, v := range f[1:] {
		x, _ := strconv.ParseFloat(v, 64)
		if i >= 8 { // guest time is already counted in user
			break
		}
		if i == 7 {
			m.steal = x
		}
		m.total += x
	}
	return m
}

// stealShare is the share of the CPU time between two marks that the
// hypervisor gave to other guests.
func stealShare(a, b hostMark) float64 {
	if b.total <= a.total {
		return 0
	}
	return (b.steal - a.steal) / (b.total - a.total)
}

// selfCPU is the benchmark's own user+system CPU seconds.
func selfCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}
