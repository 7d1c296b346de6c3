package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// liveServe is one in-process `structura serve` run on a loopback socket,
// queried over one keep-alive client and stopped by cancelling its context.
// The embedded smokeProc, with no process behind it, holds the address and
// the output.
type liveServe struct {
	smokeProc
	client  *http.Client
	cancel  context.CancelFunc
	done    chan struct{} // closed once runServe has returned err
	err     error
	scanned chan struct{} // closed once every output line is recorded
}

// startLiveServe runs runServe with args under a deadline context and
// returns once it has printed its address. The run is stopped at cleanup
// if the test has not stopped it.
func startLiveServe(t *testing.T, args ...string) *liveServe {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	pr, pw := io.Pipe()
	s := &liveServe{
		smokeProc: smokeProc{out: &bytes.Buffer{}},
		client:    &http.Client{Transport: &http.Transport{}, Timeout: 10 * time.Second},
		cancel:    cancel, done: make(chan struct{}), scanned: make(chan struct{}),
	}
	go func() {
		s.err = runServe(ctx, args, pw)
		pw.Close()
		close(s.done)
	}()
	addrCh := make(chan string, 1)
	go func() {
		defer close(s.scanned)
		sc := bufio.NewScanner(pr)
		for sc.Scan() {
			line := sc.Text()
			s.mu.Lock()
			s.out.WriteString(line + "\n")
			s.mu.Unlock()
			if addr, ok := strings.CutPrefix(line, "listening on "); ok {
				select {
				case addrCh <- addr:
				default:
				}
			}
		}
		_, _ = io.Copy(io.Discard, pr)
	}()
	t.Cleanup(func() { _ = s.stop() })
	select {
	case s.addr = <-addrCh:
	case <-s.done:
		t.Fatalf("serve returned before listening: %v\n%s", s.err, s.output())
	}
	return s
}

// stop cancels the run and returns what runServe returned, with every
// output line recorded.
func (s *liveServe) stop() error {
	s.cancel()
	<-s.done
	<-s.scanned
	s.client.CloseIdleConnections()
	return s.err
}

// get fetches path and fails the test on a transport error or a non-2xx
// status.
func (s *liveServe) get(t *testing.T, path string) []byte {
	t.Helper()
	resp, err := s.client.Get(s.url(path))
	return readOK(t, path, resp, err)
}

func (s *liveServe) post(t *testing.T, path, body string) {
	t.Helper()
	resp, err := s.client.Post(s.url(path), "application/json", strings.NewReader(body))
	readOK(t, path, resp, err)
}

func readOK(t *testing.T, path string, resp *http.Response, err error) []byte {
	t.Helper()
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("%s: read body: %v", path, err)
	}
	if resp.StatusCode/100 != 2 {
		t.Fatalf("%s: status %d: %s", path, resp.StatusCode, body)
	}
	return body
}

func decode(t *testing.T, body []byte, v any) {
	t.Helper()
	if err := json.Unmarshal(body, v); err != nil {
		t.Fatalf("decode %s: %v", body, err)
	}
}

type labelSummary struct {
	Epoch   uint64 `json:"epoch"`
	Nodes   int    `json:"nodes"`
	CDSSize int    `json:"cds_size"`
}

// TestServeOverSocket boots `structura serve` on a real listener, queries
// every read endpoint for a fixed set of nodes over one keep-alive client,
// posts one mutation and waits for its epoch, then stops the run through
// its context. The -cds run builds the backbone on a small connected graph
// and adds /cds/member.
func TestServeOverSocket(t *testing.T) {
	for _, tc := range []struct {
		name  string
		nodes int
		cds   bool
		args  []string
	}{
		{"default", 500, false, []string{"-nodes", "500", "-avg-degree", "6", "-seed", "3"}},
		{"cds", 100, true, []string{"-nodes", "100", "-avg-degree", "10", "-seed", "1", "-cds"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := startLiveServe(t, append([]string{"-addr", "127.0.0.1:0"}, tc.args...)...)
			s.waitReady(t)

			var sum labelSummary
			decode(t, s.get(t, "/labels"), &sum)
			if sum.Nodes != tc.nodes {
				t.Fatalf("/labels reports %d node(s), want %d", sum.Nodes, tc.nodes)
			}
			if tc.cds != (sum.CDSSize >= 0) {
				t.Fatalf("/labels cds_size %d with -cds=%v", sum.CDSSize, tc.cds)
			}
			paths := []string{"/centrality/topk?k=8", "/metrics", "/healthz"}
			for _, v := range []int{0, 1, tc.nodes / 2, tc.nodes - 1} {
				paths = append(paths,
					fmt.Sprintf("/route?from=%d", v),
					fmt.Sprintf("/khop?node=%d&k=2", v),
					fmt.Sprintf("/labels?node=%d", v))
				if tc.cds {
					paths = append(paths, fmt.Sprintf("/cds/member?node=%d", v))
				}
			}
			for _, p := range paths {
				s.get(t, p)
			}

			s.post(t, "/mutate", fmt.Sprintf(`{"ops":[{"op":"add","u":0,"v":%d}]}`, tc.nodes-1))
			deadline := time.Now().Add(30 * time.Second)
			for {
				var after labelSummary
				if decode(t, s.get(t, "/labels"), &after); after.Epoch > sum.Epoch {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("epoch never advanced past %d after /mutate", sum.Epoch)
				}
				time.Sleep(2 * time.Millisecond)
			}

			if err := s.stop(); err != nil {
				t.Fatalf("runServe: %v\n%s", err, s.output())
			}
			for _, want := range []string{
				fmt.Sprintf("serving %d node(s)", tc.nodes), "dest 0", "epoch 1", "ready", "shutting down",
			} {
				if !strings.Contains(s.output(), want) {
					t.Errorf("output missing %q:\n%s", want, s.output())
				}
			}
		})
	}
}

// freeLoopbackAddr returns a loopback address nothing listens on.
func freeLoopbackAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// TestRunServeRejects runs every case on one loopback address, so a case
// that leaves its listener bound fails the next case's bind instead of
// reaching that case's own check.
func TestRunServeRejects(t *testing.T) {
	addr := freeLoopbackAddr(t)
	for _, tc := range []struct {
		args  []string
		cause string
	}{
		{[]string{"-nodes", "1"}, "need at least 2 nodes"},
		{[]string{"-nodes", "100", "-dest", "100"}, "dest 100 out of range"},
		{[]string{"-load", filepath.Join(t.TempDir(), "missing.snap")}, "-load "},
		{[]string{"-nodes", "100", "-bogus-flag", "17"}, "flag provided but not defined"},
	} {
		err := runServe(context.Background(), append([]string{"-addr", addr}, tc.args...), io.Discard)
		if err == nil || !strings.Contains(err.Error(), tc.cause) {
			t.Errorf("runServe(%v) = %v, want an error containing %q", tc.args, err, tc.cause)
		}
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("a rejected run left %s bound: %v", addr, err)
	}
	ln.Close()
}

// TestReplicaServeStopsOnCancel runs a follower in-process against a
// primary address nothing listens on: it serves its mirror as a replica
// while the follow loop retries, and cancelling its context returns nil
// with the listener closed.
func TestReplicaServeStopsOnCancel(t *testing.T) {
	s := startLiveServe(t, "-addr", "127.0.0.1:0", "-data-dir", t.TempDir(),
		"-replicate-from", freeLoopbackAddr(t))
	var hz struct {
		Role string `json:"role"`
	}
	decode(t, s.get(t, "/healthz"), &hz)
	if hz.Role != "replica" {
		t.Fatalf("/healthz role %q, want replica", hz.Role)
	}
	if err := s.stop(); err != nil {
		t.Fatalf("runServe -replicate-from: %v\n%s", err, s.output())
	}
	if c, err := net.Dial("tcp", s.addr); err == nil {
		c.Close()
		t.Fatalf("%s still accepts connections after stop", s.addr)
	}
}

// TestNewHTTPServerTimeouts pins the hostile-client timeouts the serve and
// replicate listeners share.
func TestNewHTTPServerTimeouts(t *testing.T) {
	srv := newHTTPServer(http.NotFoundHandler())
	if srv.ReadHeaderTimeout != 10*time.Second || srv.IdleTimeout != 120*time.Second {
		t.Fatalf("ReadHeaderTimeout=%v IdleTimeout=%v, want 10s and 2m0s", srv.ReadHeaderTimeout, srv.IdleTimeout)
	}
	if srv.ReadTimeout != 30*time.Second {
		t.Fatalf("ReadTimeout=%v, want 30s", srv.ReadTimeout)
	}
	if srv.Handler == nil {
		t.Fatal("handler not installed")
	}
}
