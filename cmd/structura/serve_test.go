package main

import (
	"bytes"
	"net/http"
	"strings"
	"testing"
	"time"
)

func TestRunServeLoadgen(t *testing.T) {
	var out bytes.Buffer
	err := runServe([]string{
		"-nodes", "500", "-avg-degree", "6", "-seed", "3",
		"-loadgen", "5000", "-loadgen-workers", "2"}, &out)
	if err != nil {
		t.Fatalf("runServe: %v\n%s", err, out.String())
	}
	for _, want := range []string{
		"serving 500 node(s)", "dest 0", "epoch 1",
		"loadgen: 5000 queries", "queries/sec", "p99",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

func TestRunServeWithCDS(t *testing.T) {
	// Small and dense enough to be connected, so the backbone builds and the
	// loadgen mix exercises /cds/member.
	var out bytes.Buffer
	err := runServe([]string{
		"-nodes", "100", "-avg-degree", "10", "-seed", "1", "-cds",
		"-loadgen", "500", "-loadgen-workers", "1"}, &out)
	if err != nil {
		t.Fatalf("runServe -cds: %v\n%s", err, out.String())
	}
}

func TestRunServeRejects(t *testing.T) {
	for _, args := range [][]string{
		{"-nodes", "1"},                        // too small
		{"-nodes", "100", "-dest", "100"},      // dest out of range
		{"-nodes", "100", "-bogus-flag", "17"}, // unknown flag
	} {
		if err := runServe(args, &bytes.Buffer{}); err == nil {
			t.Errorf("runServe(%v) succeeded, want error", args)
		}
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
