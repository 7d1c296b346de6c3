package main

import (
	"bufio"
	"math"
	"net"
	"slices"
	"testing"
	"time"
)

func TestQuantileInterpolates(t *testing.T) {
	v := []float64{4, 1, 3, 2}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 2.5}, {1, 4}, {0.9, 3.7}} {
		if got := quantile(v, c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of nothing should be NaN")
	}
}

// A failed or refused operation counts as attempted and misses every
// latency limit: it sorts above every real round trip.
func TestFailedOpsCountAndMissEveryLimit(t *testing.T) {
	var l latencies
	for i := 1; i <= 8; i++ {
		l.ok(time.Duration(i) * time.Microsecond)
	}
	l.fail()
	l.fail()
	if l.attempted != 10 || l.failed != 2 {
		t.Fatalf("attempted %d failed %d, want 10 and 2", l.attempted, l.failed)
	}
	if got := l.quantile(0.5); got != 5500 {
		t.Errorf("p50 = %v ns, want 5500", got)
	}
	if got := l.quantile(0.9); !math.IsInf(got, 1) {
		t.Errorf("p90 = %v, want +Inf: the failures hold the top fifth", got)
	}
	var all latencies
	all.merge(&l)
	all.ok(time.Microsecond)
	if all.attempted != 11 || all.failed != 2 {
		t.Errorf("merged attempted %d failed %d, want 11 and 2", all.attempted, all.failed)
	}
}

func TestSelfTimeSubtractsCoveredChildren(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{Name: "epoch", Parent: -1, Start: 0, End: 100 * ms},
		{Name: "a", Parent: 0, Start: 10 * ms, End: 30 * ms},
		{Name: "b", Parent: 0, Start: 20 * ms, End: 50 * ms},  // overlaps a: 10..50 covered once
		{Name: "c", Parent: 0, Start: 90 * ms, End: 120 * ms}, // runs past the parent: clipped at 100
		{Name: "leaf", Parent: 1, Start: 12 * ms, End: 14 * ms},
	}
	selfTimes(spans)
	want := []time.Duration{50 * ms, 18 * ms, 30 * ms, 30 * ms, 2 * ms}
	for i, s := range spans {
		if s.Self != want[i] {
			t.Errorf("%s self = %v, want %v", s.Name, s.Self, want[i])
		}
	}
	if got := durations(spans, "a", ms); !slices.Equal(got, []float64{20}) {
		t.Errorf("durations(a) = %v", got)
	}
}

func TestRawConnReadsLengthAndChunkedBodies(t *testing.T) {
	srv, cli := net.Pipe()
	defer srv.Close()
	go func() {
		br := bufio.NewReader(srv)
		for _, resp := range []string{
			"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nhello",
			"HTTP/1.1 202 Accepted\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nabc\r\n2;x=1\r\nde\r\n0\r\n\r\n",
		} {
			for {
				line, err := br.ReadString('\n')
				if err != nil {
					return
				}
				if line == "\r\n" {
					break
				}
			}
			if _, err := srv.Write([]byte(resp)); err != nil {
				return
			}
		}
	}()
	rc := &rawConn{c: cli, br: bufio.NewReader(cli)}
	for _, want := range []struct {
		status int
		body   string
	}{{200, "hello"}, {202, "abcde"}} {
		status, body, err := rc.do(getRequest("/x"))
		if err != nil || status != want.status || string(body) != want.body {
			t.Fatalf("do = %d %q %v, want %d %q", status, body, err, want.status, want.body)
		}
	}
}

func TestJSONInts(t *testing.T) {
	got, ok := jsonInts(nil, []byte(`{"epoch":3,"nodes":[1,22, 333],"k":1}`), `"nodes":`)
	if !ok || !slices.Equal(got, []int{1, 22, 333}) {
		t.Errorf("jsonInts = %v %v", got, ok)
	}
	if _, ok := jsonInts(nil, []byte(`{"nodes":null}`), `"nodes":`); ok {
		t.Error("null array parsed")
	}
}
