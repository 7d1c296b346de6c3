package main

import (
	"bytes"
	"os"
	"reflect"
	"strings"
	"testing"
)

// statFile returns the file's size, for asserting a profile was written.
func statFile(path string) (int64, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}

func TestRunPartitionReport(t *testing.T) {
	var out bytes.Buffer
	err := runPartition([]string{
		"-nodes", "2000", "-degree", "8", "-shards", "4",
		"-strategy", "degree-balanced", "-delta", "-workers", "2"}, &out)
	if err != nil {
		t.Fatalf("runPartition: %v\n%s", err, out.String())
	}
	for _, want := range []string{
		"4 degree-balanced shards", "cut edges", "ghost replicas",
		"edge imbalance", "-workers 2", "rounds/sec", "values/round", "bytes/round",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

func TestRunPartitionRejects(t *testing.T) {
	var out bytes.Buffer
	if err := runPartition([]string{"-strategy", "metis"}, &out); err == nil {
		t.Error("unknown strategy must fail")
	}
	if err := runPartition([]string{"-nodes", "100", "-shards", "101"}, &out); err == nil {
		t.Error("k > n must fail")
	}
	if err := runPartition([]string{"-nodes", "100", "-check"}, &out); err == nil {
		t.Error("-check must be rejected")
	}
}

func TestExtractProfileFlags(t *testing.T) {
	for _, tc := range []struct {
		in       []string
		rest     []string
		cpu, mem string
		wantErr  bool
	}{
		{in: []string{"fig3"}, rest: []string{"fig3"}},
		{in: []string{"-cpuprofile", "c.out", "partition", "-shards", "2"},
			rest: []string{"partition", "-shards", "2"}, cpu: "c.out"},
		{in: []string{"-memprofile=m.out", "-cpuprofile=c.out", "all"},
			rest: []string{"all"}, cpu: "c.out", mem: "m.out"},
		// Flags after the subcommand belong to the subcommand.
		{in: []string{"chaos", "-cpuprofile", "c.out"},
			rest: []string{"chaos", "-cpuprofile", "c.out"}},
		// Other leading flags stop the scan (they belong to the default set).
		{in: []string{"-seed", "7", "fig5"}, rest: []string{"-seed", "7", "fig5"}},
		{in: []string{"-cpuprofile"}, wantErr: true},
		{in: []string{"-cpuprofile="}, wantErr: true},
	} {
		rest, pc, err := extractProfileFlags(tc.in)
		if tc.wantErr {
			if err == nil {
				t.Errorf("extractProfileFlags(%v): want error", tc.in)
			}
			continue
		}
		if err != nil {
			t.Errorf("extractProfileFlags(%v): %v", tc.in, err)
			continue
		}
		if !reflect.DeepEqual(rest, tc.rest) || pc.cpu != tc.cpu || pc.mem != tc.mem {
			t.Errorf("extractProfileFlags(%v) = %v cpu=%q mem=%q, want %v cpu=%q mem=%q",
				tc.in, rest, pc.cpu, pc.mem, tc.rest, tc.cpu, tc.mem)
		}
	}
}

func TestProfileStartStop(t *testing.T) {
	dir := t.TempDir()
	pc := &profileConfig{cpu: dir + "/cpu.out", mem: dir + "/mem.out"}
	if err := pc.start(); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := runPartition([]string{"-nodes", "500", "-shards", "2"}, &out); err != nil {
		t.Fatal(err)
	}
	if err := pc.stop(); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{pc.cpu, pc.mem} {
		if fi, err := statFile(f); err != nil || fi == 0 {
			t.Errorf("profile %s missing or empty (size=%d err=%v)", f, fi, err)
		}
	}
}
