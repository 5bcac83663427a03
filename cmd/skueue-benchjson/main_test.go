package main

import (
	"strings"
	"testing"
)

// sample is real-shaped `go test -bench` output: preamble, plain and
// sub-benchmark lines, custom ReportMetric units, and noise lines
// (PASS/ok/log output) that the parser must ignore.
const sample = `goos: linux
goarch: amd64
pkg: skueue
cpu: AMD EPYC 7B13
BenchmarkClientThroughput-8   	  213504	      5613 ns/op	    356216 client-ops/s
BenchmarkRemoteThroughput-8   	   60278	     19858 ns/op	    100714 net-ops/s
BenchmarkDurableThroughput/group-commit-8         	   63708	     18663 ns/op	     53585 durable-ops/s
PASS
ok  	skueue	12.446s
`

func TestParse(t *testing.T) {
	rep, err := parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Schema != schemaID {
		t.Errorf("schema = %q, want %q", rep.Schema, schemaID)
	}
	if rep.Goos != "linux" || rep.Goarch != "amd64" || rep.Pkg != "skueue" || rep.CPU != "AMD EPYC 7B13" {
		t.Errorf("preamble = %q/%q/%q/%q", rep.Goos, rep.Goarch, rep.Pkg, rep.CPU)
	}
	if len(rep.Benchmarks) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3", len(rep.Benchmarks))
	}
	ct := rep.Benchmarks[0]
	if ct.Name != "ClientThroughput" || ct.Procs != 8 || ct.Iterations != 213504 {
		t.Errorf("first benchmark = %+v", ct)
	}
	if ct.Metrics["ns/op"] != 5613 || ct.Metrics["client-ops/s"] != 356216 {
		t.Errorf("ClientThroughput metrics = %v", ct.Metrics)
	}
	gc := rep.Benchmarks[2]
	if gc.Name != "DurableThroughput/group-commit" {
		t.Errorf("sub-benchmark name = %q", gc.Name)
	}
	if gc.Metrics["durable-ops/s"] != 53585 {
		t.Errorf("group-commit metrics = %v", gc.Metrics)
	}
}

// TestRequire: the CI job lists the three headline units; a renamed or
// skipped benchmark must fail the run, not publish a hollow artifact.
func TestRequire(t *testing.T) {
	rep, err := parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if m := missingMetrics(rep, "client-ops/s, net-ops/s, durable-ops/s"); len(m) != 0 {
		t.Errorf("headline units reported missing: %v", m)
	}
	if m := missingMetrics(rep, "client-ops/s,frobnication/s"); len(m) != 1 || m[0] != "frobnication/s" {
		t.Errorf("missing = %v, want [frobnication/s]", m)
	}
}

func TestParseRejectsMalformedLines(t *testing.T) {
	for _, bad := range []string{
		"BenchmarkX-8 notanumber 5 ns/op",
		"BenchmarkX-8 10 5 ns/op 7", // dangling value without a unit
		"BenchmarkX-8 10 five ns/op",
	} {
		if _, err := parse(strings.NewReader(bad)); err == nil {
			t.Errorf("parse(%q) accepted malformed line", bad)
		}
	}
	// A bare in-progress line (from -v interleaving) is skipped silently.
	rep, err := parse(strings.NewReader("BenchmarkClientThroughput\n"))
	if err != nil || len(rep.Benchmarks) != 0 {
		t.Errorf("bare benchmark line: benchmarks=%d err=%v, want 0/nil", len(rep.Benchmarks), err)
	}
}
