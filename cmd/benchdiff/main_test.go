package main

import (
	"bytes"
	"strings"
	"testing"
)

const benchOutput = `goos: linux
BenchmarkMicroChopping-8    	     200	    846718 ns/op
BenchmarkMicroChopping-8    	     200	    850000 ns/op
BenchmarkMicroChopping-8    	     200	    840000 ns/op
BenchmarkMicroPipelinedFilter-8 	      20	   7707736 ns/op	   7402444 vt_ns/op
BenchmarkMicroSerialFilter-8    	      20	   5133704 ns/op	  13171227 vt_ns/op
BenchmarkMicroAgg-8         	     500	     86590 ns/op	  102400 B/op	     120 allocs/op
PASS
`

func TestParseBenchUnits(t *testing.T) {
	medians, err := parseBench(strings.NewReader(benchOutput))
	if err != nil {
		t.Fatal(err)
	}
	// Repeated samples reduce to the median, keyed on the bare name.
	if got := medians["BenchmarkMicroChopping"]; got != 846718 {
		t.Fatalf("median ns/op = %v, want 846718", got)
	}
	// Custom *_ns/op metrics key on name@unit next to the plain ns/op.
	if got := medians["BenchmarkMicroPipelinedFilter@vt_ns/op"]; got != 7402444 {
		t.Fatalf("vt median = %v, want 7402444", got)
	}
	if got := medians["BenchmarkMicroPipelinedFilter"]; got != 7707736 {
		t.Fatalf("ns/op median = %v, want 7707736", got)
	}
	// Memory columns don't gate: no B/op or allocs/op keys.
	for key := range medians {
		if strings.Contains(key, "B/op") || strings.Contains(key, "allocs") {
			t.Fatalf("memory metric leaked into medians: %s", key)
		}
	}
}

func TestRatioGateOnVirtualTime(t *testing.T) {
	medians, err := parseBench(strings.NewReader(benchOutput))
	if err != nil {
		t.Fatal(err)
	}
	specs, err := parseRatioSpecs(
		"BenchmarkMicroPipelinedFilter@vt_ns/op=BenchmarkMicroSerialFilter@vt_ns/op:1.3")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if rc := checkRatios(&buf, specs, medians); rc != 0 {
		t.Fatalf("1.78x speedup should pass a 1.3x gate:\n%s", buf.String())
	}
	// And the same spec with an unreachable minimum must fail.
	specs, _ = parseRatioSpecs(
		"BenchmarkMicroPipelinedFilter@vt_ns/op=BenchmarkMicroSerialFilter@vt_ns/op:5.0")
	buf.Reset()
	if rc := checkRatios(&buf, specs, medians); rc == 0 {
		t.Fatalf("5x gate on a 1.78x speedup should fail:\n%s", buf.String())
	}
}

// Virtual-time keys gate exactly against the baseline and stay out of the
// wall-clock geomean.
func TestVirtualTimeGatesExactly(t *testing.T) {
	old := map[string]float64{"BenchmarkA": 100, "BenchmarkA@vt_ns/op": 7402436}
	var buf bytes.Buffer
	if rc := compare(&buf, old, map[string]float64{"BenchmarkA": 110, "BenchmarkA@vt_ns/op": 7402436}, 0.2); rc != 0 {
		t.Fatalf("identical virtual time and 1.1x wall clock should pass:\n%s", buf.String())
	}
	buf.Reset()
	if rc := compare(&buf, old, map[string]float64{"BenchmarkA": 100, "BenchmarkA@vt_ns/op": 7402437}, 0.2); rc != 1 {
		t.Fatalf("a 1 ns virtual-time change must fail:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), "BenchmarkA@vt_ns/op changed 7402436 → 7402437") {
		t.Fatalf("failure does not name the changed key:\n%s", buf.String())
	}
	// With the unchanged virtual-time key in the geomean, 1.3x wall clock
	// would average down to 1.14x and pass a 20% gate; it must not.
	buf.Reset()
	if rc := compare(&buf, old, map[string]float64{"BenchmarkA": 130, "BenchmarkA@vt_ns/op": 7402436}, 0.2); rc != 1 {
		t.Fatalf("1.3x wall clock must fail the geomean gate:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), "over 1 wall-clock benchmarks") {
		t.Fatalf("geomean counted virtual-time keys:\n%s", buf.String())
	}
}
