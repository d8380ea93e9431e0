// Command benchdiff is the CI perf-regression gate: it parses `go test
// -bench` output, reduces the repeated samples of each benchmark (-count=N)
// to their median ns/op, and compares the medians against a committed
// baseline file.
//
// Usage:
//
//	go test -run=NONE -bench=Micro -benchtime=200x -count=5 . > bench.txt
//	benchdiff -baseline BENCH_BASELINE.json bench.txt          # gate
//	benchdiff -baseline BENCH_BASELINE.json -update bench.txt  # re-pin
//
// The gate fails (exit 1) when the geometric mean of the per-benchmark
// wall-clock ratios (new/old) exceeds 1+threshold: single-benchmark jitter is
// tolerated, a regression across the suite is not. Simulated virtual-time
// metrics ("name@vt_ns/op") are deterministic, so they stay out of the
// geomean and gate exactly: any difference from the baseline fails.
// Benchmarks missing from either side are reported but do not gate — they
// change the suite, not its speed.
//
// -ratios asserts cross-benchmark speedups within the current run (they
// compare two medians from the same machine and input, so they are immune
// to the runner-speed drift the baseline gate must tolerate):
//
//	benchdiff -ratios 'BenchmarkMicroCompressedFilter=BenchmarkMicroDecompressFilter:1.5' bench.txt
//
// reads "the slow (right) benchmark must take at least 1.5× the fast (left)
// one's ns/op". Omitting :min reports the speedup without gating on it.
// Ratio checks run in both gate and -update modes, so a re-pin cannot
// silently accept a lost speedup.
//
// Custom per-op time metrics emitted via b.ReportMetric (units ending in
// "_ns/op", e.g. the simulator's virtual-time "vt_ns/op") are parsed
// alongside ns/op under the key "name@unit" — pin and assert them like any
// benchmark (the virtual-time ones exactly, see above):
//
//	benchdiff -ratios 'BenchmarkMicroPipelinedFilter@vt_ns/op=BenchmarkMicroSerialFilter@vt_ns/op:1.3' bench.txt
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// baseline is the pinned suite: median ns/op per benchmark name.
type baseline struct {
	Note       string             `json:"note,omitempty"`
	Benchmarks map[string]float64 `json:"benchmarks"`
}

func main() {
	basePath := flag.String("baseline", "BENCH_BASELINE.json", "baseline file to compare against (and -update)")
	update := flag.Bool("update", false, "write the parsed medians as the new baseline instead of gating")
	threshold := flag.Float64("threshold", 0.20, "allowed geomean regression (0.20 = +20%)")
	ratios := flag.String("ratios", "", "comma list of fast=slow[:min] speedup assertions within this run (slow median must be ≥ min× the fast one)")
	flag.Parse()

	specs, err := parseRatioSpecs(*ratios)
	if err != nil {
		fatal(err)
	}

	in := io.Reader(os.Stdin)
	if flag.NArg() == 1 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		in = f
	} else if flag.NArg() > 1 {
		fmt.Fprintln(os.Stderr, "usage: benchdiff [-baseline FILE] [-update] [-threshold F] [bench.txt]")
		os.Exit(2)
	}

	medians, err := parseBench(in)
	if err != nil {
		fatal(err)
	}
	if len(medians) == 0 {
		fatal(fmt.Errorf("no benchmark results in input"))
	}

	if *update {
		if err := writeBaseline(*basePath, medians); err != nil {
			fatal(err)
		}
		fmt.Printf("benchdiff: wrote %s (%d benchmarks)\n", *basePath, len(medians))
		os.Exit(checkRatios(os.Stdout, specs, medians))
	}

	base, err := readBaseline(*basePath)
	if err != nil {
		fatal(err)
	}
	code := compare(os.Stdout, base.Benchmarks, medians, *threshold)
	if rc := checkRatios(os.Stdout, specs, medians); rc != 0 {
		code = rc
	}
	os.Exit(code)
}

// parseBench extracts per-op metrics from `go test -bench` output and reduces
// each to its median. The standard ns/op metric keys on the bare benchmark
// name (with its -GOMAXPROCS suffix stripped); custom ReportMetric units
// ("vt_ns/op", ...) key on "name@unit", addressable from -ratios specs and
// pinned in the baseline like any other benchmark.
func parseBench(r io.Reader) (map[string]float64, error) {
	samples := make(map[string][]float64)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		// "BenchmarkName-8   200   846718 ns/op   123 vt_ns/op [...]"
		if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
			continue
		}
		name := f[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			name = name[:i]
		}
		// Only time metrics gate: ns/op plus custom *_ns/op units. Memory
		// columns (-benchmem's B/op, allocs/op) track a different axis and
		// would double-weight every benchmark in the geomean.
		for i := 3; i < len(f); i++ {
			if f[i] != "ns/op" && !strings.HasSuffix(f[i], "_ns/op") {
				continue
			}
			v, err := strconv.ParseFloat(f[i-1], 64)
			if err != nil {
				continue
			}
			key := name
			if f[i] != "ns/op" {
				key = name + "@" + f[i]
			}
			samples[key] = append(samples[key], v)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	medians := make(map[string]float64, len(samples))
	for name, s := range samples {
		sort.Float64s(s)
		medians[name] = s[len(s)/2]
	}
	return medians, nil
}

func readBaseline(path string) (baseline, error) {
	var b baseline
	data, err := os.ReadFile(path)
	if err != nil {
		return b, err
	}
	if err := json.Unmarshal(data, &b); err != nil {
		return b, fmt.Errorf("%s: %w", path, err)
	}
	return b, nil
}

func writeBaseline(path string, medians map[string]float64) error {
	b := baseline{
		Note:       "median ns/op of `go test -run=NONE -bench=Micro -benchtime=200x -count=5 .`; re-pin with cmd/benchdiff -update",
		Benchmarks: medians,
	}
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// isVirtualTime reports whether a key is a simulated virtual-time metric,
// which is deterministic and therefore gates exactly.
func isVirtualTime(key string) bool { return strings.HasSuffix(key, "@vt_ns/op") }

// compare prints the per-benchmark table and returns the exit code: 1 when
// the geometric mean of the wall-clock ratios regresses past the threshold
// or any virtual-time metric differs from its baseline value.
func compare(w io.Writer, old, cur map[string]float64, threshold float64) int {
	names := make([]string, 0, len(old))
	for name := range old {
		names = append(names, name)
	}
	sort.Strings(names)

	var logSum float64
	var n, overlap int
	var changed []string
	fmt.Fprintf(w, "%-40s %14s %14s %8s\n", "benchmark", "old ns/op", "new ns/op", "ratio")
	for _, name := range names {
		nw, ok := cur[name]
		if !ok {
			fmt.Fprintf(w, "%-40s %14.0f %14s %8s\n", name, old[name], "MISSING", "-")
			continue
		}
		overlap++
		ratio := nw / old[name]
		fmt.Fprintf(w, "%-40s %14.0f %14.0f %7.3fx\n", name, old[name], nw, ratio)
		if isVirtualTime(name) {
			if nw != old[name] {
				changed = append(changed, name)
			}
			continue
		}
		logSum += math.Log(ratio)
		n++
	}
	for name := range cur {
		if _, ok := old[name]; !ok {
			fmt.Fprintf(w, "%-40s %14s %14.0f %8s\n", name, "NEW", cur[name], "-")
		}
	}
	if overlap == 0 {
		fmt.Fprintln(w, "benchdiff: no overlapping benchmarks; re-pin the baseline with -update")
		return 1
	}
	code := 0
	for _, name := range changed {
		fmt.Fprintf(w, "benchdiff: FAIL — %s changed %.0f → %.0f; virtual time is deterministic and must match exactly\n",
			name, old[name], cur[name])
		code = 1
	}
	if n > 0 {
		geomean := math.Exp(logSum / float64(n))
		limit := 1 + threshold
		fmt.Fprintf(w, "geomean %.3fx over %d wall-clock benchmarks (limit %.3fx)\n", geomean, n, limit)
		if geomean > limit {
			fmt.Fprintf(w, "benchdiff: FAIL — geomean regression %.1f%% exceeds %.0f%%\n",
				(geomean-1)*100, threshold*100)
			code = 1
		}
	}
	if code == 0 {
		fmt.Fprintln(w, "benchdiff: OK")
	}
	return code
}

// ratioSpec is one fast=slow[:min] speedup assertion.
type ratioSpec struct {
	fast, slow string
	min        float64 // 0 = report only
}

func parseRatioSpecs(s string) ([]ratioSpec, error) {
	if s == "" {
		return nil, nil
	}
	var specs []ratioSpec
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		var spec ratioSpec
		if i := strings.LastIndex(part, ":"); i >= 0 {
			min, err := strconv.ParseFloat(part[i+1:], 64)
			if err != nil || min <= 0 {
				return nil, fmt.Errorf("ratio %q: bad minimum %q", part, part[i+1:])
			}
			spec.min = min
			part = part[:i]
		}
		fast, slow, ok := strings.Cut(part, "=")
		if !ok || fast == "" || slow == "" {
			return nil, fmt.Errorf("ratio %q: want fast=slow[:min]", part)
		}
		spec.fast, spec.slow = fast, slow
		specs = append(specs, spec)
	}
	return specs, nil
}

// checkRatios prints the speedup table and returns 1 when an asserted
// minimum is missed or a named benchmark is absent from the run.
func checkRatios(w io.Writer, specs []ratioSpec, medians map[string]float64) int {
	if len(specs) == 0 {
		return 0
	}
	code := 0
	fmt.Fprintf(w, "%-64s %9s %9s\n", "speedup (slow/fast medians, this run)", "actual", "min")
	for _, sp := range specs {
		fastNS, okF := medians[sp.fast]
		slowNS, okS := medians[sp.slow]
		label := sp.fast + " vs " + sp.slow
		if !okF || !okS {
			fmt.Fprintf(w, "%-64s %9s %9s\n", label, "MISSING", "-")
			code = 1
			continue
		}
		speedup := slowNS / fastNS
		min := "-"
		if sp.min > 0 {
			min = fmt.Sprintf("%.2fx", sp.min)
		}
		fmt.Fprintf(w, "%-64s %8.2fx %9s\n", label, speedup, min)
		if sp.min > 0 && speedup < sp.min {
			fmt.Fprintf(w, "benchdiff: FAIL — %s is only %.2fx faster than %s (need %.2fx)\n",
				sp.fast, speedup, sp.slow, sp.min)
			code = 1
		}
	}
	if code == 0 {
		fmt.Fprintln(w, "benchdiff: ratios OK")
	}
	return code
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchdiff:", err)
	os.Exit(1)
}
