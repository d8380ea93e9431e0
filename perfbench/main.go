// Command perfbench is the end-to-end benchmark of robustdb. It runs one
// workload for a fixed host-time budget, checks every result against a
// reference row digest, and prints one JSON line with the end-to-end
// metrics (or, with -trace 1, the per-layer metrics) that BENCHMARK.json
// names. See README.md for the workloads and the metric definitions.
//
// Usage (from the repository root, after building):
//
//	perfbench --workload ssb-fit --seed 1 --seconds 30 --trace 0
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run is the state of one benchmark invocation.
type run struct {
	workload string
	seed     int64
	seconds  time.Duration
	traced   bool
	out      string    // directory for fingerprints and trace files
	code     string    // hash of the running binary; keys stored fingerprints
	rec      *recorder // the benchmark's own spans; nil when untraced

	mu                sync.Mutex // guards the counts and problems
	attempted, failed int64
	problems          []string
	metrics           map[string]metric
}

func (r *run) set(name, unit string, v float64) {
	r.metrics[name] = metric{Value: finite(v), Unit: unit}
}

// count adds attempted and failed operations; wrong lists wrong results.
func (r *run) count(attempted, failed int64, wrong []string) {
	r.mu.Lock()
	r.attempted += attempted
	r.failed += failed
	r.mu.Unlock()
	for _, w := range wrong {
		r.wrong("%s", w)
	}
}

// wrong records a correctness failure.
func (r *run) wrong(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	logf("WRONG: %s", msg)
	r.mu.Lock()
	r.problems = append(r.problems, msg)
	r.mu.Unlock()
}

// checkFingerprint compares a pass fingerprint with the one an earlier run
// of the same binary, workload and seed stored under the output directory,
// or stores it. Keying by the binary keeps an intended change of the code
// from reading as nondeterminism.
func (r *run) checkFingerprint(fp string) {
	path := filepath.Join(r.out, "fingerprints", fmt.Sprintf("%s-%s-seed%d", r.code, r.workload, r.seed))
	prev, err := os.ReadFile(path)
	switch {
	case err == nil && string(prev) != fp:
		r.wrong("fingerprint %.12s differs from %.12s of an earlier run of this binary with seed %d", fp, prev, r.seed)
	case err != nil:
		if err := os.WriteFile(path, []byte(fp), 0o644); err != nil {
			logf("%v", err)
		}
	}
}

// binaryHash returns a short sha256 of the running executable.
func binaryHash() (string, error) {
	path, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

// benchSpec is the part of BENCHMARK.json that names the metrics.
type benchSpec struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

// emit selects the metrics BENCHMARK.json names for this mode. An
// end-to-end metric the workload did not produce is an error; a per-layer
// metric a workload does not exercise reads 0.
func (r *run) emit(spec benchSpec) (map[string]metric, error) {
	list := spec.EndToEnd
	if r.traced {
		list = spec.PerLayer
	}
	out := make(map[string]metric, len(list))
	for _, m := range list {
		got, ok := r.metrics[m.Name]
		switch {
		case !ok && !r.traced:
			return nil, fmt.Errorf("workload %s does not produce %s", r.workload, m.Name)
		case !ok:
			got = metric{Unit: m.Unit}
		case got.Unit != m.Unit:
			return nil, fmt.Errorf("%s is measured in %s, BENCHMARK.json says %s", m.Name, got.Unit, m.Unit)
		}
		out[m.Name] = got
	}
	return out, nil
}

func main() {
	workloadName := flag.String("workload", "", "ssb-fit, ssb-scarce or http-mixed")
	seed := flag.Int64("seed", 1, "seed of the generated data and arrivals")
	seconds := flag.Int("seconds", 30, "host seconds to measure")
	traceMode := flag.Int("trace", 0, "1 reports the per-layer metrics of a traced run")
	out := flag.String("out", ".bench_build/perfbench", "directory for fingerprints and trace files")
	specPath := flag.String("spec", "BENCHMARK.json", "benchmark definition naming the metrics")
	flag.Parse()

	fail := func(err error) {
		logf("%v", err)
		os.Exit(1)
	}
	raw, err := os.ReadFile(*specPath)
	if err != nil {
		fail(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		fail(fmt.Errorf("%s: %w", *specPath, err))
	}
	if *seconds < 1 || (*traceMode != 0 && *traceMode != 1) {
		fail(fmt.Errorf("need -seconds >= 1 and -trace 0 or 1"))
	}
	for _, dir := range []string{"fingerprints", "trace"} {
		if err := os.MkdirAll(filepath.Join(*out, dir), 0o755); err != nil {
			fail(err)
		}
	}
	code, err := binaryHash()
	if err != nil {
		fail(err)
	}
	r := &run{
		workload: *workloadName,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		traced:   *traceMode == 1,
		out:      *out,
		code:     code,
		metrics:  make(map[string]metric),
	}
	if r.traced {
		r.rec = newRecorder()
	}
	if lib, ok := libWorkloads[r.workload]; ok {
		err = runLibrary(r, lib)
	} else if r.workload == httpMixed {
		err = runHTTP(r)
	} else {
		err = fmt.Errorf("unknown workload %q", r.workload)
	}
	if err != nil {
		fail(err)
	}
	if _, ok := r.metrics["max_rss_mb"]; !ok {
		r.set("max_rss_mb", "MB", maxRSSMB())
	}
	if r.traced {
		r.set("failed_frac", "ratio", ratio(float64(r.failed), float64(r.attempted)))
		self, ids := selfTimes(r.rec.all())
		for _, name := range spanNames {
			r.set("self_host_ms."+name, "ms", ratio(ms(self[name]), float64(ids[name])))
		}
		path := filepath.Join(r.out, "trace", fmt.Sprintf("%s-seed%d.jsonl", r.workload, r.seed))
		if err := r.rec.write(path); err != nil {
			fail(err)
		}
	}
	if r.attempted < 1 {
		fail(fmt.Errorf("no operation was attempted"))
	}
	metrics, err := r.emit(spec)
	if err != nil {
		fail(err)
	}
	line, err := json.Marshal(report{
		Correct:   len(r.problems) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   metrics,
	})
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
	if len(r.problems) > 0 {
		os.Exit(1)
	}
}
