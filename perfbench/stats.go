package main

import (
	"fmt"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// quantile returns the nearest-rank q-quantile of xs (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// maxRSSMB returns the process's peak resident set size in MB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// cpuTime returns the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runtimeSample reads the Go runtime's allocation and CPU-class counters.
type runtimeSample struct {
	allocBytes, gcCPU, totalCPU float64
}

var runtimeNames = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeSample{allocBytes: val(0), gcCPU: val(1), totalCPU: val(2)}
}

func (a runtimeSample) sub(b runtimeSample) runtimeSample {
	return runtimeSample{a.allocBytes - b.allocBytes, a.gcCPU - b.gcCPU, a.totalCPU - b.totalCPU}
}

func (a runtimeSample) add(b runtimeSample) runtimeSample {
	return runtimeSample{a.allocBytes + b.allocBytes, a.gcCPU + b.gcCPU, a.totalCPU + b.totalCPU}
}

// hostNow reads the host clock. The benchmark measures host time by design;
// the engine under it still runs in virtual time.
func hostNow() time.Time {
	//lint:ignore virtualtime the benchmark measures host time
	return time.Now()
}

// sleepUntil blocks until the host clock reaches t.
func sleepUntil(t time.Time) {
	//lint:ignore virtualtime the open-loop generator paces arrivals in host time
	time.Sleep(t.Sub(hostNow()))
}

// logf writes one diagnostic line to standard error.
func logf(format string, args ...any) {
	//lint:ignore errdrop a failed write to standard error has nowhere to be reported
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}
