package main

import (
	"sort"
	"time"

	"robustdb/internal/trace"
)

const mb = 1 << 20

// engineLayers derives the exec, cache, bus, device and chopping metrics of
// a measured window from the engine registry's change over it and the
// engine's virtual-time spans in it; makespan is the window's virtual time.
func engineLayers(r *run, delta trace.Snapshot, spans []trace.Span, makespan time.Duration) {
	c := delta.Counters
	f := func(name string) float64 { return float64(c[name]) }
	r.set("exec.aborts", "count", f("Aborts"))
	r.set("exec.wasted_vt_ms", "ms", ms(delta.Durations["WastedTime"]))
	r.set("exec.retries", "count", f("Retries"))
	r.set("exec.gpu_ops", "count", f("GPUOperators"))
	r.set("exec.cpu_ops", "count", f("CPUOperators"))
	r.set("exec.pipelined_ops", "count", f("PipelinedOps"))
	r.set("exec.pipeline_chunks", "count", f("PipelineChunks"))
	r.set("exec.pipeline_cpu_chunk_frac", "ratio", ratio(f("PipelineCPUChunks"), f("PipelineChunks")))
	r.set("cache.hit_ratio", "ratio", ratio(f("CacheHits"), f("CacheHits")+f("CacheMisses")))
	r.set("cache.evictions", "count", f("CacheEvictions"))
	r.set("cache.readmits", "count", f("CacheReadmits"))
	r.set("bus.h2d_mb", "MB", f("H2DBytes")/mb)
	r.set("bus.d2h_mb", "MB", f("D2HBytes")/mb)
	vt := float64(makespan)
	r.set("bus.h2d_busy_frac", "ratio", ratio(float64(delta.Durations[trace.LabeledName("BusBusy", "direction", "h2d")]), vt))
	r.set("bus.d2h_busy_frac", "ratio", ratio(float64(delta.Durations[trace.LabeledName("BusBusy", "direction", "d2h")]), vt))
	r.set("device.heap_high_water_mb", "MB", float64(delta.Gauges["HeapHighWater"])/mb)

	// Operator attempts are the spans that are neither query nor chunk-stage
	// spans; their busy interval starts once a worker slot was granted.
	waits := map[string][]float64{}
	busy := map[string][][2]time.Duration{}
	pipelined := map[string]bool{}
	for _, s := range spans {
		if s.Class == "query" || s.Class == "chunk" {
			continue
		}
		waits[s.Proc] = append(waits[s.Proc], ms(s.QueueWait))
		busy[s.Proc] = append(busy[s.Proc], [2]time.Duration{s.Start + s.QueueWait, s.End})
		if s.PipelineDepth > 0 {
			pipelined[s.Query] = true
		}
	}
	var overlap []float64
	for _, s := range spans {
		if s.Class == "query" && pipelined[s.Query] {
			overlap = append(overlap, s.Overlap)
		}
	}
	r.set("exec.overlap_ratio.p50", "ratio", median(overlap))
	r.set("chopping.gpu_queue_wait_vt_ms.p50", "ms", median(waits["gpu"]))
	r.set("chopping.cpu_queue_wait_vt_ms.p50", "ms", median(waits["cpu"]))
	r.set("exec.gpu_busy_vt_frac", "ratio", ratio(float64(union(busy["gpu"])), vt))
	r.set("exec.cpu_busy_vt_frac", "ratio", ratio(float64(union(busy["cpu"])), vt))
}

// union returns the total length of the union of intervals.
func union(iv [][2]time.Duration) time.Duration {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end time.Duration
	started := false
	var start time.Duration
	for _, x := range iv {
		switch {
		case !started:
			start, end, started = x[0], x[1], true
		case x[0] > end:
			total += end - start
			start, end = x[0], x[1]
		case x[1] > end:
			end = x[1]
		}
	}
	if started {
		total += end - start
	}
	return total
}
