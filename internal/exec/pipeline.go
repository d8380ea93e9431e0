// Pipelined chunk execution: the engine splits a chunkable leaf operator
// into row-range chunks and runs them through a bounded double-buffered
// schedule — while chunk i computes on the device, chunk i+1 uploads over the
// H2D link and chunk i−1's result downloads over the D2H link. The
// full-duplex bus (separate DMA engines per direction, §2.5.3) makes the
// three stages genuinely concurrent, hiding most of the PCIe transfer time
// that otherwise serializes ahead of the kernel (Figure 2's thrashing cost).
//
// Correctness is by construction: FilterChunk over a partition of [0, rows)
// concatenated in range order equals the serial evaluation bit-identically
// (row-local predicates — the same argument the morsel kernels make), and the
// single final MaterializeResult sees exactly the serial position list. The
// schedule changes only *when* work happens, never *what* is computed.
//
// Robustness is not re-implemented here: each chunk is an attempt over its
// row range on the engine's one device lifecycle (gpuAttempt, gpuLadder,
// cpuAttempt in op.go), so step-wise heap allocation, the abort stall, and
// the retry-then-CPU ladder apply to chunks exactly as to whole operators.
//
// Co-execution: with PipelineCoExec on, trailing chunks are handed to the CPU
// worker pool when the device side is saturated or the circuit breaker has
// degraded the device — the §5.2 idea that a chopped operator stream can
// drain on both processors at once. Results stitch in chunk order regardless
// of where each chunk ran.
package exec

import (
	"fmt"
	"time"

	"robustdb/internal/bus"
	"robustdb/internal/column"
	"robustdb/internal/cost"
	"robustdb/internal/engine"
	"robustdb/internal/plan"
	"robustdb/internal/sim"
	"robustdb/internal/trace"
)

// pipelineChunkRowsFor resolves the chunk size for one pipelined operator:
// a fixed override (ablations sweep it), the configured cost-model sizer, or
// the built-in equal split into depth+2 chunks.
func (e *Engine) pipelineChunkRowsFor(class cost.OpClass, info plan.ChunkInfo) int {
	if e.pipeChunkRows > 0 {
		r := e.pipeChunkRows
		if r > info.Rows {
			r = info.Rows
		}
		return r
	}
	if e.chunkSizer != nil {
		return e.chunkSizer(e.Learner, e.Params, class, info.Rows, info.InRowBytes(), info.OutRowBytes, e.pipeDepth)
	}
	parts := e.pipeDepth + 2
	r := (info.Rows + parts - 1) / parts
	if r < 1 {
		r = 1
	}
	return r
}

// pipelinePlanFor decides whether the pipelined executor applies to a
// GPU-placed leaf and returns its chunking. It declines (k < 2) when the
// operator is not chunkable, the chunk sizer cannot split it, or its inputs
// are already device-resident — with nothing to transfer there is nothing to
// overlap, and the serial path serves the cache hit.
func (e *Engine) pipelinePlanFor(n *plan.Node) (plan.ChunkableOp, plan.ChunkInfo, int, int) {
	if e.pipeDepth <= 0 || len(n.Children) != 0 {
		return nil, plan.ChunkInfo{}, 0, 0
	}
	op, ok := n.Op.(plan.ChunkableOp)
	if !ok {
		return nil, plan.ChunkInfo{}, 0, 0
	}
	if e.TransferInEstimate(cost.GPU, n, nil) == 0 {
		return nil, plan.ChunkInfo{}, 0, 0
	}
	info, err := op.ChunkInfo(e.Cat)
	if err != nil {
		e.NoteCatalogError(err)
		return nil, plan.ChunkInfo{}, 0, 0
	}
	if info.Rows <= 0 {
		return nil, plan.ChunkInfo{}, 0, 0
	}
	chunkRows := e.pipelineChunkRowsFor(n.Op.Class(), info)
	if chunkRows <= 0 {
		return nil, plan.ChunkInfo{}, 0, 0
	}
	k := (info.Rows + chunkRows - 1) / chunkRows
	if k < 2 {
		return nil, plan.ChunkInfo{}, 0, 0
	}
	return op, info, chunkRows, k
}

// PipelinedGPUEstimate estimates the seconds a GPU placement of n would take
// through the pipelined executor: per-chunk stage times rolled up with the
// overlap-aware makespan instead of summed transfer + compute. ok is false
// when the operator would not run pipelined, in which case callers fall back
// to the serial estimate.
func (e *Engine) PipelinedGPUEstimate(n *plan.Node) (float64, bool) {
	op, info, chunkRows, k := e.pipelinePlanFor(n)
	if op == nil {
		return 0, false
	}
	chunkIn := int64(float64(chunkRows) * info.InRowBytes())
	chunkOut := int64(float64(chunkRows) * info.OutRowBytes) // selectivity-1 bound
	up := e.Bus.Duration(bus.HostToDevice, chunkIn)
	down := e.Bus.Duration(bus.DeviceToHost, chunkOut)
	comp := e.Learner.Estimate(n.Op.Class(), cost.GPU, cost.Work(chunkIn, chunkOut))
	return cost.PipelinedDuration(up, comp, down, k).Seconds(), true
}

// pipeRun is the shared state of one pipelined operator execution. The
// simulator serializes all processes, so plain fields are safe.
type pipeRun struct {
	e     *Engine
	q     *query
	n     *plan.Node
	op    plan.ChunkableOp
	info  plan.ChunkInfo
	class cost.OpClass
	name  string
	ectx  *engine.Ctx

	chunkRows int
	k         int

	// inFlight bounds the buffered device chunks to the pipeline depth —
	// the mbarrier-style producer/consumer credit of a double-buffered
	// schedule. kexec is the single device compute slot: one kernel runs at a
	// time while transfers of other chunks proceed on the links.
	inFlight *sim.Pool
	kexec    *sim.Pool
	done     *sim.Signal

	results   []column.PosList
	remaining int
	err       error

	gpuChunks  int64
	cpuChunks  int64
	anySlow    bool
	transfer   time.Duration // accumulated bus time (incl. queueing), for the op span
	stageTime  time.Duration // ideal serial stage time (service times, no queueing)
	gpuWork    int64
	gpuCompute time.Duration
	maxHeld    int64 // largest chunk attempt's heap high-water mark
}

// runPipelined executes a chunkable GPU-placed leaf through the pipelined
// schedule. ran=false means the executor declined and the caller should run
// the serial path; ran=true means the operator finished here (possibly with
// an error that fails the query).
func (e *Engine) runPipelined(p *sim.Proc, q *query, n *plan.Node) (*Value, bool, error) {
	op, info, chunkRows, k := e.pipelinePlanFor(n)
	if op == nil {
		return nil, false, nil
	}
	opStart := p.Now()
	e.GPU.Workers.Acquire(p)
	defer e.GPU.Workers.Release()
	queueWait := p.Now() - opStart

	r := &pipeRun{
		e:         e,
		q:         q,
		n:         n,
		op:        op,
		info:      info,
		class:     n.Op.Class(),
		name:      procName(q.name, n),
		ectx:      e.kernelCtx(),
		chunkRows: chunkRows,
		k:         k,
		results:   make([]column.PosList, k),
		remaining: k,
	}
	r.inFlight = sim.NewPool(e.Sim, r.name+".pipe", e.pipeDepth)
	r.kexec = sim.NewPool(e.Sim, r.name+".kexec", 1)
	r.done = sim.NewSignal(e.Sim)
	start := p.Now()
	for i := 0; i < k; i++ {
		i := i
		e.Sim.Spawn(fmt.Sprintf("%s/c%03d", r.name, i), func(cp *sim.Proc) {
			r.runChunk(cp, i)
		})
	}
	r.done.Wait(p)

	var st opStats
	st.queueWait = queueWait
	st.transfer = r.transfer
	st.heapHW = r.maxHeld
	st.pipeDepth = e.pipeDepth
	st.pipeChunks = int64(k)
	st.pipeCPUChunks = r.cpuChunks
	kind := cost.GPU
	if r.gpuChunks == 0 {
		kind = cost.CPU
	}
	if r.err == nil && q.err != nil {
		r.err = q.err
	}
	if r.err != nil {
		e.traceOp(q, n, kind, 0, opStart, st, abortNone, r.err)
		return nil, true, r.err
	}

	// Stitch: concatenate the per-chunk position lists in chunk order and
	// materialize once. The rows were computed and transferred back inside
	// the chunk stages, so the stitch itself is free in virtual time.
	total := 0
	for _, pos := range r.results {
		total += len(pos)
	}
	var pos column.PosList
	if total > 0 {
		pos = make(column.PosList, 0, total)
		for _, part := range r.results {
			pos = append(pos, part...)
		}
	}
	decodeBase := e.decodeMeter()
	result, merr := r.op.MaterializeResult(r.ectx, e.Cat, pos)
	st.decompress = e.decodeMeter() - decodeBase
	e.noteKernel(&st, r.ectx)
	if merr != nil {
		err := fmt.Errorf("%s pipelined: %w", n.Op.Name(), merr)
		e.traceOp(q, n, kind, 0, opStart, st, abortNone, err)
		return nil, true, err
	}
	st.rows, st.outBytes = int64(result.NumRows()), result.Bytes()

	// Overlap: the ideal serial schedule costs the sum of all stage service
	// times; the pipelined wall time (after admission) is what it actually
	// took. The hidden difference is the overlap win.
	wall := p.Now() - start
	if r.stageTime > 0 {
		hidden := r.stageTime - wall
		if hidden < 0 {
			hidden = 0
		}
		st.overlap = float64(hidden) / float64(r.stageTime)
		if st.overlap > 1 {
			st.overlap = 1
		}
		q.pipeStage += r.stageTime
		q.pipeHidden += hidden
	}

	if r.gpuChunks > 0 && !r.anySlow && r.gpuCompute > 0 {
		e.observe(r.class, cost.GPU, r.gpuWork, r.gpuCompute)
	} else {
		e.Metrics.OperatorRuns.Inc()
	}
	if kind == cost.GPU {
		e.Metrics.GPUOperators.Inc()
	} else {
		e.Metrics.CPUOperators.Inc()
	}
	e.Metrics.PipelinedOps.Inc()
	e.Metrics.PipelineChunks.Add(int64(k))
	e.Metrics.PipelineCPUChunks.Add(r.cpuChunks)
	e.Metrics.HeapHighWater.Max(e.Heap.HighWater())
	e.traceOp(q, n, kind, 0, opStart, st, abortNone, nil)
	// Chunk results streamed back to the host as they completed, so the
	// stitched value is host-resident (the transfer cost is already paid —
	// nothing is saved by leaving a copy on the device).
	return &Value{Batch: result, OnDevice: false}, true, nil
}

// bail reports whether the run should stop early: the query failed (deadline,
// sibling operator error) or a sibling chunk hit a hard error.
func (r *pipeRun) bail() bool { return r.err != nil || r.q.err != nil }

// fail records the first hard error of the run.
func (r *pipeRun) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// complete retires one chunk; the last one wakes the driver.
func (r *pipeRun) complete() {
	r.remaining--
	if r.remaining == 0 {
		r.done.Fire()
	}
}

// stage records one completed chunk stage: its ideal service time for the
// overlap ratio, and one pipeline-stage span (Class "chunk"). EXPLAIN ANALYZE
// and the per-node report breakdowns filter this class; the Chrome export
// shows the stage bars overlapping inside the query lane.
func (r *pipeRun) stage(i int, name, proc string, start, end, service time.Duration) {
	r.stageTime += service
	if r.e.Tracer == nil {
		return
	}
	r.e.Tracer.Span(trace.Span{
		Query: r.q.name,
		Name:  fmt.Sprintf("%s/c%03d:%s", r.name, i, name),
		Op:    name,
		Class: "chunk",
		Proc:  proc,
		Node:  r.n.ID(),
		Start: start,
		End:   end,
	})
}

// note folds one device chunk attempt's measurements into the operator span.
func (r *pipeRun) note(st opStats) {
	r.transfer += st.transfer
	if st.heapHW > r.maxHeld {
		r.maxHeld = st.heapHW
	}
}

// finish stores a completed chunk's positions for the stitch.
func (r *pipeRun) finish(a *attempt, kind cost.ProcKind) {
	r.results[a.chunk] = a.pos
	if kind == cost.GPU {
		r.gpuChunks++
	} else {
		r.cpuChunks++
	}
}

// runChunk executes chunk i: on the device through the bounded pipeline, or
// on the CPU when co-execution takes it or the device ladder gave up on it.
// The chunk climbs the same ladder as a whole operator: a capacity abort
// redoes it on the CPU at once, a transient fault retries the attempt with
// backoff before redoing it there. FilterChunk is pure, so a redo reproduces
// exactly the positions the device attempt would have produced.
func (r *pipeRun) runChunk(p *sim.Proc, i int) {
	defer r.complete()
	if r.bail() {
		return
	}
	lo := i * r.chunkRows
	hi := lo + r.chunkRows
	if hi > r.info.Rows {
		hi = r.info.Rows
	}
	a := &attempt{n: r.n, run: r, chunk: i, lo: lo, hi: hi,
		in: int64(float64(hi-lo) * r.info.InRowBytes())}
	outMax := int64(float64(hi-lo) * r.info.OutRowBytes)
	if !r.wantCPU(p, a.in, outMax) {
		// At most depth chunks hold device state at once, including a
		// faulted chunk backing off between its attempts.
		r.inFlight.Acquire(p)
		_, done, err := r.e.gpuLadder(p, r.q, a)
		r.inFlight.Release()
		if err != nil {
			r.fail(err)
			return
		}
		if done || r.bail() {
			return
		}
	}
	if _, err := r.e.cpuAttempt(p, a); err != nil {
		r.fail(err)
	}
}

// wantCPU is the co-execution policy: hand this chunk to the CPU when the
// breaker keeps it off the device, or when the device backlog (buffered +
// queued chunks) would make the CPU finish it sooner than the pipeline's
// bottleneck cycle predicts the device will get to it.
func (r *pipeRun) wantCPU(p *sim.Proc, chunkIn, outMax int64) bool {
	if !r.e.pipeCoExec {
		return false
	}
	e := r.e
	if !e.Health.AllowGPU(p.Now()) {
		return true
	}
	work := cost.Work(chunkIn, outMax)
	cpuSec := e.Learner.Estimate(r.class, cost.CPU, work).Seconds() + e.Outstanding(cost.CPU)
	up := e.Bus.Duration(bus.HostToDevice, chunkIn).Seconds()
	comp := e.Params.OpDuration(r.class, cost.GPU, work).Seconds()
	down := e.Bus.Duration(bus.DeviceToHost, outMax).Seconds()
	cycle := up
	if comp > cycle {
		cycle = comp
	}
	if down > cycle {
		cycle = down
	}
	backlog := r.inFlight.InUse() + r.inFlight.Waiting()
	return cpuSec < cycle*float64(backlog+1)
}
