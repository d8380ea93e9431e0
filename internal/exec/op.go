package exec

import (
	"errors"
	"fmt"
	"log/slog"
	"sort"
	"strings"
	"time"

	"robustdb/internal/bus"
	"robustdb/internal/column"
	"robustdb/internal/cost"
	"robustdb/internal/device"
	"robustdb/internal/engine"
	"robustdb/internal/faults"
	"robustdb/internal/plan"
	"robustdb/internal/sim"
	"robustdb/internal/table"
	"robustdb/internal/trace"
)

// heapPhases describes the step-wise allocation of a device operator's
// footprint: He et al.'s kernels allocate input/flag buffers up front, then
// prefix-sum arrays, then result buffers, each after part of the kernel ran
// (§2.5.1: "we are forced to allocate memory in several steps and hold onto
// already allocated memory"). Each entry is (fraction of the footprint to
// allocate, fraction of the kernel to run afterwards).
var heapPhases = []struct {
	allocFraction   float64
	computeFraction float64
}{
	{0.85, 0.60},
	{0.15, 0.40},
}

// abortKind classifies why a device operator attempt gave up. The engine's
// degradation ladder reacts differently per class: capacity aborts fall back
// to the CPU immediately (the paper's §2.5.1 fault tolerance), transient
// faults are retried with backoff before falling back, and both fault kinds
// — unlike capacity aborts — count against device health.
type abortKind uint8

const (
	abortNone abortKind = iota
	// abortOOM: the device heap is full. Normal under contention; placement
	// handles it, the health tracker ignores it.
	abortOOM
	// abortFault: an injected transient fault (allocator or transfer).
	// Retryable; counts against device health.
	abortFault
	// abortReset: a device reset wiped the operator's state mid-run.
	// Retryable once the device is back; counts against device health.
	abortReset
)

// abortLabel is the trace-span cause string per abort kind.
func abortLabel(k abortKind, err error) string {
	switch {
	case err != nil:
		return "error"
	case k == abortOOM:
		return "oom"
	case k == abortFault:
		return "fault"
	case k == abortReset:
		return "reset"
	default:
		return ""
	}
}

// opStats carries the per-attempt observability measurements (queue wait,
// bus transfer time, heap high-water mark) out of the execution paths. It is
// passed and returned by value, so measuring costs no allocations and the
// tracing-disabled path stays free.
type opStats struct {
	queueWait time.Duration
	transfer  time.Duration
	heapHW    int64
	// kernelWorkers and morsels record the attempt's intra-operator
	// parallelism; both stay zero in serial mode so serial trace goldens
	// are unchanged.
	kernelWorkers int
	morsels       int64
	// rows and outBytes are the kernel's actual output (the "actual" side of
	// EXPLAIN ANALYZE); decompress is the volume materialized by decoding
	// compressed columns during the kernel, measured only when tracing is on
	// (the decode meter is process-global, so the delta is not read on the
	// disabled path).
	rows       int64
	outBytes   int64
	decompress int64
	// Pipelined-executor measurements; all zero on the serial paths so serial
	// trace goldens are unchanged.
	pipeDepth     int
	pipeChunks    int64
	pipeCPUChunks int64
	overlap       float64
}

// attempt is the work one device or host attempt runs. A whole-operator
// attempt (run == nil) executes n over its children's results, reads base
// columns through the device cache, and produces out. A chunk attempt
// executes the selection of a pipelined scan over rows [lo, hi): it
// streams that slice of every base column through the heap — only
// whole-operator attempts consult and admit to the cache — and hands the
// qualifying positions to its run. Both kinds go through the same device
// lifecycle (gpuAttempt), degradation ladder (gpuLadder), and host path
// (cpuAttempt).
type attempt struct {
	n      *plan.Node
	inputs []*Value

	run    *pipeRun // nil for whole-operator attempts
	chunk  int      // chunk index within run
	lo, hi int      // chunk row range
	in     int64    // chunk input bytes

	batch *engine.Batch  // whole-operator kernel output
	pos   column.PosList // chunk kernel output
	out   *Value         // whole-operator result
}

// execOp runs one operator on the chosen processor: GPU placements climb the
// degradation ladder (gpuLadder), and whatever the ladder gives up on runs on
// the CPU. With tracing on, every attempt emits one span recording where it
// ran, what it waited for, and why it gave up. Whether the *successors* stay
// on the GPU is not decided here: compile-time strategies keep their fixed
// placement (Figure 8, left), run-time strategies see the host-resident
// intermediate at the next placement decision (Figure 8, right).
func (e *Engine) execOp(p *sim.Proc, q *query, n *plan.Node, kind cost.ProcKind, inputs []*Value) (*Value, error) {
	e.pollReset(p.Now())
	if kind == cost.GPU && e.pipeDepth > 0 && len(inputs) == 0 && e.Health.AllowGPU(p.Now()) {
		// Scans with data to transfer run through the pipelined
		// executor; it declines (ran=false) when nothing would overlap.
		if v, ran, err := e.runPipelined(p, q, n); ran {
			return v, err
		}
	}
	a := &attempt{n: n, inputs: inputs}
	attempts := 0
	if kind == cost.GPU {
		var done bool
		var err error
		if attempts, done, err = e.gpuLadder(p, q, a); done || err != nil {
			return a.out, err
		}
	}
	start := p.Now()
	st, err := e.cpuAttempt(p, a)
	e.traceOp(q, n, cost.CPU, attempts, start, st, abortNone, err)
	return a.out, err
}

// gpuLadder runs device attempts of a until one completes. An attempt that
// aborts on a capacity failure gives up at once, so the work restarts on the
// CPU (CoGaDB's per-operator fault tolerance, §2.5.1); an attempt that aborts
// on a transient infrastructure fault or a device reset is retried with
// exponential virtual-time backoff up to the retry budget, then given up.
// Every attempt outcome feeds the device health tracker, and an open breaker
// gives up before attempting. done=false with a nil error means the caller
// redoes the work on the CPU; attempts is then the number of device attempts
// made, which the CPU attempt's span records.
func (e *Engine) gpuLadder(p *sim.Proc, q *query, a *attempt) (attempts int, done bool, err error) {
	for ; ; attempts++ {
		if a.run != nil && a.run.bail() {
			return attempts, false, nil
		}
		if !e.Health.AllowGPU(p.Now()) {
			e.Metrics.DegradedPlacements.Inc()
			return attempts, false, nil
		}
		e.Health.BeginAttempt()
		start := p.Now()
		st, abort, err := e.gpuAttempt(p, a)
		if a.run == nil {
			e.traceOp(q, a.n, cost.GPU, attempts, start, st, abort, err)
		} else {
			a.run.note(st)
		}
		if abort != abortNone && e.logEnabled(slog.LevelDebug) {
			e.logEvent(slog.LevelDebug, "operator aborted",
				slog.String("component", "exec"),
				slog.Duration("vt", p.Now()),
				slog.String("query", q.name),
				slog.String("operator", a.n.Op.Name()),
				slog.String("processor", "gpu"),
				slog.String("cause", abortLabel(abort, err)),
				slog.Int("attempt", attempts))
		}
		if err != nil {
			e.Health.RecordNeutral() // a query-logic error, not the device
			return attempts, false, err
		}
		switch abort {
		case abortNone:
			e.Health.RecordSuccess(p.Now())
			return attempts, true, nil
		case abortOOM:
			e.Health.RecordNeutral()
		default: // abortFault, abortReset
			e.Health.RecordFault(p.Now())
		}
		if abort == abortOOM || attempts+1 >= maxDeviceAttempts {
			return attempts + 1, false, nil // out of patience: degrade to the CPU
		}
		e.Metrics.Retries.Inc()
		p.Hold(backoff(attempts))
	}
}

// traceOp emits one operator-attempt span. With tracing off it is a
// single nil check — the per-operator cost of the disabled path.
func (e *Engine) traceOp(q *query, n *plan.Node, kind cost.ProcKind, attempt int,
	start time.Duration, st opStats, abort abortKind, err error) {
	if e.Tracer == nil {
		return
	}
	rows, outBytes := st.rows, st.outBytes
	if abort != abortNone || err != nil {
		// Aborted attempts report no actuals even when the kernel itself ran
		// (heap-phase aborts): the output was rolled back, not produced.
		rows, outBytes = 0, 0
	}
	e.Tracer.Span(trace.Span{
		Query:           q.name,
		Name:            procName(q.name, n),
		Op:              n.Op.Name(),
		Class:           n.Op.Class().String(),
		Proc:            kind.String(),
		Node:            n.ID(),
		Start:           start,
		End:             e.Sim.Now(),
		QueueWait:       st.queueWait,
		Transfer:        st.transfer,
		Abort:           abortLabel(abort, err),
		Attempt:         attempt,
		HeapHighWater:   st.heapHW,
		KernelWorkers:   st.kernelWorkers,
		MorselCount:     st.morsels,
		Compression:     e.compressionModes(n),
		Rows:            rows,
		OutBytes:        outBytes,
		DecompressBytes: st.decompress,
		PipelineDepth:   st.pipeDepth,
		ChunkCount:      st.pipeChunks,
		CPUChunks:       st.pipeCPUChunks,
		Overlap:         st.overlap,
	})
}

// compressionModes summarizes the compressed encodings of the base columns
// the operator reads ("bitpack", "rle", "bitpack+rle"). Plain and
// dictionary storage report nothing: dictionaries predate compressed
// execution, so only genuinely compressed scans annotate their spans (and
// goldens from uncompressed databases stay stable).
func (e *Engine) compressionModes(n *plan.Node) string {
	var modes []string
	seen := make(map[string]bool)
	for _, id := range n.Op.BaseColumns() {
		c, err := e.Cat.Column(id)
		if err != nil {
			continue // placement-level concern; traceOp stays best-effort
		}
		switch enc := column.Encoding(c); enc {
		case "bitpack", "rle":
			if !seen[enc] {
				seen[enc] = true
				modes = append(modes, enc)
			}
		}
	}
	sort.Strings(modes)
	return strings.Join(modes, "+")
}

// noteKernel folds one attempt's kernel parallelism into its stats and the
// morsel counter. A nil context (serial engine) records nothing, keeping
// serial spans byte-identical to the pre-parallel engine.
func (e *Engine) noteKernel(st *opStats, ectx *engine.Ctx) {
	if ectx == nil {
		return
	}
	st.kernelWorkers = ectx.Workers()
	st.morsels = ectx.Morsels()
	if st.morsels > 0 {
		e.Metrics.KernelMorsels.Add(st.morsels)
	}
}

// transferTimed runs one bus transfer and accumulates its virtual duration
// (successful or faulted) into acc. Successful payload bytes are counted on
// the per-direction registry counters so the observability windows see
// transfer volume as it happens.
func (e *Engine) transferTimed(p *sim.Proc, d bus.Direction, n int64, acc *time.Duration) error {
	t0 := p.Now()
	err := e.Bus.TryTransfer(p, d, n)
	*acc += p.Now() - t0
	if err == nil {
		if d == bus.HostToDevice {
			e.Metrics.H2DBytes.Add(n)
		} else {
			e.Metrics.D2HBytes.Add(n)
		}
	}
	return err
}

// gpuAttempt runs a on the co-processor: inputs are staged onto the device
// (stageInputs), the kernel allocates its heap footprint step-wise while it
// runs (deviceCompute), and the result is either kept device-resident or
// copied back — chunk results always stream back to the host. Any failure
// takes the one rollback path; a non-abortNone return means the attempt was
// rolled back and the ladder decides between retry and CPU fallback.
func (e *Engine) gpuAttempt(p *sim.Proc, a *attempt) (st opStats, abort abortKind, err error) {
	if a.run == nil {
		// Chunk attempts run inside their pipelined run's device worker.
		tq := p.Now()
		e.GPU.Workers.Acquire(p)
		st.queueWait = p.Now() - tq
		defer e.GPU.Workers.Release()
	}
	start := p.Now()
	res := e.Heap.Reserve()
	defer func() { st.heapHW = res.MaxHeld() }()

	refs, inBytes, err := e.stageInputs(p, a, res, &st)
	if err == nil {
		if a.run != nil {
			// One kernel at a time on the device while other chunks'
			// transfers proceed on the links — the overlap the pipelined
			// executor exists for.
			a.run.kexec.Acquire(p)
		}
		err = e.deviceCompute(p, a, res, inBytes, &st)
		if a.run != nil {
			a.run.kexec.Release()
		}
	}
	if err != nil {
		abort, err = e.rollback(p, res, refs, start, err)
		return st, abort, err
	}

	// Cleanup: cached inputs are no longer referenced, consumed device
	// intermediates are freed, and the reservation shrinks to the result.
	for _, id := range refs {
		e.Cache.Unref(id)
	}
	for _, in := range a.inputs {
		e.dropDevice(in)
	}
	if held := res.Held(); held >= st.outBytes {
		res.ReleasePartial(held - st.outBytes)
	} else if err := res.Grow(st.outBytes - held); err != nil {
		// The result itself does not fit (or faulted): late abort.
		abort, err = e.rollback(p, res, nil, start, err)
		return st, abort, err
	}
	if a.run == nil && !e.forceCopyBack {
		a.out = e.newDeviceValue(a.batch, res)
		return st, abortNone, nil
	}
	// Copy-back: a chunk's qualifying rows stream back while the next
	// chunk's kernel runs; UVA-style processing (ForceCopyBack) returns every
	// operator result.
	t0 := p.Now()
	if err := e.transferTimed(p, bus.DeviceToHost, st.outBytes, &st.transfer); err != nil {
		abort, err = e.rollback(p, res, nil, start, err)
		return st, abort, err
	}
	res.Release()
	if r := a.run; r != nil {
		if st.outBytes > 0 {
			r.stage(a.chunk, "download", "gpu", t0, p.Now(), e.Bus.Duration(bus.DeviceToHost, st.outBytes))
		}
		r.finish(a, cost.GPU)
		return st, abortNone, nil
	}
	a.out = &Value{Batch: a.batch, OnDevice: false}
	return st, abortNone, nil
}

// stageInputs makes a's inputs device-resident and returns the cache entries
// it referenced and the input volume. Operators start by allocating input
// memory (§4.1), so failures here abort cheaply. A whole-operator attempt
// reads base columns through the cache: hits are already resident, misses
// are admitted on demand (operator-driven data placement), and what the
// cache cannot hold streams through the heap, as do host-resident
// intermediates. A chunk attempt streams its slice of every base column
// through the heap in one upload.
func (e *Engine) stageInputs(p *sim.Proc, a *attempt, res *device.Reservation, st *opStats) (refs []table.ColumnID, inBytes int64, err error) {
	if r := a.run; r != nil {
		if err := res.Grow(a.in); err != nil {
			return nil, 0, err
		}
		t0 := p.Now()
		if err := e.transferTimed(p, bus.HostToDevice, a.in, &st.transfer); err != nil {
			return nil, 0, err
		}
		r.stage(a.chunk, "upload", "gpu", t0, p.Now(), e.Bus.Duration(bus.HostToDevice, a.in))
		return nil, a.in, nil
	}
	for _, id := range a.n.Op.BaseColumns() {
		colBytes, err := e.Cat.ColumnBytes(id)
		if err != nil {
			return refs, 0, err
		}
		inBytes += colBytes
		if e.Cache.Lookup(id) {
			if err := e.Cache.Ref(id); err != nil {
				return refs, 0, err
			}
			refs = append(refs, id)
			continue // cache hit: data is already resident
		}
		if evicted, ok := e.Cache.Insert(id, colBytes); ok {
			e.traceCacheAdmit(p.Now(), id, evicted, "operator-demand")
			if err := e.Cache.Ref(id); err != nil {
				return refs, 0, err
			}
			if err := e.transferTimed(p, bus.HostToDevice, colBytes, &st.transfer); err != nil {
				// The column never arrived: undo the placement.
				e.Cache.Unref(id)
				e.Cache.Evict(id)
				if e.Tracer != nil {
					e.Tracer.Event(trace.Event{At: p.Now(), Kind: "evict",
						Subject: string(id), Reason: "transfer-failed"})
				}
				return refs, 0, err
			}
			refs = append(refs, id)
			continue
		}
		if err := res.Grow(colBytes); err != nil {
			return refs, 0, err
		}
		if err := e.transferTimed(p, bus.HostToDevice, colBytes, &st.transfer); err != nil {
			return refs, 0, err
		}
	}
	for _, in := range a.inputs {
		inBytes += in.Bytes()
		if in.OnDevice {
			continue // produced by a GPU child, already resident
		}
		if err := res.Grow(in.Bytes()); err != nil {
			return refs, 0, err
		}
		if err := e.transferTimed(p, bus.HostToDevice, in.Bytes(), &st.transfer); err != nil {
			return refs, 0, err
		}
	}
	return refs, inBytes, nil
}

// deviceCompute runs a's kernel and charges its device time. Device
// operators cannot pre-declare their full heap demand (no concise upper bound
// for joins, §2.5.1), so they allocate in steps and hold what they already
// have (heapPhases): the first slice up front, the rest mid-kernel. Under
// contention the second step fails *after* part of the kernel ran — the
// wasted work behind heap contention (Figures 3 and 20). A device reset
// before or during the kernel fails it with device.ErrReset.
func (e *Engine) deviceCompute(p *sim.Proc, a *attempt, res *device.Reservation, inBytes int64, st *opStats) error {
	if e.pollReset(p.Now()) || !res.Valid() {
		// The device reset while (or right after) inputs were staged: all
		// staged state is gone.
		return device.ErrReset
	}
	if err := e.kernel(a, cost.GPU, st); err != nil {
		return err
	}
	class := a.n.Op.Class()
	work := cost.Work(inBytes, st.outBytes)
	footprint := e.Params.HeapFootprint(class, inBytes, st.outBytes)
	dur := e.Params.OpDuration(class, cost.GPU, work)
	slow := false
	if e.injector != nil {
		slowFactor, stall := e.injector.OpDelay(p.Now())
		if stall > 0 {
			// A stuck kernel: the device makes no progress for the stall.
			e.Metrics.StuckOps.Inc()
			p.Hold(stall)
		}
		if slowFactor != 1 {
			dur = time.Duration(float64(dur) * slowFactor)
			slow = true
		}
	}
	t0 := p.Now()
	for _, phase := range heapPhases {
		if err := res.Grow(int64(float64(footprint) * phase.allocFraction)); err != nil {
			return err // mid-kernel failure: the partial compute is wasted
		}
		e.GPU.Server.Execute(p, dur.Seconds()*phase.computeFraction)
		if e.pollReset(p.Now()) || !res.Valid() {
			return device.ErrReset // the reset wiped the kernel's state mid-run
		}
	}
	if r := a.run; r != nil {
		// The learner sees one observation per pipelined operator; the run
		// accumulates its chunks' device work for it.
		r.stage(a.chunk, "compute", "gpu", t0, p.Now(), dur)
		r.gpuWork += work
		r.gpuCompute += p.Now() - t0
		r.anySlow = r.anySlow || slow
		return nil
	}
	if !slow {
		// Degraded runs would poison the learner's calibration.
		e.observe(class, cost.GPU, work, p.Now()-t0)
	} else {
		e.Metrics.OperatorRuns.Inc()
	}
	e.Metrics.GPUOperators.Inc()
	e.Metrics.HeapHighWater.Max(e.Heap.HighWater())
	return nil
}

// rollback undoes a failed device attempt; every device failure takes this
// path, from a staging fault to a mid-kernel heap phase to a result that no
// longer fits. The failed allocation and its cleanup synchronize the device:
// every in-flight kernel stalls, and the attempt's memory is not reusable
// until the drain completes (cudaFree semantics). Under memory pressure these
// storms collapse GPU throughput — the amplification behind the paper's heap
// contention effect. The cause is classified for the ladder: an abort kind,
// or a hard error that fails the query.
func (e *Engine) rollback(p *sim.Proc, res *device.Reservation, refs []table.ColumnID, start time.Duration, cause error) (abortKind, error) {
	e.Metrics.Aborts.Inc()
	e.GPU.Server.Stall(e.Params.AbortSync)
	p.Hold(e.Params.AbortSync)
	for _, id := range refs {
		e.Cache.Unref(id)
	}
	res.Release()
	e.Metrics.WastedTime.Add(p.Now() - start)
	if k := e.classify(cause); k != abortNone {
		return k, nil
	}
	return abortNone, cause
}

// classify maps a failed attempt's cause to its abort kind, counting
// injected faults; abortNone means the cause is not an abort but a hard
// error that fails the query.
func (e *Engine) classify(err error) abortKind {
	switch {
	case errors.Is(err, device.ErrOutOfMemory):
		return abortOOM
	case errors.Is(err, device.ErrReset):
		return abortReset
	case faults.IsTransient(err):
		if errors.Is(err, faults.ErrInjectedAlloc) {
			e.Metrics.AllocFaults.Inc()
		} else {
			e.Metrics.TransferFaults.Inc()
		}
		return abortFault
	default:
		return abortNone
	}
}

// cpuAttempt runs a on the host. Device-resident inputs are copied back first
// (the extra transfers the paper attributes to aborted operators and to
// compile-time placement after faults); a copy-back that keeps faulting after
// retries fails the query cleanly. Chunks are not observed: the learner sees
// one observation per operator, and CPUOperators counts operators.
func (e *Engine) cpuAttempt(p *sim.Proc, a *attempt) (st opStats, err error) {
	tq := p.Now()
	e.CPU.Workers.Acquire(p)
	st.queueWait = p.Now() - tq
	defer e.CPU.Workers.Release()

	inBytes := a.in
	if a.run == nil {
		if inBytes, err = e.InputBytes(a.n, a.inputs); err != nil {
			return st, err
		}
		for _, in := range a.inputs {
			d, err := e.pullToHost(p, in)
			st.transfer += d
			if err != nil {
				return st, err
			}
		}
	} else if a.run.bail() {
		return st, nil
	}
	if err := e.kernel(a, cost.CPU, &st); err != nil {
		return st, err
	}
	class := a.n.Op.Class()
	work := cost.Work(inBytes, st.outBytes)
	dur := e.Params.OpDuration(class, cost.CPU, work)
	t0 := p.Now()
	e.CPU.Server.Execute(p, dur.Seconds())
	if r := a.run; r != nil {
		r.stage(a.chunk, "compute", "cpu", t0, p.Now(), dur)
		r.finish(a, cost.CPU)
		return st, nil
	}
	e.observe(class, cost.CPU, work, p.Now()-t0)
	e.Metrics.CPUOperators.Inc()
	a.out = &Value{Batch: a.batch, OnDevice: false}
	return st, nil
}

// kernel runs a's real computation (the simulator charges its cost
// separately) and records the output in a and its volume in st: the whole
// operator over its inputs, or the selection over the chunk's row range.
func (e *Engine) kernel(a *attempt, proc cost.ProcKind, st *opStats) error {
	if r := a.run; r != nil {
		pos, err := r.op.FilterChunk(r.ectx, e.Cat, a.lo, a.hi)
		if err != nil {
			return fmt.Errorf("%s on %s (chunk %d): %w", a.n.Op.Name(), proc, a.chunk, err)
		}
		a.pos = pos
		st.rows, st.outBytes = int64(len(pos)), int64(float64(len(pos))*r.info.OutRowBytes)
		return nil
	}
	ectx := e.kernelCtx()
	base := e.decodeMeter()
	result, err := a.n.Op.Execute(ectx, e.Cat, batchesOf(a.inputs))
	st.decompress = e.decodeMeter() - base
	e.noteKernel(st, ectx)
	if err != nil {
		return fmt.Errorf("%s on %s: %w", a.n.Op.Name(), proc, err)
	}
	a.batch = result
	st.rows, st.outBytes = int64(result.NumRows()), result.Bytes()
	return nil
}

// decodeMeter reads the process-global volume materialized by decoding
// compressed columns. Kernels report their delta only when tracing is on, so
// the disabled path never reads the shared meter.
func (e *Engine) decodeMeter() int64 {
	if e.Tracer == nil {
		return 0
	}
	return column.DecompressedBytes()
}

// pullToHost copies a device-resident value back to the host, retrying
// transient transfer faults with backoff, and returns the virtual bus time
// the copy-back consumed. After the retry budget the value stays
// device-resident and the error is returned — the caller fails the query,
// whose cleanup releases the device copy.
func (e *Engine) pullToHost(p *sim.Proc, v *Value) (time.Duration, error) {
	if !v.OnDevice {
		return 0, nil
	}
	var busTime time.Duration
	var err error
	for attempt := 0; attempt < maxDeviceAttempts; attempt++ {
		if attempt > 0 {
			e.Metrics.Retries.Inc()
			p.Hold(backoff(attempt - 1))
		}
		if !v.OnDevice {
			return busTime, nil // a device reset invalidated the copy; host batch is authoritative
		}
		err = e.transferTimed(p, bus.DeviceToHost, v.Bytes(), &busTime)
		if err == nil {
			e.dropDevice(v)
			return busTime, nil
		}
		e.Metrics.TransferFaults.Inc()
		e.Health.NoteFault(p.Now())
	}
	return busTime, fmt.Errorf("device copy-back of %d bytes failed: %w", v.Bytes(), err)
}

func batchesOf(inputs []*Value) []*engine.Batch {
	out := make([]*engine.Batch, len(inputs))
	for i, v := range inputs {
		out[i] = v.Batch
	}
	return out
}
