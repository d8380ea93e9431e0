package exec

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"robustdb/internal/column"
	"robustdb/internal/cost"
	"robustdb/internal/expr"
	"robustdb/internal/faults"
	"robustdb/internal/plan"
	"robustdb/internal/sim"
	"robustdb/internal/trace"
)

// scanPlan is a single chunkable leaf: the shape the pipelined executor runs.
func scanPlan() *plan.Plan {
	return plan.New(plan.Scan("fact", []string{"v", "qty", "price"}, expr.NewCmp("v", expr.LT, 50)))
}

// requireSameBatch asserts bit-identical scan results.
func requireSameBatch(t *testing.T, want, got *Value) {
	t.Helper()
	if want.Batch.NumRows() != got.Batch.NumRows() {
		t.Fatalf("row counts differ: want %d, got %d", want.Batch.NumRows(), got.Batch.NumRows())
	}
	for _, name := range []string{"v", "qty", "price"} {
		wc, gc := want.Batch.MustColumn(name), got.Batch.MustColumn(name)
		switch wcc := wc.(type) {
		case *column.Int64Column:
			gcc := gc.(*column.Int64Column)
			for i := range wcc.Values {
				if wcc.Values[i] != gcc.Values[i] {
					t.Fatalf("column %s differs at row %d: want %d, got %d", name, i, wcc.Values[i], gcc.Values[i])
				}
			}
		case *column.Float64Column:
			gcc := gc.(*column.Float64Column)
			for i := range wcc.Values {
				if wcc.Values[i] != gcc.Values[i] {
					t.Fatalf("column %s differs at row %d: want %v, got %v", name, i, wcc.Values[i], gcc.Values[i])
				}
			}
		default:
			t.Fatalf("column %s: unexpected type %T", name, wc)
		}
	}
}

// TestPipelinedBitIdenticalToSerial is the core exactness property: across
// pipeline depths, kernel worker counts, co-execution, and fault injection,
// the pipelined executor returns exactly the serial result — and leaks no
// device heap.
func TestPipelinedBitIdenticalToSerial(t *testing.T) {
	const rows = 65536
	cat := testCatalog(rows)
	serial := New(cat, Config{CacheBytes: 1 << 30, HeapBytes: 1 << 30})
	want, _ := runQueryOnce(t, serial, scanPlan(), fixedPlacer{cost.GPU})

	depths := []int{1, 2, 4}
	workers := []int{0, 2, runtime.GOMAXPROCS(0)}
	for _, depth := range depths {
		for _, kw := range workers {
			for _, coexec := range []bool{false, true} {
				for _, withFaults := range []bool{false, true} {
					cfg := Config{
						CacheBytes:        1 << 30,
						HeapBytes:         1 << 30,
						KernelWorkers:     kw,
						PipelineDepth:     depth,
						PipelineCoExec:    coexec,
						PipelineChunkRows: 4096,
					}
					if withFaults {
						cfg.Faults = faults.New(faults.Config{
							Seed:             7,
							TransferFailRate: 0.2,
							AllocFailRate:    0.1,
							Stop:             2 * time.Millisecond,
						})
					}
					e := New(cat, cfg)
					got, _ := runQueryOnce(t, e, scanPlan(), fixedPlacer{cost.GPU})
					requireSameBatch(t, want, got)
					if used := e.Heap.Used(); used != 0 {
						t.Fatalf("depth=%d kw=%d coexec=%v faults=%v: heap leak of %d bytes",
							depth, kw, coexec, withFaults, used)
					}
					if e.Metrics.PipelinedOps.Load() == 0 {
						t.Fatalf("depth=%d: operator did not run pipelined", depth)
					}
					if e.Metrics.PipelineChunks.Load() < 2 {
						t.Fatalf("depth=%d: expected >= 2 chunks, got %d", depth, e.Metrics.PipelineChunks.Load())
					}
				}
			}
		}
	}
}

// TestPipelinedDeterministic: two identical pipelined runs produce identical
// virtual latency and metrics — the simulator's reproducibility contract
// extends to the chunk schedule.
func TestPipelinedDeterministic(t *testing.T) {
	cat := testCatalog(65536)
	run := func() (time.Duration, int64) {
		e := New(cat, Config{CacheBytes: 1 << 30, HeapBytes: 1 << 30,
			PipelineDepth: 2, PipelineCoExec: true, PipelineChunkRows: 4096})
		_, st := runQueryOnce(t, e, scanPlan(), fixedPlacer{cost.GPU})
		return st.Latency, e.Metrics.PipelineChunks.Load()
	}
	l1, c1 := run()
	l2, c2 := run()
	if l1 != l2 || c1 != c2 {
		t.Fatalf("non-deterministic pipelined run: latency %v vs %v, chunks %d vs %d", l1, l2, c1, c2)
	}
}

// TestPipelinedOverlapBeatsSerial: on a transfer-bound scan the pipelined
// schedule must be strictly faster than the serial transfer-then-compute
// path, the overlap ratio must be observed, and the trace must show an upload
// running while a compute runs (the visible double-buffering).
func TestPipelinedOverlapBeatsSerial(t *testing.T) {
	const rows = 262144
	cat := testCatalog(rows)
	pl := func() *plan.Plan { // selectivity 1: every row passes, transfer-bound both ways
		return plan.New(plan.Scan("fact", []string{"v", "qty", "price"}, expr.NewCmp("v", expr.LT, 1000)))
	}
	serial := New(cat, Config{CacheBytes: 1 << 30, HeapBytes: 1 << 30})
	_, stSerial := runQueryOnce(t, serial, pl(), fixedPlacer{cost.GPU})

	tr := trace.New(1 << 16)
	piped := New(cat, Config{CacheBytes: 1 << 30, HeapBytes: 1 << 30,
		PipelineDepth: 2, PipelineChunkRows: 16384, Tracer: tr})
	_, stPiped := runQueryOnce(t, piped, pl(), fixedPlacer{cost.GPU})

	if stPiped.Latency >= stSerial.Latency {
		t.Fatalf("pipelined (%v) not faster than serial (%v)", stPiped.Latency, stSerial.Latency)
	}
	if n := piped.Metrics.QueryOverlapRatio.Count(); n != 1 {
		t.Fatalf("overlap ratio observations = %d, want 1", n)
	}
	if r := piped.Metrics.QueryOverlapRatio.Sum(); r <= 0.1 {
		t.Fatalf("overlap ratio %v, want > 0.1 on a transfer-bound scan", r)
	}

	// The schedule must visibly overlap: some chunk's upload interval must
	// intersect another chunk's device compute interval.
	var uploads, computes []trace.Span
	for _, s := range tr.Spans() {
		if s.Class != "chunk" {
			continue
		}
		switch s.Op {
		case "upload":
			uploads = append(uploads, s)
		case "compute":
			if s.Proc == "gpu" {
				computes = append(computes, s)
			}
		}
	}
	if len(uploads) < 2 || len(computes) < 2 {
		t.Fatalf("expected chunk stage spans, got %d uploads / %d computes", len(uploads), len(computes))
	}
	overlapping := false
	for _, u := range uploads {
		for _, c := range computes {
			if u.Name != c.Name && u.Start < c.End && c.Start < u.End {
				overlapping = true
			}
		}
	}
	if !overlapping {
		t.Fatal("no upload span overlaps a compute span: the pipeline is not overlapping")
	}

	// The bus busy meters mirrored the link busy time into the registry.
	if piped.Metrics.BusBusyH2D.Load() <= 0 || piped.Metrics.BusBusyD2H.Load() <= 0 {
		t.Fatalf("bus busy meters not wired: h2d=%v d2h=%v",
			piped.Metrics.BusBusyH2D.Load(), piped.Metrics.BusBusyD2H.Load())
	}
}

// TestPipelinedDeadlineCancelsInFlightChunks: a deadline that fires mid-chunk
// fails the query cleanly — in-flight chunks drain without deadlock and every
// device reservation is released.
func TestPipelinedDeadlineCancelsInFlightChunks(t *testing.T) {
	cat := testCatalog(262144)
	e := New(cat, Config{CacheBytes: 1 << 30, HeapBytes: 1 << 30,
		PipelineDepth: 2, PipelineChunkRows: 8192,
		QueryDeadline: 200 * time.Microsecond})
	var err error
	e.Sim.Spawn("session", func(p *sim.Proc) {
		_, _, err = e.RunQuery(p, scanPlan(), fixedPlacer{cost.GPU})
	})
	e.Sim.Run()
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if e.Metrics.DeadlineFailures.Load() != 1 {
		t.Fatalf("deadline failures = %d, want 1", e.Metrics.DeadlineFailures.Load())
	}
	if used := e.Heap.Used(); used != 0 {
		t.Fatalf("cancelled pipelined query leaked %d heap bytes", used)
	}
}

// TestPipelinedCoExecUsesCPU: with co-execution on and a single transfer-bound
// operator, the policy hands some trailing chunks to the CPU pool, and the
// result is still exact (covered by the identity test; here we assert the CPU
// actually participated and the EXPLAIN fields surface it).
func TestPipelinedCoExecUsesCPU(t *testing.T) {
	cat := testCatalog(262144)
	tr := trace.New(1 << 16)
	e := New(cat, Config{CacheBytes: 1 << 30, HeapBytes: 1 << 30,
		PipelineDepth: 1, PipelineCoExec: true, PipelineChunkRows: 4096, Tracer: tr})
	// Selectivity-1 scan: the GPU pipeline saturates on the bus, which is
	// when the co-execution policy starts pulling chunks onto the CPU.
	pl := plan.New(plan.Scan("fact", []string{"v", "qty", "price"}, expr.NewCmp("v", expr.LT, 1000)))
	runQueryOnce(t, e, pl, fixedPlacer{cost.GPU})
	if e.Metrics.PipelineCPUChunks.Load() == 0 {
		t.Fatal("co-execution never handed a chunk to the CPU")
	}
	// The attempt span carries the pipeline fields.
	var found bool
	for _, s := range tr.Spans() {
		if s.Class != "chunk" && s.Class != "query" && s.ChunkCount > 0 {
			found = true
			if s.PipelineDepth != 1 {
				t.Fatalf("span pipeline depth = %d, want 1", s.PipelineDepth)
			}
			if s.CPUChunks == 0 {
				t.Fatal("span CPU chunk count is zero despite CPU co-execution")
			}
		}
	}
	if !found {
		t.Fatal("no operator span carried pipeline fields")
	}
}

// TestPipelineDepthZeroIsSeedBehavior: depth 0 must not touch the pipelined
// path at all — counters stay zero and traces carry no chunk spans.
func TestPipelineDepthZeroIsSeedBehavior(t *testing.T) {
	cat := testCatalog(65536)
	tr := trace.New(1 << 16)
	e := New(cat, Config{CacheBytes: 1 << 30, HeapBytes: 1 << 30, Tracer: tr})
	runQueryOnce(t, e, scanPlan(), fixedPlacer{cost.GPU})
	if e.Metrics.PipelinedOps.Load() != 0 || e.Metrics.PipelineChunks.Load() != 0 {
		t.Fatal("pipelined counters moved with pipelining off")
	}
	for _, s := range tr.Spans() {
		if s.Class == "chunk" {
			t.Fatal("chunk span emitted with pipelining off")
		}
		if s.PipelineDepth != 0 || s.ChunkCount != 0 || s.Overlap != 0 {
			t.Fatalf("span %s carries pipeline fields with pipelining off", s.Name)
		}
	}
}

// TestPipelinedFaultsRedoOnCPU: device chunks climb the serial degradation
// ladder. A transient fault (allocator or transfer) retries the whole chunk
// attempt with backoff; a chunk still failing after the retry budget — every
// transfer failing — redoes on the CPU. Either way the query completes
// exactly, the faults are counted, and no heap leaks.
func TestPipelinedFaultsRedoOnCPU(t *testing.T) {
	cat := testCatalog(65536)
	serial := New(cat, Config{CacheBytes: 1 << 30, HeapBytes: 1 << 30})
	want, _ := runQueryOnce(t, serial, scanPlan(), fixedPlacer{cost.GPU})

	cases := []struct {
		name   string
		faults faults.Config
		redo   bool // every device attempt fails: chunks must redo on the CPU
	}{
		{"transfer-always", faults.Config{Seed: 3, TransferFailRate: 1}, true},
		{"transfer-transient", faults.Config{Seed: 3, TransferFailRate: 0.3}, false},
		{"alloc-transient", faults.Config{Seed: 5, AllocFailRate: 0.2}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := New(cat, Config{CacheBytes: 1 << 30, HeapBytes: 1 << 30,
				PipelineDepth: 2, PipelineChunkRows: 8192,
				Faults: faults.New(tc.faults),
			})
			got, _ := runQueryOnce(t, e, scanPlan(), fixedPlacer{cost.GPU})
			requireSameBatch(t, want, got)
			if e.Metrics.TransferFaults.Load()+e.Metrics.AllocFaults.Load() == 0 {
				t.Fatal("injected faults not counted")
			}
			if e.Metrics.Retries.Load() == 0 {
				t.Fatal("faulted chunk attempts were not retried")
			}
			if tc.redo && e.Metrics.PipelineCPUChunks.Load() == 0 {
				t.Fatal("faulted device chunks did not redo on the CPU")
			}
			if used := e.Heap.Used(); used != 0 {
				t.Fatalf("faulted pipelined run leaked %d heap bytes", used)
			}
		})
	}
}

// TestPipelinedHeapContentionFollowsSerialModel: a chunk allocates its heap
// footprint step-wise like a whole operator, so with a heap that holds the
// chunk's input and first phase but not its second, every device chunk
// aborts mid-kernel, stalls the device for AbortSync, and redoes on the CPU —
// counted as aborts and wasted time exactly as serial heap contention is.
func TestPipelinedHeapContentionFollowsSerialModel(t *testing.T) {
	const rows, chunkRows = 65536, 8192
	cat := testCatalog(rows)
	serial := New(cat, Config{CacheBytes: 1 << 30, HeapBytes: 1 << 30})
	want, _ := runQueryOnce(t, serial, scanPlan(), fixedPlacer{cost.GPU})

	info, err := scanPlan().Root.Op.(plan.ChunkableOp).ChunkInfo(cat)
	if err != nil {
		t.Fatal(err)
	}
	params := cost.DefaultParams()
	chunkIn := int64(float64(chunkRows) * info.InRowBytes())
	footprint := params.HeapFootprint(cost.Selection, chunkIn, 0)
	first := int64(float64(footprint) * heapPhases[0].allocFraction)
	second := int64(float64(footprint) * heapPhases[1].allocFraction)
	heap := chunkIn + first + second/2 // the second phase cannot fit

	e := New(cat, Config{CacheBytes: 1 << 30, HeapBytes: heap,
		PipelineDepth: 1, PipelineChunkRows: chunkRows})
	got, _ := runQueryOnce(t, e, scanPlan(), fixedPlacer{cost.GPU})
	requireSameBatch(t, want, got)
	if e.Metrics.PipelinedOps.Load() != 1 {
		t.Fatal("operator did not run pipelined")
	}
	aborts := e.Metrics.Aborts.Load()
	if aborts == 0 {
		t.Fatal("no chunk aborted on a heap too small for its second phase")
	}
	if wasted := e.Metrics.WastedTime.Load(); wasted < time.Duration(aborts)*params.AbortSync {
		t.Fatalf("wasted time %v below %d aborts x AbortSync %v", wasted, aborts, params.AbortSync)
	}
	if e.Metrics.PipelineCPUChunks.Load() == 0 {
		t.Fatal("aborted chunks did not redo on the CPU")
	}
	if used := e.Heap.Used(); used != 0 {
		t.Fatalf("aborted chunks leaked %d heap bytes", used)
	}
}

// TestPipelineSizesChunksFromLearner: an engine built with New and a
// pipeline depth but no PipelineChunkRows override sizes its chunks with the
// learner-driven sizer. A 200k-row scan reading 24 B and emitting 16 B per
// row splits into 7 chunks at depth 2 — not an equal split into depth+2.
func TestPipelineSizesChunksFromLearner(t *testing.T) {
	const rows = 200_000
	cat := testCatalog(rows)
	pl := plan.New(plan.Scan("fact", []string{"qty", "price"}, expr.NewCmp("v", expr.LT, 50)))
	info, err := pl.Root.Op.(plan.ChunkableOp).ChunkInfo(cat)
	if err != nil {
		t.Fatal(err)
	}
	if info.InRowBytes() != 24 || info.OutRowBytes != 16 {
		t.Fatalf("scan shape %v B in / %v B out, want 24 / 16", info.InRowBytes(), info.OutRowBytes)
	}
	e := New(cat, Config{CacheBytes: 1 << 30, HeapBytes: 1 << 30, PipelineDepth: 2})
	runQueryOnce(t, e, pl, fixedPlacer{cost.GPU})
	if e.Metrics.PipelinedOps.Load() != 1 {
		t.Fatal("scan did not run pipelined")
	}
	if got := e.Metrics.PipelineChunks.Load(); got != 7 {
		t.Fatalf("scan split into %d chunks, want 7", got)
	}
}

// The chunk sizer's contract: chunks stay within [minChunkRows, totalRows],
// large tables always get at least depth+1 chunks (the pipeline cannot
// overlap otherwise), and the fixed per-chunk overhead stays amortized.
func TestPipelineChunkRowsBounds(t *testing.T) {
	params := cost.DefaultParams()
	learner := cost.NewLearner(params)
	for _, totalRows := range []int{1, 512, 1024, 100_000, 10_000_000} {
		for _, depth := range []int{0, 1, 2, 4, 8} {
			rows := sizeChunkRows(learner, params, cost.Selection, totalRows, 24, 16, depth)
			if rows <= 0 {
				t.Fatalf("rows=%d depth=%d: sizer returned %d", totalRows, depth, rows)
			}
			if rows > totalRows {
				t.Fatalf("rows=%d depth=%d: chunk %d exceeds table", totalRows, depth, rows)
			}
			if totalRows >= minChunkRows && rows < minChunkRows {
				t.Fatalf("rows=%d depth=%d: chunk %d below minChunkRows", totalRows, depth, rows)
			}
			d := depth
			if d < 1 {
				d = 1
			}
			if totalRows/(d+1) >= minChunkRows {
				k := (totalRows + rows - 1) / rows
				if k < d+1 {
					t.Fatalf("rows=%d depth=%d: only %d chunks, pipeline cannot fill", totalRows, depth, k)
				}
			}
		}
	}
	if sizeChunkRows(learner, params, cost.Selection, 0, 24, 16, 2) != 0 {
		t.Fatal("empty table must size to zero")
	}
}
