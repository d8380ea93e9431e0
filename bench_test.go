package robustdb

// One benchmark per table/figure of the paper's evaluation. Each benchmark
// regenerates its figure on the simulated machine and logs the series the
// paper plots (visible with `go test -bench=Fig -benchmem -v`); benchmark
// time is the cost of reproducing the experiment end to end, including data
// generation and every simulated run.
//
// The options keep the default `go test -bench=.` affordable; raise
// RowsPerSF/Reps (see cmd/benchfig) for sharper steady-state numbers.

import (
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"robustdb/internal/column"
	"robustdb/internal/cost"
	"robustdb/internal/engine"
	"robustdb/internal/exec"
	"robustdb/internal/expr"
	"robustdb/internal/figures"
	"robustdb/internal/par"
	"robustdb/internal/plan"
	"robustdb/internal/sim"
	"robustdb/internal/table"
)

// benchOpts is a reduced-scale configuration for the benchmark suite.
var benchOpts = figures.Options{RowsPerSF: 6000, Reps: 1, Seed: 0}

func benchmarkFigure(b *testing.B, id string) {
	builder, ok := figures.All()[id]
	if !ok {
		b.Fatalf("unknown figure %s", id)
	}
	logged := false
	for i := 0; i < b.N; i++ {
		figs := builder(benchOpts)
		if !logged {
			for _, f := range figs {
				b.Log("\n" + f.String())
			}
			logged = true
		}
	}
}

// BenchmarkFig01 regenerates Figure 1: Q3.3 CPU vs cold GPU vs hot GPU.
func BenchmarkFig01(b *testing.B) { benchmarkFigure(b, "fig1") }

// BenchmarkFig02 regenerates Figure 2: cache thrashing in the serial
// selection workload.
func BenchmarkFig02(b *testing.B) { benchmarkFigure(b, "fig2") }

// BenchmarkFig03 regenerates Figure 3: heap contention under parallel users.
func BenchmarkFig03(b *testing.B) { benchmarkFigure(b, "fig3") }

// BenchmarkFig05 regenerates Figure 5: the Figure 2 sweep under Data-Driven
// placement.
func BenchmarkFig05(b *testing.B) { benchmarkFigure(b, "fig5") }

// BenchmarkFig06 regenerates Figure 6: transfer times of the cache sweep.
func BenchmarkFig06(b *testing.B) { benchmarkFigure(b, "fig6") }

// BenchmarkFig07 regenerates Figure 7: Data-Driven does not fix contention.
func BenchmarkFig07(b *testing.B) { benchmarkFigure(b, "fig7") }

// BenchmarkFig09 regenerates Figure 9: run-time placement under contention.
func BenchmarkFig09(b *testing.B) { benchmarkFigure(b, "fig9") }

// BenchmarkFig12 regenerates Figure 12: query chopping is near optimal.
func BenchmarkFig12(b *testing.B) { benchmarkFigure(b, "fig12") }

// BenchmarkFig13 regenerates Figure 13: operator aborts per strategy.
func BenchmarkFig13(b *testing.B) { benchmarkFigure(b, "fig13") }

// BenchmarkFig14 regenerates Figure 14: SSBM/TPC-H time vs scale factor.
func BenchmarkFig14(b *testing.B) { benchmarkFigure(b, "fig14") }

// BenchmarkFig15 regenerates Figure 15: transfer time vs scale factor.
func BenchmarkFig15(b *testing.B) { benchmarkFigure(b, "fig15") }

// BenchmarkFig16 regenerates Figure 16: workload footprints vs scale factor.
func BenchmarkFig16(b *testing.B) { benchmarkFigure(b, "fig16") }

// BenchmarkFig17 regenerates Figure 17: selected SSB queries at SF 30.
func BenchmarkFig17(b *testing.B) { benchmarkFigure(b, "fig17") }

// BenchmarkFig18 regenerates Figure 18: workload time vs parallel users.
func BenchmarkFig18(b *testing.B) { benchmarkFigure(b, "fig18") }

// BenchmarkFig19 regenerates Figure 19: transfer time vs parallel users.
func BenchmarkFig19(b *testing.B) { benchmarkFigure(b, "fig19") }

// BenchmarkFig20 regenerates Figure 20: wasted time of aborted operators.
func BenchmarkFig20(b *testing.B) { benchmarkFigure(b, "fig20") }

// BenchmarkFig21 regenerates Figure 21: query latencies at 20 users,
// including the admission-control baseline.
func BenchmarkFig21(b *testing.B) { benchmarkFigure(b, "fig21") }

// BenchmarkFig22 regenerates Figure 22 (Appendix A): TPC-H comparator runs.
func BenchmarkFig22(b *testing.B) { benchmarkFigure(b, "fig22") }

// BenchmarkFig23 regenerates Figure 23 (Appendix A): SSB comparator runs.
func BenchmarkFig23(b *testing.B) { benchmarkFigure(b, "fig23") }

// BenchmarkFig24 regenerates Figure 24 (Appendix E): LFU vs LRU placement.
func BenchmarkFig24(b *testing.B) { benchmarkFigure(b, "fig24") }

// BenchmarkFig25 regenerates Figure 25 (appendix): all SSB latencies vs
// users.
func BenchmarkFig25(b *testing.B) { benchmarkFigure(b, "fig25") }

// BenchmarkAblateCompression regenerates the compression ablation (§6.3).
func BenchmarkAblateCompression(b *testing.B) { benchmarkFigure(b, "ablate-compression") }

// BenchmarkAblatePoolSize regenerates the thread-pool-bound ablation (§5.2).
func BenchmarkAblatePoolSize(b *testing.B) { benchmarkFigure(b, "ablate-poolsize") }

// BenchmarkAblateAbortSync regenerates the abort-stall sensitivity ablation.
func BenchmarkAblateAbortSync(b *testing.B) { benchmarkFigure(b, "ablate-abortsync") }

// BenchmarkQueryChopping measures the core engine path end to end: one
// Data-Driven Chopping execution of SSB Q3.3 per iteration, real kernels
// plus simulation included.
func BenchmarkQueryChopping(b *testing.B) {
	db := OpenSSB(SSBConfig{SF: 1, RowsPerSF: 6000, Seed: 0})
	q, err := SSBQuery("Q3.3")
	if err != nil {
		b.Fatal(err)
	}
	dev := db.DeviceForWorkingSet(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := db.Query(dev, DataDrivenChopping(), q); err != nil {
			b.Fatal(err)
		}
	}
}

// The BenchmarkMicro* set below is the pinned suite the CI perf-regression
// gate runs (`go test -run=NONE -bench=Micro -benchtime=200x -count=5 .`,
// compared against BENCH_BASELINE.json by cmd/benchdiff). Keep each
// iteration in the low-millisecond range and fully deterministic: fixed
// seeds, fixed scales, no wall-clock dependence in the measured work.

var (
	microOnce sync.Once
	microDB   *DB
)

// microDatabase builds the small fixed SSB instance the micro set shares.
func microDatabase() *DB {
	microOnce.Do(func() {
		microDB = OpenSSB(SSBConfig{SF: 1, RowsPerSF: 3000, Seed: 0})
	})
	return microDB
}

// microWorkload runs one small workload configuration to completion.
func microWorkload(b *testing.B, strat Strategy, users int, tracer *Tracer) {
	b.Helper()
	db := microDatabase()
	queries := SSBQueries()[:4] // Q1.1–Q2.1: scans, joins, aggregates
	dev := db.DeviceForWorkingSet(0.5)
	dev.Tracer = tracer
	dev.KernelWorkers = runtime.GOMAXPROCS(0)
	spec := Workload{Queries: queries, Users: users}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if tracer != nil {
			tracer.Reset()
		}
		if _, _, err := db.RunWorkload(dev, strat, spec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMicroChopping is the engine hot path: a single-user pass of four
// SSB queries under Data-Driven Chopping.
func BenchmarkMicroChopping(b *testing.B) {
	microWorkload(b, DataDrivenChopping(), 1, nil)
}

// BenchmarkMicroRuntime covers the run-time placement path (per-operator
// completion-time estimates and queue accounting).
func BenchmarkMicroRuntime(b *testing.B) {
	microWorkload(b, RunTime(), 1, nil)
}

// BenchmarkMicroMultiUser covers contention: four sessions sharing the
// device under chopping's bounded pools.
func BenchmarkMicroMultiUser(b *testing.B) {
	microWorkload(b, DataDrivenChopping(), 4, nil)
}

// BenchmarkMicroTraced is BenchmarkMicroChopping with a live tracer: the
// delta against it is the tracing overhead the zero-cost-off claim is about.
func BenchmarkMicroTraced(b *testing.B) {
	microWorkload(b, DataDrivenChopping(), 1, NewTracer(0))
}

// microKernelRows sizes the synthetic kernel benchmarks: large enough that
// the morsel scheduler splits the input (16 morsels of 8192 rows).
const microKernelRows = 1 << 17

var (
	microKernelOnce  sync.Once
	microKernelBatch *engine.Batch
	microKernelDim   *engine.Batch
)

// microKernelData builds the fixed seeded batches the kernel micro set
// shares: a 128Ki-row fact batch and a 4Ki-row dimension batch.
func microKernelData() (fact, dim *engine.Batch) {
	microKernelOnce.Do(func() {
		rng := rand.New(rand.NewSource(42))
		keys := make([]int64, microKernelRows)
		grps := make([]int64, microKernelRows)
		vals := make([]float64, microKernelRows)
		for i := range keys {
			keys[i] = int64(rng.Intn(4096))
			grps[i] = keys[i] % 32
			vals[i] = rng.Float64() * 1000
		}
		microKernelBatch = engine.MustNewBatch(
			column.NewInt64("fk", keys), column.NewInt64("grp", grps),
			column.NewFloat64("val", vals))
		dkeys := make([]int64, 4096)
		dgroup := make([]int64, 4096)
		for i := range dkeys {
			dkeys[i] = int64(i)
			dgroup[i] = int64(i % 32)
		}
		microKernelDim = engine.MustNewBatch(
			column.NewInt64("dk", dkeys), column.NewInt64("grp", dgroup))
	})
	return microKernelBatch, microKernelDim
}

// microKernelCtx is the pooled kernel context the micro kernels run under —
// the same GOMAXPROCS-wide pool the engine default uses.
func microKernelCtx() *engine.Ctx {
	return engine.NewCtx(par.New(runtime.GOMAXPROCS(0)))
}

// BenchmarkMicroJoin measures the partitioned hash join kernel alone: build
// over 4Ki dimension rows, probe over 128Ki fact rows, per iteration.
func BenchmarkMicroJoin(b *testing.B) {
	fact, dim := microKernelData()
	ctx := microKernelCtx()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := engine.HashJoin(ctx, dim, "dk", fact, "fk")
		if err != nil {
			b.Fatal(err)
		}
		if len(res.LeftPos) != microKernelRows {
			b.Fatalf("join produced %d pairs", len(res.LeftPos))
		}
	}
}

// BenchmarkMicroAgg measures the morsel-parallel group-by kernel alone:
// 128Ki rows into 32 groups with sum and count, per iteration.
func BenchmarkMicroAgg(b *testing.B) {
	fact, _ := microKernelData()
	ctx := microKernelCtx()
	aggs := []engine.AggSpec{
		{Func: engine.Sum, Col: "val", As: "s"},
		{Func: engine.Count, As: "n"},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := engine.GroupBy(ctx, fact, []string{"grp"}, aggs)
		if err != nil {
			b.Fatal(err)
		}
		if out.NumRows() != 32 {
			b.Fatalf("groupby produced %d groups", out.NumRows())
		}
	}
}

// BenchmarkMicroFilter measures the morsel-parallel selection kernel alone:
// one predicate over 128Ki rows, per iteration.
func BenchmarkMicroFilter(b *testing.B) {
	fact, _ := microKernelData()
	ctx := microKernelCtx()
	pred := expr.NewCmp("val", expr.LT, 500.0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pos, err := engine.Filter(ctx, fact, pred)
		if err != nil {
			b.Fatal(err)
		}
		if len(pos) == 0 {
			b.Fatal("filter selected nothing")
		}
	}
}

// BenchmarkMicroChromeExport measures trace serialization: one WriteChrome
// of a fixed 512-span, 256-event trace per iteration.
func BenchmarkMicroChromeExport(b *testing.B) {
	tr := NewTracer(0)
	for i := 0; i < 512; i++ {
		tr.Span(TraceSpan{
			Query: "q0001", Name: "q0001/op000", Op: "scan(t)", Class: "selection",
			Proc:  "gpu",
			Start: time.Duration(i) * time.Microsecond,
			End:   time.Duration(i+1) * time.Microsecond,
		})
	}
	for i := 0; i < 256; i++ {
		tr.Event(TraceEvent{At: time.Duration(i) * time.Microsecond,
			Kind: "admit", Subject: "t.x", Reason: "operator-demand"})
	}
	spans, events := tr.Spans(), tr.Events()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := WriteChromeTrace(io.Discard, spans, events); err != nil {
			b.Fatal(err)
		}
	}
}

// --- compressed execution micro set ---
//
// Each Compressed benchmark has a Decompress twin that runs the paper's
// decompress-first model — decode the encoded column, then execute on the
// flat data — over identical inputs. CI gates the Filter and Agg speedups
// (compressed must stay ≥1.5× faster) via cmd/benchdiff -ratios.

const microCompressedRows = 1 << 17

var (
	microCompOnce      sync.Once
	microCompFilterCol *column.CompressedInt64Column
	microCompFilter    *engine.Batch
	microCompAgg       *engine.Batch
	microCompAggCols   []*column.RLEInt64Column
	microCompJoinDim   *engine.Batch
	microCompJoinFact  *engine.Batch
)

// microCompressedData builds the fixed seeded inputs the compressed micro
// set shares. The shapes are deliberately encoding-friendly — clustered
// values for block skipping, 64-long runs for RLE folding, one key domain
// under two dictionaries for the join bridge — because the benchmarks
// measure what compressed execution buys when the encoding fits.
func microCompressedData() {
	microCompOnce.Do(func() {
		// Clustered (sorted) values: a narrow range predicate classifies
		// almost every 128-row bit-packed block as all-in or all-out, so the
		// scan kernel touches block headers instead of rows.
		vals := make([]int64, microCompressedRows)
		for i := range vals {
			vals[i] = int64(i >> 7)
		}
		microCompFilterCol = column.CompressInt64(column.NewInt64("v", vals))
		microCompFilter = engine.MustNewBatch(microCompFilterCol)

		// 64-long runs: the run-aware group-by folds each run in O(1).
		grps := make([]int64, microCompressedRows)
		rvals := make([]int64, microCompressedRows)
		for i := range grps {
			run := i >> 6
			grps[i] = int64(run % 32)
			rvals[i] = int64(run%7 + 1)
		}
		gc := column.CompressRLE("grp", grps)
		vc := column.CompressRLE("val", rvals)
		microCompAggCols = []*column.RLEInt64Column{gc, vc}
		microCompAgg = engine.MustNewBatch(gc, vc)

		// One key domain, two independently built dictionaries: the join
		// bridges build codes to probe codes once instead of hashing strings.
		dk := make([]string, 4096)
		for i := range dk {
			dk[i] = fmt.Sprintf("key-%04d", i)
		}
		fk := make([]string, microCompressedRows)
		rng := rand.New(rand.NewSource(99))
		for i := range fk {
			fk[i] = dk[rng.Intn(len(dk))]
		}
		microCompJoinDim = engine.MustNewBatch(column.NewString("dk", dk))
		microCompJoinFact = engine.MustNewBatch(column.NewString("fk", fk))
	})
}

// microCompAggSpecs is the shared aggregation shape: one run-foldable sum
// plus a count.
func microCompAggSpecs() []engine.AggSpec {
	return []engine.AggSpec{
		{Func: engine.Sum, Col: "val", As: "s"},
		{Func: engine.Count, As: "n"},
	}
}

// BenchmarkMicroCompressedFilter measures the code-domain range scan over
// the bit-packed column: block skipping, no decode.
func BenchmarkMicroCompressedFilter(b *testing.B) {
	microCompressedData()
	ctx := microKernelCtx()
	pred := expr.NewBetween("v", int64(400), int64(415))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pos, err := engine.Filter(ctx, microCompFilter, pred)
		if err != nil {
			b.Fatal(err)
		}
		if len(pos) != 16*128 {
			b.Fatalf("compressed filter selected %d rows", len(pos))
		}
	}
}

// BenchmarkMicroDecompressFilter is the decompress-first reference for
// BenchmarkMicroCompressedFilter: decode the column, then scan the values.
func BenchmarkMicroDecompressFilter(b *testing.B) {
	microCompressedData()
	ctx := microKernelCtx()
	pred := expr.NewBetween("v", int64(400), int64(415))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		flat := engine.MustNewBatch(microCompFilterCol.Decompress())
		pos, err := engine.Filter(ctx, flat, pred)
		if err != nil {
			b.Fatal(err)
		}
		if len(pos) != 16*128 {
			b.Fatalf("decompressed filter selected %d rows", len(pos))
		}
	}
}

// BenchmarkMicroCompressedAgg measures the run-aware group-by over RLE
// columns: each 64-row run folds in O(1).
func BenchmarkMicroCompressedAgg(b *testing.B) {
	microCompressedData()
	ctx := microKernelCtx()
	aggs := microCompAggSpecs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := engine.GroupBy(ctx, microCompAgg, []string{"grp"}, aggs)
		if err != nil {
			b.Fatal(err)
		}
		if out.NumRows() != 32 {
			b.Fatalf("compressed groupby produced %d groups", out.NumRows())
		}
	}
}

// BenchmarkMicroDecompressAgg is the decompress-first reference for
// BenchmarkMicroCompressedAgg: decode both RLE columns, then aggregate row
// by row.
func BenchmarkMicroDecompressAgg(b *testing.B) {
	microCompressedData()
	ctx := microKernelCtx()
	aggs := microCompAggSpecs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		flat := engine.MustNewBatch(
			microCompAggCols[0].Decompress(), microCompAggCols[1].Decompress())
		out, err := engine.GroupBy(ctx, flat, []string{"grp"}, aggs)
		if err != nil {
			b.Fatal(err)
		}
		if out.NumRows() != 32 {
			b.Fatalf("decompressed groupby produced %d groups", out.NumRows())
		}
	}
}

// BenchmarkMicroCompressedJoin measures the dictionary-bridge hash join:
// build and probe stay in the integer code domain, with one code→code
// bridge built over the 4Ki-entry dictionary per join.
func BenchmarkMicroCompressedJoin(b *testing.B) {
	microCompressedData()
	ctx := microKernelCtx()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := engine.HashJoin(ctx, microCompJoinDim, "dk", microCompJoinFact, "fk")
		if err != nil {
			b.Fatal(err)
		}
		if len(res.LeftPos) != microCompressedRows {
			b.Fatalf("bridge join produced %d pairs", len(res.LeftPos))
		}
	}
}

// BenchmarkMicroDecompressJoin is the decode-first reference for
// BenchmarkMicroCompressedJoin: join in the value domain, hashing every
// dictionary-decoded string on both sides.
func BenchmarkMicroDecompressJoin(b *testing.B) {
	microCompressedData()
	dim := microCompJoinDim.Columns()[0].(*column.StringColumn)
	fact := microCompJoinFact.Columns()[0].(*column.StringColumn)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ht := make(map[string]int32, dim.Len())
		for r := 0; r < dim.Len(); r++ {
			ht[dim.Value(r)] = int32(r)
		}
		pairs := 0
		for r := 0; r < fact.Len(); r++ {
			if _, ok := ht[fact.Value(r)]; ok {
				pairs++
			}
		}
		if pairs != microCompressedRows {
			b.Fatalf("value join produced %d pairs", pairs)
		}
	}
}

// --- pipelined chunk executor micro set ---
//
// Each pipelined benchmark has a serial twin differing only in PipelineDepth
// (2 vs 0). The interesting number is virtual time — the simulated latency
// the overlap schedule saves — reported as vt_ns/op; wall ns/op only measures
// simulator overhead. The CI gate holds the serial/pipelined virtual-time
// ratio above 1.3x (see .github/workflows/ci.yml and cmd/benchdiff).

// pipeBenchRows sizes the pipelined micro set: big enough that the chunk
// sizer produces a deep schedule (hundreds of chunks of >= 1Ki rows).
const pipeBenchRows = 1 << 19

var (
	pipeBenchOnce sync.Once
	pipeBenchCat  *table.Catalog
)

// pipeBenchCatalog builds the fixed transfer-bound fact + dimension tables
// the pipelined micro set shares.
func pipeBenchCatalog() *table.Catalog {
	pipeBenchOnce.Do(func() {
		vals := make([]int64, pipeBenchRows)
		qty := make([]int64, pipeBenchRows)
		price := make([]float64, pipeBenchRows)
		for i := range vals {
			vals[i] = int64(i % 100)
			qty[i] = int64(i % 4096)
			price[i] = float64(i%10) + 0.5
		}
		dk := make([]int64, 4096)
		dg := make([]int64, 4096)
		for i := range dk {
			dk[i] = int64(i)
			dg[i] = int64(i % 32)
		}
		cat := table.NewCatalog()
		cat.MustRegister(table.MustNew("bfact",
			column.NewInt64("v", vals),
			column.NewInt64("qty", qty),
			column.NewFloat64("price", price),
		))
		cat.MustRegister(table.MustNew("bdim",
			column.NewInt64("dk", dk),
			column.NewInt64("dg", dg),
		))
		pipeBenchCat = cat
	})
	return pipeBenchCat
}

// leafGPUPlacer runs leaf operators (the chunkable scans the pipelined
// executor drives) on the co-processor and everything downstream on the
// host, so pipelined and serial twins pay identical non-leaf costs.
type leafGPUPlacer struct{}

func (leafGPUPlacer) Name() string { return "leaf-gpu" }
func (leafGPUPlacer) CompileTime(_ *exec.Engine, p *Plan) map[int]cost.ProcKind {
	m := make(map[int]cost.ProcKind)
	for _, n := range p.Nodes() {
		if len(n.Children) == 0 {
			m[n.ID()] = cost.GPU
		} else {
			m[n.ID()] = cost.CPU
		}
	}
	return m
}
func (leafGPUPlacer) RunTime(*exec.Engine, *plan.Node, []*exec.Value) cost.ProcKind {
	return cost.CPU
}

// runPipeBench executes the plan on a fresh cold-cache engine per iteration
// (a warm cache would skip the transfers the pipeline overlaps) and reports
// the mean simulated latency as vt_ns/op.
func runPipeBench(b *testing.B, mkPlan func() *Plan, depth int) {
	b.Helper()
	cat := pipeBenchCatalog()
	var vt time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := exec.New(cat, exec.Config{
			CacheBytes:    1 << 30,
			HeapBytes:     1 << 30,
			PipelineDepth: depth,
		})
		var st exec.QueryStats
		var err error
		e.Sim.Spawn("bench", func(p *sim.Proc) {
			_, st, err = e.RunQuery(p, mkPlan(), leafGPUPlacer{})
		})
		e.Sim.Run()
		if err != nil {
			b.Fatal(err)
		}
		vt += st.Latency
	}
	b.ReportMetric(float64(vt.Nanoseconds())/float64(b.N), "vt_ns/op")
}

// pipeFilterPlan is a selectivity-1 scan: pure transfer-bound chunk work.
func pipeFilterPlan() *Plan {
	return plan.New(plan.Scan("bfact", []string{"v", "qty", "price"}, expr.NewCmp("v", expr.LT, 1000)))
}

// pipeAggPlan feeds the pipelined scan into a host-side group-by.
func pipeAggPlan() *Plan {
	scan := plan.Scan("bfact", []string{"v", "qty", "price"}, expr.NewCmp("v", expr.LT, 1000))
	return plan.New(plan.Aggregate(scan, []string{"v"}, []engine.AggSpec{
		{Func: engine.Sum, Col: "price", As: "s"},
	}))
}

// pipeJoinPlan probes the pipelined fact scan against a small dimension.
func pipeJoinPlan() *Plan {
	fact := plan.Scan("bfact", []string{"qty", "price"}, expr.NewCmp("v", expr.LT, 1000))
	dim := plan.Scan("bdim", []string{"dk", "dg"}, nil)
	return plan.New(plan.Join(dim, fact, "dk", "qty", []string{"dg"}, []string{"price"}))
}

func BenchmarkMicroPipelinedFilter(b *testing.B) { runPipeBench(b, pipeFilterPlan, 2) }

func BenchmarkMicroSerialFilter(b *testing.B) { runPipeBench(b, pipeFilterPlan, 0) }

func BenchmarkMicroPipelinedAgg(b *testing.B) { runPipeBench(b, pipeAggPlan, 2) }

func BenchmarkMicroSerialAgg(b *testing.B) { runPipeBench(b, pipeAggPlan, 0) }

func BenchmarkMicroPipelinedJoin(b *testing.B) { runPipeBench(b, pipeJoinPlan, 2) }

func BenchmarkMicroSerialJoin(b *testing.B) { runPipeBench(b, pipeJoinPlan, 0) }
