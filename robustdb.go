// Package robustdb is a reproduction of "Robust Query Processing in
// Co-Processor-accelerated Databases" (Breß, Funke, Teubner — SIGMOD 2016):
// a column-oriented, operator-at-a-time analytical database engine with a
// simulated GPU co-processor, implementing the paper's contributions —
// data-driven operator placement, run-time placement, and query chopping —
// together with every baseline and benchmark its evaluation uses.
//
// The co-processor is a deterministic discrete-event simulation (device
// memory allocator, column cache, PCIe-like bus, calibrated cost models);
// query results are always computed exactly by real Go kernels, while
// execution time, transfers, operator aborts, and wasted work come from the
// simulated machine. See DESIGN.md for the model and EXPERIMENTS.md for the
// paper-versus-measured record.
//
// Quick start:
//
//	db := robustdb.OpenSSB(robustdb.SSBConfig{SF: 10})
//	dev := db.DeviceForWorkingSet(1.0) // device sized to the working set
//	q, _ := robustdb.SSBQuery("Q3.3")
//	res, stats, err := db.Query(dev, robustdb.DataDrivenChopping(), q)
package robustdb

import (
	"fmt"
	"time"

	"robustdb/internal/engine"
	"robustdb/internal/exec"
	"robustdb/internal/faults"
	"robustdb/internal/figures"
	"robustdb/internal/plan"
	"robustdb/internal/sim"
	"robustdb/internal/sql"
	"robustdb/internal/ssb"
	"robustdb/internal/table"
	"robustdb/internal/tpch"
	"robustdb/internal/trace"
	"robustdb/internal/workload"
)

// Re-exported configuration and result types.
type (
	// SSBConfig configures the Star Schema Benchmark generator.
	SSBConfig = ssb.Config
	// TPCHConfig configures the TPC-H generator.
	TPCHConfig = tpch.Config
	// Device sizes the simulated co-processor.
	Device = exec.Config
	// Strategy is an execution strategy (placement heuristic + chopping
	// bounds + data placement policy).
	Strategy = workload.Strategy
	// Workload describes a multi-user benchmark run.
	Workload = workload.Spec
	// WorkloadQuery is one named query of a workload.
	WorkloadQuery = workload.Query
	// Result aggregates the metrics of a workload run.
	Result = workload.Result
	// Plan is a physical query plan.
	Plan = plan.Plan
	// Table is an immutable column collection.
	Table = table.Table
	// Batch is a materialized query result.
	Batch = engine.Batch
	// FigureOptions tunes the figure regenerators.
	FigureOptions = figures.Options
	// Figure holds one regenerated figure of the paper.
	Figure = figures.Figure
	// FaultConfig configures the fault injector (seed + rates + schedule).
	FaultConfig = faults.Config
	// FaultInjector is a seeded, deterministic device-fault schedule; set it
	// on Device.Faults to run a chaos workload.
	FaultInjector = faults.Injector
	// Tracer records operator spans and placement-decision events during a
	// run; set it on Device.Tracer and export with WriteChromeTrace.
	Tracer = trace.Tracer
	// TraceSpan is one recorded operator or query execution.
	TraceSpan = trace.Span
	// TraceEvent is one recorded cache/placement decision.
	TraceEvent = trace.Event
)

// Tracing helpers: construct a tracer, export its contents as Chrome
// trace_event JSON (load in chrome://tracing or ui.perfetto.dev), read such a
// file back, and render plain-text reports.
var (
	// NewTracer creates a tracer with ring capacity n (n <= 0 for the
	// default of 65536 spans and events each).
	NewTracer = trace.New
	// WriteChromeTrace writes spans and events as Chrome trace_event JSON.
	WriteChromeTrace = trace.WriteChrome
	// ReadChromeTrace parses a Chrome trace_event JSON file written by
	// WriteChromeTrace back into spans and events.
	ReadChromeTrace = trace.ReadChrome
	// TraceWaterfall renders a plain-text per-query waterfall of a trace.
	TraceWaterfall = trace.Waterfall
	// TraceSummary renders per-query aggregates of a trace.
	TraceSummary = trace.Summary
	// TraceSummaryJSON renders per-query aggregates as JSON Lines (one
	// object per query).
	TraceSummaryJSON = trace.SummaryJSON
	// TracePipeline renders the per-query pipeline view of a trace: chunk
	// schedule, transfer-overlap ratio, and per-lane (h2d/compute/d2h) busy
	// fractions of every query that ran pipelined operators.
	TracePipeline = trace.PipelineView
	// TraceSlowest renders the N slowest queries of a trace by wall time,
	// each with a per-operator breakdown.
	TraceSlowest = trace.Slowest
)

// NewFaultInjector builds a deterministic fault injector from a config; the
// same config always produces the identical fault schedule.
var NewFaultInjector = faults.New

// Strategy catalogue (the six strategies of the paper's evaluation).
var (
	// CPUOnly runs everything on the host.
	CPUOnly = workload.CPUOnly
	// GPUOnly prefers the co-processor everywhere (with CPU fault fallback).
	GPUOnly = workload.GPUOnly
	// CriticalPath is CoGaDB's default compile-time optimizer.
	CriticalPath = workload.CriticalPath
	// DataDriven is compile-time data-driven placement (§3).
	DataDriven = workload.DataDriven
	// RunTime is run-time placement without concurrency bounds (§4).
	RunTime = workload.RunTime
	// Chopping is query chopping (§5.2).
	Chopping = workload.Chopping
	// DataDrivenChopping is the paper's combined contribution (§5.4).
	DataDrivenChopping = workload.DataDrivenChopping
	// AllStrategies lists the six evaluation strategies in plot order.
	AllStrategies = workload.AllStrategies
)

// DB is a database instance: a catalog of base tables.
type DB struct {
	cat *table.Catalog
}

// New creates an empty database; register tables with Register.
func New() *DB { return &DB{cat: table.NewCatalog()} }

// OpenSSB generates a Star Schema Benchmark database.
func OpenSSB(cfg SSBConfig) *DB { return &DB{cat: ssb.Generate(cfg)} }

// OpenTPCH generates a TPC-H database.
func OpenTPCH(cfg TPCHConfig) *DB { return &DB{cat: tpch.Generate(cfg)} }

// Catalog exposes the underlying catalog (for plan building against custom
// schemas).
func (db *DB) Catalog() *table.Catalog { return db.cat }

// Register adds a user table to the database.
func (db *DB) Register(t *Table) error { return db.cat.Register(t) }

// TotalBytes returns the database footprint.
func (db *DB) TotalBytes() int64 { return db.cat.TotalBytes() }

// DeviceForWorkingSet sizes a simulated co-processor relative to the
// database: the column cache gets fraction×database bytes, the heap twice
// that — the proportions of the paper's evaluation machine. Use a literal
// Device for full control.
func (db *DB) DeviceForWorkingSet(fraction float64) Device {
	cache := int64(fraction * float64(db.cat.TotalBytes()))
	return Device{CacheBytes: cache, HeapBytes: cache * 2}
}

// WorkingSet returns the byte footprint of a workload: the distinct base
// columns its queries read (the quantity of the paper's Figure 16). Device
// sizing relative to it controls which of the paper's effects a run hits.
func (db *DB) WorkingSet(queries []WorkloadQuery) int64 {
	return figures.WorkloadFootprint(db.cat, queries)
}

// Compressed returns a database whose integer and date columns are
// bit-packed. Compression shrinks the working set and every operator
// footprint by the real encoding ratio, moving the capacity knees of the
// paper's figures to larger scale factors and user counts without changing
// the effects themselves (§6.3). Query results are identical.
func (db *DB) Compressed() *DB { return &DB{cat: db.cat.Compressed()} }

// QueryStats reports a single query execution.
type QueryStats struct {
	// Latency is the simulated response time.
	Latency time.Duration
	// Aborts is the number of co-processor operator aborts the query
	// triggered.
	Aborts int64
}

// Query executes one plan on a fresh simulated machine under the strategy
// and returns the exact result the engine computed.
func (db *DB) Query(dev Device, strat Strategy, p *Plan) (*Batch, QueryStats, error) {
	e, err := workload.NewEngine(db.cat, dev, strat, []WorkloadQuery{{Name: "q", Plan: p}})
	if err != nil {
		return nil, QueryStats{}, err
	}
	var v *exec.Value
	var st exec.QueryStats
	e.Sim.Spawn("query", func(proc *sim.Proc) {
		v, st, err = e.RunQuery(proc, p, strat.Placer)
	})
	e.Sim.Run()
	if err != nil {
		return nil, QueryStats{}, err
	}
	return v.Batch, QueryStats{Latency: st.Latency, Aborts: e.Metrics.Aborts.Load()}, nil
}

// RunWorkload executes a multi-user workload on a fresh simulated machine
// and returns the engine (for metric inspection) and the aggregated result.
func (db *DB) RunWorkload(dev Device, strat Strategy, spec Workload) (*exec.Engine, Result, error) {
	return workload.Run(db.cat, dev, strat, spec)
}

// SQL compiles a SQL statement into a physical plan over this database.
// The supported subset covers the benchmark workloads: SELECT with
// aggregates and arithmetic, multi-table FROM with equi-join conditions in
// WHERE, BETWEEN/IN filters, GROUP BY, ORDER BY, and LIMIT (see
// internal/sql for the grammar). Plans needing more use the plan DSL.
func (db *DB) SQL(query string) (*Plan, error) {
	return sql.PlanQuery(db.cat, query)
}

// ExplainPayload is the JSON plan document EXPLAIN produces.
type ExplainPayload = plan.ExplainPayload

// ExplainSQL compiles the statement (with or without a leading EXPLAIN
// keyword) and renders its plan as a JSON-serializable tree: operator kinds,
// predicates, build sides, size/cardinality estimates, and the stored
// compression mode of every scanned column. Placement shows as "runtime" —
// the library surface has no strategy attached; the serve-mode /v1/explain
// endpoint reports the strategy's compile-time decisions.
func (db *DB) ExplainSQL(query string) (*ExplainPayload, error) {
	pl, err := db.SQL(query)
	if err != nil {
		return nil, err
	}
	payload, err := plan.Explain(pl, db.cat, nil)
	if err != nil {
		return nil, err
	}
	payload.SQL = query
	return payload, nil
}

// ExplainAnalyzeSQL compiles the statement, executes it once on a fresh
// simulated machine under the strategy, and returns the plan document with
// per-node actuals attached (rows, bytes, virtual wall/queue/transfer time,
// attempts, processor) — the library form of EXPLAIN ANALYZE. A tracer is
// required to correlate execution spans back to plan nodes; one is attached
// automatically when dev.Tracer is nil.
func (db *DB) ExplainAnalyzeSQL(dev Device, strat Strategy, query string) (*ExplainPayload, error) {
	pl, err := db.SQL(query)
	if err != nil {
		return nil, err
	}
	if err := pl.EstimateSizes(db.cat); err != nil {
		return nil, err
	}
	if dev.Tracer == nil {
		dev.Tracer = trace.New(0)
	}
	_, _, err = db.RunWorkload(dev, strat, Workload{
		Queries: []WorkloadQuery{{Name: "analyze", Plan: pl}},
		Users:   1,
	})
	if err != nil {
		return nil, err
	}
	payload, err := plan.Explain(pl, db.cat, nil)
	if err != nil {
		return nil, err
	}
	payload.SQL = query
	// The single executed query is the only query-class span in the tracer.
	for _, s := range dev.Tracer.Spans() {
		if s.Class == "query" {
			plan.AttachActuals(payload, s.Query, dev.Tracer.SpansFor(s.Query), "")
			break
		}
	}
	return payload, nil
}

// SSBQueries returns all 13 SSB queries as workload queries.
func SSBQueries() []WorkloadQuery {
	var out []WorkloadQuery
	for _, q := range ssb.Queries() {
		out = append(out, WorkloadQuery{Name: q.Name, Plan: q.Plan})
	}
	return out
}

// SSBQuery returns one SSB query by name ("Q1.1" … "Q4.3").
func SSBQuery(name string) (*Plan, error) {
	q, ok := ssb.QueryByName(name)
	if !ok {
		return nil, fmt.Errorf("robustdb: unknown SSB query %q", name)
	}
	return q.Plan, nil
}

// TPCHQueries returns the paper's TPC-H subset (Q2–Q7).
func TPCHQueries() []WorkloadQuery {
	var out []WorkloadQuery
	for _, q := range tpch.Queries() {
		out = append(out, WorkloadQuery{Name: q.Name, Plan: q.Plan})
	}
	return out
}

// TPCHQuery returns one TPC-H query by name ("Q2" … "Q7").
func TPCHQuery(name string) (*Plan, error) {
	q, ok := tpch.QueryByName(name)
	if !ok {
		return nil, fmt.Errorf("robustdb: unknown TPC-H query %q", name)
	}
	return q.Plan, nil
}

// RegenerateFigure reruns one of the paper's figures ("fig1" … "fig25").
func RegenerateFigure(id string, opts FigureOptions) ([]*Figure, error) {
	builder, ok := figures.All()[id]
	if !ok {
		return nil, fmt.Errorf("robustdb: unknown figure %q (have %v)", id, figures.IDs())
	}
	return builder(opts), nil
}

// FigureIDs lists the regenerable figures in paper order.
func FigureIDs() []string { return figures.IDs() }
