package main

import (
	"time"

	"robustdb/internal/workload"
)

// The pinned configuration of every workload. README.md gives the reason
// for each choice; change a value here only together with that document.

const (
	// scaleFactor and rowsPerSF size the SSB database: SF10 at the
	// generator's default 60k lineorder rows per SF (about 62 MB).
	scaleFactor = 10
	rowsPerSF   = 60000

	// pipelineDepth and pipelineCoExec are the serve-mode defaults of
	// cmd/robustdb; kernel workers are GOMAXPROCS, also its default.
	pipelineDepth  = 2
	pipelineCoExec = true

	// setupReps is how often a run repeats its set-up; setup_s reports the
	// median.
	setupReps = 9
)

// libSpec configures a closed-loop library workload over the 13 SSB plans.
type libSpec struct {
	strategy func() workload.Strategy
	// cacheFrac sizes the device cache as a share of the workload's working
	// set (its distinct base columns).
	cacheFrac float64
	// users is the closed-loop session count of a pass.
	users int
}

var libWorkloads = map[string]libSpec{
	"ssb-fit":    {strategy: workload.DataDrivenChopping, cacheFrac: 1.0, users: 4},
	"ssb-scarce": {strategy: workload.GPUOnly, cacheFrac: 0.3, users: 8},
}

// Every library pass issues queriesPerPass queries; the device heap is
// heapPerCache × the cache.
const (
	queriesPerPass = 104
	heapPerCache   = 2
)

// httpMixed is the workload served through the HTTP front door.
const httpMixed = "http-mixed"

// Front-door configuration: Data-Driven Chopping on a device sized like
// cmd/robustdb -serve (cache 0.5× and heap 1.0× of the database bytes),
// fair admission with the CLI's queue bounds, and the serve mode's
// slow-query journal.
const (
	httpCacheFrac    = 0.5
	httpHeapFrac     = 1.0
	httpQueueDepth   = 64
	httpQueueTimeout = 5 * time.Second
	slowlogCapacity  = 256
	slowlogThreshold = 100 * time.Millisecond
	slowlogQError    = 16
)

// The open loop offers two fixed-rate steps (queries per host second) that
// take turns in rounds. Both steps get the same number of arrivals; a 30 s
// run gives 214 each.
const (
	rateLow  = 10.0
	rateHigh = 25.0
	rounds   = 6
	// jitter bounds the seed-drawn delay of an arrival within its 1/rate
	// slot, as a share of the slot.
	jitter = 0.1
	// freshEvery: one arrival in freshEvery carries a fresh literal, so its
	// text misses the server's plan cache.
	freshEvery = 4
	// The traced run first measures tracing overhead: probeSlices slices
	// each with spans off and on, each slice sending the statement mix
	// probeRepeats times back to back. The open loop that follows still
	// runs for the full --seconds.
	probeSlices  = 3
	probeRepeats = 3
	// skipLate is how late an arrival may be before the generator skips it
	// (a skipped arrival counts as failed).
	skipLate = 5 * time.Second
)

// tenant is one front-door client class: share weights arrivals, priority
// rides on the request (cmd/robustdb -tenant-mix gold:3:1,bronze:1).
type tenant struct {
	name     string
	share    int
	priority int
}

var tenants = []tenant{{"gold", 3, 1}, {"bronze", 1, 0}}

// mixSQL is the cached statement mix: the four statements of
// cmd/robustdb/loadgen.go and the SSB Q1.1, Q2.1 and Q3.3 texts of
// internal/sql/sql_test.go.
var mixSQL = []string{
	"SELECT SUM(lo_revenue) AS revenue FROM lineorder",
	"SELECT SUM(lo_extendedprice * lo_discount) AS revenue FROM lineorder WHERE lo_discount BETWEEN 1 AND 3 AND lo_quantity < 25",
	"SELECT lo_quantity, COUNT(*) AS orders FROM lineorder GROUP BY lo_quantity",
	"SELECT d_year, SUM(lo_revenue) AS revenue FROM lineorder, date WHERE lo_orderdate = d_datekey GROUP BY d_year",
	`select sum(lo_extendedprice * lo_discount) as revenue
		from lineorder, date
		where lo_orderdate = d_datekey
		  and d_year = 1993
		  and lo_discount between 1 and 3
		  and lo_quantity < 25`,
	`select d_year, p_brand1, sum(lo_revenue) as sum_revenue
		from lineorder, date, part, supplier
		where lo_orderdate = d_datekey
		  and lo_partkey = p_partkey
		  and lo_suppkey = s_suppkey
		  and p_category = 'MFGR#12'
		  and s_region = 'AMERICA'
		group by d_year, p_brand1
		order by d_year, p_brand1`,
	`select c_city, s_city, d_year, sum(lo_revenue) as revenue
		from customer, lineorder, supplier, date
		where lo_custkey = c_custkey
		  and lo_suppkey = s_suppkey
		  and lo_orderdate = d_datekey
		  and c_city in ('UNITED KI1', 'UNITED KI5')
		  and s_city in ('UNITED KI1', 'UNITED KI5')
		  and d_year between 1992 and 1997
		group by c_city, s_city, d_year
		order by d_year asc, revenue desc`,
}

// freshSQL is the template of fresh-literal arrivals: the filtered
// aggregate of the mix with seed-drawn literals.
const freshSQL = "SELECT SUM(lo_extendedprice * lo_discount) AS revenue FROM lineorder WHERE lo_discount BETWEEN %d AND %d AND lo_quantity < %d"
