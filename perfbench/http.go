package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"robustdb/internal/admission"
	"robustdb/internal/engine"
	"robustdb/internal/exec"
	"robustdb/internal/journal"
	"robustdb/internal/par"
	"robustdb/internal/server"
	"robustdb/internal/sql"
	"robustdb/internal/ssb"
	"robustdb/internal/table"
	"robustdb/internal/trace"
	"robustdb/internal/workload"
)

// idHeader carries the benchmark's request id to the handler wrapper, so
// the client and handler spans of one request share an id.
const idHeader = "X-Perfbench-Id"

// front is the served database: engine, front door, and its set-up.
type front struct {
	cat    *table.Catalog
	eng    *exec.Engine
	srv    *server.Server
	tracer *trace.Tracer
}

// newFront generates the database, builds the engine the way
// cmd/robustdb -serve does (workload.NewEngine with a tracer and the
// slow-query journal), and compiles the statement mix: the set-up that
// setup_s times.
func newFront(seed int64) (*front, error) {
	f := &front{cat: ssb.Generate(ssb.Config{SF: scaleFactor, RowsPerSF: rowsPerSF, Seed: seed})}
	var warm []workload.Query
	for _, q := range ssb.Queries() {
		warm = append(warm, workload.Query{Name: q.Name, Plan: q.Plan})
	}
	strat := workload.DataDrivenChopping()
	f.tracer = trace.New(0)
	db := float64(f.cat.TotalBytes())
	eng, err := workload.NewEngine(f.cat, exec.Config{
		CacheBytes:     int64(httpCacheFrac * db),
		HeapBytes:      int64(httpHeapFrac * db),
		KernelWorkers:  runtime.GOMAXPROCS(0),
		PipelineDepth:  pipelineDepth,
		PipelineCoExec: pipelineCoExec,
		Tracer:         f.tracer,
	}, strat, warm)
	if err != nil {
		return nil, err
	}
	f.eng = eng
	f.srv, err = server.New(server.Config{
		Engine:  eng,
		Placer:  strat.Placer,
		Catalog: f.cat,
		Admission: admission.Config{
			Policy:       admission.Fair,
			MaxQueue:     httpQueueDepth,
			QueueTimeout: httpQueueTimeout,
		},
		Journal: journal.New(slowlogCapacity, slowlogThreshold, slowlogQError),
	})
	if err != nil {
		return nil, err
	}
	for _, text := range mixSQL {
		if _, err := sql.PlanQuery(f.cat, text); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// close drains the front door and stops its host pump.
func (f *front) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return f.srv.Drain(ctx)
}

// idle waits until the host pump has finished every earlier batch (an
// EXPLAIN placement job is served in order on the pump) and returns the
// engine's virtual clock, which is then safe to read.
func (f *front) idle() (time.Duration, error) {
	if _, err := f.srv.Explain(mixSQL[0]); err != nil {
		return 0, err
	}
	return f.eng.Sim.Now(), nil
}

// arrival is one open-loop request.
type arrival struct {
	due    time.Duration // from the start of the loop
	step   int           // 0 = low, 1 = high
	tenant tenant
	sql    string
}

// schedule builds the arrivals. The two steps take turns in rounds, so a
// burst of load from outside the benchmark hits both alike; each step gets n
// arrivals in all at its fixed rate. An arrival is due at the start of its
// 1/rate slot plus a seed-drawn jitter of up to jitter × slot. Tenants and
// fresh literals are drawn from the seed too. The cached statements are
// dealt in blocks that hold each statement once, in seed-drawn order, so
// every seed offers the same statement mix.
func schedule(rng *rand.Rand, budget time.Duration) ([]arrival, error) {
	n := int(budget.Seconds() * rateLow * rateHigh / (rateLow + rateHigh))
	if n < rounds {
		n = rounds
	}
	var out []arrival
	var offset time.Duration
	for r := 0; r < rounds; r++ {
		for step, rate := range []float64{rateLow, rateHigh} {
			slot := time.Duration(float64(time.Second) / rate)
			for i := r * n / rounds; i < (r+1)*n/rounds; i++ {
				jit := time.Duration(rng.Float64() * jitter * float64(slot))
				out = append(out, arrival{due: offset + jit, step: step})
				offset += slot
			}
		}
	}
	shares := 0
	for _, t := range tenants {
		shares += t.share
	}
	used := map[string]bool{mixSQL[1]: true}
	var deck []int // the cached statements not yet dealt in this block
	for i := range out {
		pick := rng.Intn(shares)
		for _, t := range tenants {
			if pick < t.share {
				out[i].tenant = t
				break
			}
			pick -= t.share
		}
		if i%freshEvery != freshEvery-1 {
			if len(deck) == 0 {
				deck = rng.Perm(len(mixSQL))
			}
			out[i].sql, deck = mixSQL[deck[0]], deck[1:]
			continue
		}
		for tries := 0; out[i].sql == ""; tries++ {
			if tries > 1000 {
				return nil, fmt.Errorf("fresh literals exhausted after %d arrivals", i)
			}
			lo := rng.Intn(9)
			text := fmt.Sprintf(freshSQL, lo, lo+1+rng.Intn(3), 2+rng.Intn(49))
			if !used[text] {
				used[text] = true
				out[i].sql = text
			}
		}
	}
	return out, nil
}

// outcome is what the client saw of one request.
type outcome struct {
	ok      bool
	late    time.Duration // send time minus due time
	latency time.Duration // completion minus due time
	vt      time.Duration // engine latency reported by the server
	queueMS float64
	bytes   int
}

// httpRun is the client side: a keep-alive client with at most nproc
// connections, and the handler wrapper that records server spans.
type httpRun struct {
	r      *run
	f      *front
	url    string
	client *http.Client
	refs   map[string]string        // statement text → reference row digest
	rec    atomic.Pointer[recorder] // where client and handler spans go; nil = off
	nextID atomic.Int64
}

// instrument wraps the front door's handler with a span around ServeHTTP.
func (h *httpRun) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		rec := h.rec.Load()
		if rec == nil {
			next.ServeHTTP(w, req)
			return
		}
		start := hostNow()
		next.ServeHTTP(w, req)
		rec.add(req.Header.Get(idHeader), spanHandler, spanRequest, start, hostNow(), "")
	})
}

// do sends one query and checks its rows; due is when it should have been
// sent.
func (h *httpRun) do(a arrival, due time.Time) outcome {
	id := fmt.Sprintf("req%06d", h.nextID.Add(1))
	body, _ := json.Marshal(server.QueryRequest{Tenant: a.tenant.name, SQL: a.sql, Priority: a.tenant.priority})
	req, err := http.NewRequest(http.MethodPost, h.url+"/v1/query", bytes.NewReader(body))
	if err != nil {
		return outcome{}
	}
	req.Header.Set(idHeader, id)
	rec := h.rec.Load()
	start := hostNow()
	o := outcome{late: start.Sub(due)}
	resp, err := h.client.Do(req)
	if err != nil {
		return o
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(resp.Body)
	end := hostNow()
	rec.add(id, spanRequest, "", start, end, a.tenant.name)
	o.latency, o.bytes = end.Sub(due), len(payload)
	if err != nil || resp.StatusCode != http.StatusOK {
		return o
	}
	var qr struct {
		Columns   []string `json:"columns"`
		Rows      [][]any  `json:"rows"`
		LatencyUS int64    `json:"latency_us"`
		QueueMS   float64  `json:"queue_ms"`
	}
	dec := json.NewDecoder(bytes.NewReader(payload))
	dec.UseNumber()
	if err := dec.Decode(&qr); err != nil {
		h.r.wrong("%s: undecodable response: %v", id, err)
		return o
	}
	got, err := wireDigest(qr.Columns, qr.Rows)
	if err != nil || got != h.refs[a.sql] {
		h.r.wrong("%s: rows with digest %.12s, want %.12s (%v) for %q", id, got, h.refs[a.sql], err, a.sql)
		return o
	}
	o.ok, o.vt, o.queueMS = true, time.Duration(qr.LatencyUS)*time.Microsecond, qr.QueueMS
	return o
}

// openLoop offers the arrivals at their due times through nproc client
// workers. A request waits for a free worker; its latency runs from the due
// time, and an arrival more than skipLate late is skipped.
func (h *httpRun) openLoop(arrs []arrival) ([]outcome, time.Duration) {
	outs := make([]outcome, len(arrs))
	work := make(chan int, len(arrs))
	start := hostNow()
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				due := start.Add(arrs[i].due)
				if late := hostNow().Sub(due); late > skipLate {
					outs[i] = outcome{late: late}
					continue
				}
				outs[i] = h.do(arrs[i], due)
			}
		}()
	}
	for i, a := range arrs {
		sleepUntil(start.Add(a.due))
		work <- i
	}
	close(work)
	wg.Wait()
	return outs, hostNow().Sub(start)
}

// closedLoop sends texts back to back through nproc workers and returns
// the completed requests per host second.
func (h *httpRun) closedLoop(texts []string) float64 {
	next := make(chan string, len(texts))
	for _, t := range texts {
		next <- t
	}
	close(next)
	var done atomic.Int64
	start := hostNow()
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for text := range next {
				o := h.do(arrival{tenant: tenants[w%len(tenants)], sql: text}, hostNow())
				h.r.count(1, boolInt(!o.ok), nil)
				if o.ok {
					done.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	return float64(done.Load()) / hostNow().Sub(start).Seconds()
}

func boolInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// runHTTP measures http-mixed.
func runHTTP(r *run) (err error) {
	var f *front
	var setups []float64
	for i := 0; i < setupReps; i++ {
		if f != nil {
			if err := f.close(); err != nil {
				return err
			}
		}
		debug.FreeOSMemory()
		start := hostNow()
		if f, err = newFront(r.seed); err != nil {
			return err
		}
		setups = append(setups, hostNow().Sub(start).Seconds())
	}
	defer func() {
		if cerr := f.close(); err == nil {
			err = cerr
		}
	}()
	r.set("setup_s", "s", median(setups))

	rng := rand.New(rand.NewSource(r.seed))
	arrs, err := schedule(rng, r.seconds)
	if err != nil {
		return err
	}
	h := &httpRun{r: r, f: f, refs: make(map[string]string)}
	texts := append([]string(nil), mixSQL...)
	for _, a := range arrs {
		texts = append(texts, a.sql)
	}
	for _, text := range texts {
		if _, ok := h.refs[text]; ok {
			continue
		}
		pl, err := sql.PlanQuery(f.cat, text)
		if err != nil {
			return err
		}
		if h.refs[text], err = referenceDigest(f.cat, pl); err != nil {
			return err
		}
	}
	ts := httptest.NewServer(h.instrument(f.srv.Handler()))
	defer ts.Close()
	transport := &http.Transport{MaxConnsPerHost: runtime.NumCPU(), MaxIdleConnsPerHost: runtime.NumCPU()}
	defer transport.CloseIdleConnections()
	h.url, h.client = ts.URL, &http.Client{Transport: transport}

	// Warm the plan cache and the learner with one pass over the mix.
	for _, text := range mixSQL {
		o := h.do(arrival{tenant: tenants[0], sql: text}, hostNow())
		r.count(1, boolInt(!o.ok), nil)
	}
	debug.FreeOSMemory()

	// Tracing overhead: the same closed-loop request sequence with the
	// benchmark's spans off and on, in alternating slices. The probe spans go
	// to a recorder of their own, so the span-derived metrics cover only the
	// open loop.
	var overhead float64
	if r.traced {
		var probe []string
		for i := 0; i < probeRepeats; i++ {
			probe = append(probe, mixSQL...)
		}
		var qps [2][]float64
		probeRec := newRecorder()
		for i := 0; i < 2*probeSlices; i++ {
			if i%2 == 1 {
				h.rec.Store(probeRec)
			} else {
				h.rec.Store(nil)
			}
			qps[i%2] = append(qps[i%2], h.closedLoop(probe))
		}
		h.rec.Store(nil)
		overhead = median(qps[0])/median(qps[1]) - 1
		logf("closed-loop capacity %.1f q/s untraced, %.1f q/s traced", median(qps[0]), median(qps[1]))
	}

	vt0, err := f.idle()
	if err != nil {
		return err
	}
	before := f.eng.Metrics.Snapshot()
	rt0, cpu0 := readRuntime(), cpuTime()
	h.rec.Store(r.rec)
	outs, wall := h.openLoop(arrs)
	h.rec.Store(nil)
	rt, cpu := readRuntime().sub(rt0), cpuTime()-cpu0
	vt1, err := f.idle()
	if err != nil {
		return err
	}
	delta := f.eng.Metrics.Snapshot().Delta(before)

	var lat [2][]float64
	var vtLat, late, queue, resp []float64
	var ok int64
	for i, o := range outs {
		r.count(1, boolInt(!o.ok), nil)
		late = append(late, ms(o.late))
		if !o.ok {
			continue
		}
		ok++
		step := arrs[i].step
		lat[step] = append(lat[step], ms(o.latency))
		vtLat = append(vtLat, ms(o.vt))
		queue = append(queue, o.queueMS)
		resp = append(resp, float64(o.bytes))
	}
	r.set("host_qps", "q/s", float64(ok)/wall.Seconds())
	r.set("host_cpu_ms_per_query", "ms", ms(cpu)/float64(len(outs)))
	r.set("vt_makespan_s", "s", (vt1 - vt0).Seconds())
	r.set("vt_lat_p50_ms", "ms", quantile(vtLat, 0.5))
	r.set("vt_lat_p90_ms", "ms", quantile(vtLat, 0.9))
	for step, name := range []string{"low", "high"} {
		r.set("http_lat_p50_ms."+name, "ms", quantile(lat[step], 0.5))
		r.set("http_lat_p95_ms."+name, "ms", quantile(lat[step], 0.95))
	}
	if !r.traced {
		return nil
	}

	// Per-layer metrics of the traced open loop.
	r.set("trace.overhead_frac", "ratio", overhead)
	r.set("loadgen.late_ms.p95", "ms", quantile(late, 0.95))
	r.set("admission.queue_ms.p95", "ms", quantile(queue, 0.95))
	r.set("admission.shed", "count", float64(delta.Counters["ServerShed"]))
	r.set("server.resp_bytes.p50", "B", median(resp))
	r.set("server.plancache_hit_ratio", "ratio", ratio(float64(delta.Counters["PlancacheHits"]),
		float64(delta.Counters["PlancacheHits"]+delta.Counters["PlancacheMisses"])))
	r.set("runtime.alloc_bytes_per_query", "B", ratio(rt.allocBytes, float64(len(outs))))
	r.set("runtime.gc_cpu_frac", "ratio", ratio(rt.gcCPU, rt.totalCPU))
	handler, client := h.serverSpans()
	r.set("server.handler_host_ms.p50", "ms", quantile(handler, 0.5))
	r.set("server.handler_host_ms.p95", "ms", quantile(handler, 0.95))
	r.set("server.client_overhead_ms.p50", "ms", median(client))
	var window []trace.Span
	for _, s := range f.tracer.Spans() {
		if s.Start >= vt0 {
			window = append(window, s)
		}
	}
	if n, _ := f.tracer.Dropped(); n > 0 {
		logf("engine trace ring dropped %d spans; span-derived metrics cover the retained ones", n)
	}
	engineLayers(r, delta, window, vt1-vt0)
	return h.compileAndReplay(arrs, outs)
}

// serverSpans returns the handler time of every traced request and its
// client overhead (round trip minus handler time), in ms.
func (h *httpRun) serverSpans() (handler, client []float64) {
	byID := map[string][2]time.Duration{}
	for _, s := range h.r.rec.all() {
		v := byID[s.ID]
		switch s.Name {
		case spanRequest:
			v[0] = s.dur()
		case spanHandler:
			v[1] = s.dur()
			handler = append(handler, ms(s.dur()))
		default:
			continue
		}
		byID[s.ID] = v
	}
	for _, v := range byID {
		if v[0] > 0 && v[1] > 0 {
			client = append(client, ms(v[0]-v[1]))
		}
	}
	return handler, client
}

// compileAndReplay times sql.PlanQuery for every statement the open loop
// sent, and replays the kernels of every completed request (once per
// distinct text, weighted by its completions).
func (h *httpRun) compileAndReplay(arrs []arrival, outs []outcome) error {
	r := h.r
	counts := map[string]int{}
	seen := map[string]bool{}
	var order []string
	for i, o := range outs {
		if !seen[arrs[i].sql] {
			seen[arrs[i].sql] = true
			order = append(order, arrs[i].sql)
		}
		if o.ok {
			counts[arrs[i].sql]++
		}
	}
	var compile []float64
	byClass := map[string]time.Duration{}
	ctx := engine.NewCtx(par.New(runtime.GOMAXPROCS(0)))
	completed := 0
	for i, text := range order {
		id := fmt.Sprintf("stmt%04d", i)
		start := hostNow()
		pl, err := sql.PlanQuery(h.f.cat, text)
		end := hostNow()
		r.rec.add(id, spanCompile, "", start, end, "")
		compile = append(compile, float64(end.Sub(start).Microseconds()))
		if err != nil {
			return err
		}
		n := counts[text]
		if n == 0 {
			continue
		}
		one := map[string]time.Duration{}
		out, err := replay(h.f.cat, pl, ctx, one, r.rec, id)
		r.count(1, 0, nil)
		if err != nil || batchDigest(out) != h.refs[text] {
			r.count(0, 1, []string{fmt.Sprintf("%s: kernel replay of %q differs from the reference (%v)", id, text, err)})
		}
		for c, d := range one {
			byClass[c] += d * time.Duration(n)
		}
		completed += n
	}
	r.set("sql.compile_host_us.p50", "us", median(compile))
	for _, c := range kernelClasses {
		r.set("kernels.replay_host_ms."+c, "ms", ratio(ms(byClass[c]), float64(completed)))
	}
	return nil
}
