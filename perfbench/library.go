package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"robustdb/internal/engine"
	"robustdb/internal/exec"
	"robustdb/internal/figures"
	"robustdb/internal/par"
	"robustdb/internal/sim"
	"robustdb/internal/ssb"
	"robustdb/internal/table"
	"robustdb/internal/trace"
	"robustdb/internal/workload"
)

// library drives the closed-loop SSB workloads through exec directly.
type library struct {
	spec    libSpec
	strat   workload.Strategy
	cat     *table.Catalog
	queries []workload.Query
	cfg     exec.Config
	refs    map[string]string // query name → reference row digest
}

// newLibrary generates the database and sizes the device: the set-up that
// setup_s times, together with one engine build (preload/Algorithm 1).
func newLibrary(spec libSpec, seed int64) (*library, error) {
	l := &library{spec: spec, strat: spec.strategy()}
	l.cat = ssb.Generate(ssb.Config{SF: scaleFactor, RowsPerSF: rowsPerSF, Seed: seed})
	for _, q := range ssb.Queries() {
		l.queries = append(l.queries, workload.Query{Name: q.Name, Plan: q.Plan})
	}
	cache := int64(spec.cacheFrac * float64(figures.WorkloadFootprint(l.cat, l.queries)))
	l.cfg = exec.Config{
		CacheBytes:     cache,
		HeapBytes:      heapPerCache * cache,
		KernelWorkers:  runtime.GOMAXPROCS(0),
		PipelineDepth:  pipelineDepth,
		PipelineCoExec: pipelineCoExec,
	}
	_, err := workload.NewEngine(l.cat, l.cfg, l.strat, l.queries)
	return l, err
}

// pass is the outcome of one closed-loop pass on a fresh engine.
type pass struct {
	host      time.Duration   // host time of the session driver
	cpu       time.Duration   // process CPU time of the pass
	makespan  time.Duration   // virtual time of the pass
	vtLat     []time.Duration // per completed query, completion order
	attempted int64
	failed    int64
	delta     trace.Snapshot // engine registry change over the pass
	spans     []trace.Span   // engine spans when traced
	order     []workload.Query
	rt        runtimeSample
}

// run executes one pass of queriesPerPass queries over the workload's
// sessions on a fresh engine, the way workload.Runner.RunOnce does
// (continue on error), but keeps every result to check it against the
// reference digest.
func (l *library) run(tracer *trace.Tracer, rec *recorder, id string, check bool) (*pass, []string, error) {
	// Every pass starts from a collected heap, so the garbage of earlier
	// passes neither slows it nor lifts its peak memory.
	debug.FreeOSMemory()
	cfg := l.cfg
	cfg.Tracer = tracer
	e, err := workload.NewEngine(l.cat, cfg, l.strat, l.queries)
	if err != nil {
		return nil, nil, err
	}
	users := l.spec.users
	ps := &pass{}
	perUser := make([][]workload.Query, users)
	for i := 0; i < queriesPerPass; i++ {
		q := l.queries[i%len(l.queries)]
		perUser[i%users] = append(perUser[i%users], q)
		ps.order = append(ps.order, q)
	}
	type done struct {
		name  string
		batch *engine.Batch
	}
	var results []done
	before := e.Metrics.Snapshot()
	rt0 := readRuntime()
	cpu0 := cpuTime()
	start := hostNow()
	for u, qs := range perUser {
		qs := qs
		e.Sim.Spawn(fmt.Sprintf("user%02d", u), func(p *sim.Proc) {
			for _, q := range qs {
				submitted := p.Now()
				v, _, err := e.RunQueryWith(p, q.Plan, l.strat.Placer, exec.QueryOpts{})
				ps.attempted++
				if err != nil {
					ps.failed++
					continue
				}
				ps.vtLat = append(ps.vtLat, p.Now()-submitted)
				results = append(results, done{q.Name, v.Batch})
			}
		})
	}
	vt0 := e.Sim.Now()
	ps.makespan = e.Sim.Run() - vt0
	end := hostNow()
	ps.host = end.Sub(start)
	ps.cpu = cpuTime() - cpu0
	ps.rt = readRuntime().sub(rt0)
	rec.add(id, spanPass, "", start, end, fmt.Sprintf("users=%d traced=%t", users, tracer != nil))
	ps.delta = e.Metrics.Snapshot().Delta(before)
	ps.spans = tracer.Spans()
	if n, _ := tracer.Dropped(); n > 0 {
		return nil, nil, fmt.Errorf("%s: engine trace ring dropped %d spans", id, n)
	}
	var wrong []string
	if check {
		for _, r := range results {
			if got := batchDigest(r.batch); got != l.refs[r.name] {
				ps.failed++
				wrong = append(wrong, fmt.Sprintf("%s: %s returned rows with digest %.12s, want %.12s", id, r.name, got, l.refs[r.name]))
			}
		}
	}
	return ps, wrong, nil
}

// fingerprint hashes everything of a pass that must repeat exactly for a
// seed: the makespan, every virtual latency, and every engine counter,
// duration and gauge.
func (ps *pass) fingerprint() string {
	var b strings.Builder
	b.WriteString(fmt.Sprintf("makespan=%d\n", ps.makespan))
	for _, l := range ps.vtLat {
		b.WriteString(fmt.Sprintf("%d,", l))
	}
	writeSorted := func(kind string, m map[string]int64) {
		names := make([]string, 0, len(m))
		for n := range m {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			b.WriteString(fmt.Sprintf("\n%s %s=%d", kind, n, m[n]))
		}
	}
	durs := make(map[string]int64, len(ps.delta.Durations))
	for n, d := range ps.delta.Durations {
		durs[n] = int64(d)
	}
	writeSorted("counter", ps.delta.Counters)
	writeSorted("duration", durs)
	writeSorted("gauge", ps.delta.Gauges)
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:])
}

func vtMS(ls []time.Duration) []float64 {
	out := make([]float64, len(ls))
	for i, l := range ls {
		out[i] = ms(l)
	}
	return out
}

// runLibrary measures ssb-fit or ssb-scarce.
func runLibrary(r *run, spec libSpec) error {
	var l *library
	var setups []float64
	for i := 0; i < setupReps; i++ {
		debug.FreeOSMemory()
		start := hostNow()
		var err error
		if l, err = newLibrary(spec, r.seed); err != nil {
			return err
		}
		setups = append(setups, hostNow().Sub(start).Seconds())
	}
	r.set("setup_s", "s", median(setups))
	l.refs = make(map[string]string)
	for _, q := range l.queries {
		d, err := referenceDigest(l.cat, q.Plan)
		if err != nil {
			return fmt.Errorf("reference %s: %w", q.Name, err)
		}
		l.refs[q.Name] = d
	}
	debug.FreeOSMemory()

	if r.traced {
		return r.traceLibrary(l)
	}
	var passes []*pass
	deadline := hostNow().Add(r.seconds)
	for i := 0; ; i++ {
		ps, err := r.libPass(l, nil, fmt.Sprintf("pass%03d", i))
		if err != nil {
			return err
		}
		passes = append(passes, ps)
		if i == 0 {
			// Peak memory over a fixed amount of work: set-up and one pass.
			r.set("max_rss_mb", "MB", maxRSSMB())
		}
		if hostNow().Add(ps.host).After(deadline) {
			break
		}
	}
	r.checkRepeats(passes)
	if err := r.checkSeedMatters(spec, passes[0]); err != nil {
		return err
	}
	var qps, cpu []float64
	for _, ps := range passes {
		qps = append(qps, float64(ps.attempted-ps.failed)/ps.host.Seconds())
		cpu = append(cpu, ms(ps.cpu)/float64(ps.attempted))
	}
	h := passes[0]
	r.set("host_qps", "q/s", median(qps))
	r.set("host_cpu_ms_per_query", "ms", median(cpu))
	r.set("vt_makespan_s", "s", h.makespan.Seconds())
	r.set("vt_lat_p50_ms", "ms", quantile(vtMS(h.vtLat), 0.5))
	r.set("vt_lat_p90_ms", "ms", quantile(vtMS(h.vtLat), 0.9))
	return nil
}

// libPass runs one checked pass and counts its queries.
func (r *run) libPass(l *library, tracer *trace.Tracer, id string) (*pass, error) {
	ps, wrong, err := l.run(tracer, r.rec, id, true)
	if err != nil {
		return nil, err
	}
	r.count(ps.attempted, ps.failed, wrong)
	return ps, nil
}

// checkRepeats requires every pass to repeat the first exactly, and the
// first to match what earlier runs of the same binary and seed recorded.
func (r *run) checkRepeats(passes []*pass) {
	want := passes[0].fingerprint()
	for i, ps := range passes[1:] {
		if got := ps.fingerprint(); got != want {
			r.wrong("pass %d: virtual-time fingerprint %.12s differs from pass 0 (%.12s)", i+1, got, want)
		}
	}
	r.checkFingerprint(want)
}

// checkSeedMatters runs one pass over the database of the next
// seed; its fingerprint must differ, which shows the seed reaches
// ssb.Generate.
func (r *run) checkSeedMatters(spec libSpec, ref *pass) error {
	other, err := newLibrary(spec, r.seed+1)
	if err != nil {
		return err
	}
	ps, _, err := other.run(nil, nil, "", false)
	if err != nil {
		return err
	}
	if ps.fingerprint() == ref.fingerprint() {
		r.wrong("seeds %d and %d give the same virtual-time fingerprint", r.seed, r.seed+1)
	}
	return nil
}

// traceLibrary is the traced run. Each round runs an untraced and a traced
// pass (engine tracer set) in alternating order, then a kernel replay of the
// traced pass's plans.
func (r *run) traceLibrary(l *library) error {
	pool := engine.NewCtx(par.New(runtime.GOMAXPROCS(0)))
	var untraced, traced, residual []float64
	var t *pass
	var rt runtimeSample
	var queries int64
	replayMS := make(map[string][]float64)
	deadline := hostNow().Add(r.seconds)
	for i := 0; ; i++ {
		start := hostNow()
		var u *pass
		for k := 0; k < 2; k++ {
			var tr *trace.Tracer
			if (i+k)%2 == 1 {
				tr = trace.New(0)
			}
			ps, err := r.libPass(l, tr, fmt.Sprintf("pass%03d-traced=%t", i, tr != nil))
			if err != nil {
				return err
			}
			if tr != nil {
				t = ps
			} else {
				u = ps
			}
		}
		rt = rt.add(u.rt)
		queries += u.attempted
		r.checkRepeats([]*pass{u, t})

		byClass := make(map[string]time.Duration)
		replayStart := hostNow()
		for j, q := range t.order {
			id := fmt.Sprintf("replay%03d-%03d", i, j)
			out, err := replay(l.cat, q.Plan, pool, byClass, r.rec, id)
			r.count(1, 0, nil)
			if err != nil || batchDigest(out) != l.refs[q.Name] {
				r.count(0, 1, []string{fmt.Sprintf("%s: kernel replay of %s differs from the reference (%v)", id, q.Name, err)})
			}
		}
		replaySecs := hostNow().Sub(replayStart).Seconds()
		for _, c := range kernelClasses {
			replayMS[c] = append(replayMS[c], ms(byClass[c])/float64(len(t.order)))
		}
		untraced = append(untraced, u.host.Seconds())
		traced = append(traced, t.host.Seconds())
		residual = append(residual, u.host.Seconds()-replaySecs)
		if hostNow().Add(hostNow().Sub(start)).After(deadline) {
			break
		}
	}
	for _, c := range kernelClasses {
		r.set("kernels.replay_host_ms."+c, "ms", median(replayMS[c]))
	}
	r.set("runtime.alloc_bytes_per_query", "B", ratio(rt.allocBytes, float64(queries)))
	r.set("runtime.gc_cpu_frac", "ratio", ratio(rt.gcCPU, rt.totalCPU))
	r.set("workload.pass_host_s", "s", median(untraced))
	r.set("exec_sim.residual_host_s", "s", median(residual))
	r.set("trace.overhead_frac", "ratio", median(traced)/median(untraced)-1)
	engineLayers(r, t.delta, t.spans, t.makespan)
	return nil
}
