package main

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"robustdb"
	"robustdb/internal/admission"
	"robustdb/internal/journal"
	"robustdb/internal/obs"
	"robustdb/internal/server"
	"robustdb/internal/workload"
)

// serveConfig wires the multi-tenant front door to one persistent engine and
// the live observability surface.
type serveConfig struct {
	addr         string
	window       time.Duration // detector sampling + backpressure interval (wall clock)
	cooldown     time.Duration // idle gap between background workload passes (wall clock)
	db           *robustdb.DB
	dev          robustdb.Device
	strat        robustdb.Strategy
	queries      []robustdb.WorkloadQuery
	admission    admission.Config
	maxDeadline  time.Duration // ceiling on client-requested deadlines (0 = server default)
	maxConns     int
	drainTimeout time.Duration
	log          *slog.Logger

	// Slow-query journal (always on by default; slowlogCap 0 disables).
	slowlogCap       int
	slowlogThreshold time.Duration // virtual latency gate
	slowlogQError    float64       // q-error gate (0 disables)
}

// readHeaderTimeout bounds how long a connection may take to send its request
// headers, so slow clients cannot hold the -max-conns slots indefinitely.
const readHeaderTimeout = 10 * time.Second

// runServe runs the query front door on addr: POST /v1/query admits
// tenant-tagged SQL into the engine under the configured admission policy,
// POST /v1/explain describes a statement's plan without running it,
// /debug/admission exposes the controller state, and the observability mux
// (/metrics, /healthz, /debug/snapshot, /debug/spans, pprof) shares the same
// listener. A background tenant cycles the benchmark query mix through the
// same front door so the detectors always have signal, and the detector →
// admission backpressure loop runs on the sampling window. SIGINT/SIGTERM
// triggers the orderly drain: stop admitting, finish or shed in-flight work
// within -drain-timeout, flush a final stats line, exit 0.
func runServe(cfg serveConfig) error {
	//lint:ignore virtualtime process uptime on /metrics is wall-clock by definition, outside any deterministic run
	start := time.Now()
	tracer := robustdb.NewTracer(0)
	cfg.dev.Tracer = tracer
	engine, err := workload.NewEngine(cfg.db.Catalog(), cfg.dev, cfg.strat, cfg.queries)
	if err != nil {
		return err
	}
	var slowlog *journal.Journal
	if cfg.slowlogCap != 0 {
		slowlog = journal.New(cfg.slowlogCap, cfg.slowlogThreshold, cfg.slowlogQError)
	}
	front, err := server.New(server.Config{
		Engine:           engine,
		Placer:           cfg.strat.Placer,
		Catalog:          cfg.db.Catalog(),
		Admission:        cfg.admission,
		MaxQueryDeadline: cfg.maxDeadline,
		Journal:          slowlog,
		Log:              cfg.log,
	})
	if err != nil {
		return err
	}
	reg := engine.Metrics.Registry()
	detectors := []*obs.Detector{
		obs.NewThrashingDetector(obs.ThrashingConfig{}),
		obs.NewContentionDetector(obs.ContentionConfig{}),
	}
	sampler := obs.NewSampler(reg, detectors, cfg.log)
	stopPressure := server.StartPressureLoop(front, sampler, cfg.window)
	obsMux := obs.NewMux(obs.ServerConfig{
		Registry:  reg,
		Tracer:    tracer,
		Detectors: detectors,
		Log:       cfg.log,
		Build:     obs.ReadBuildInfo(),
		//lint:ignore virtualtime process uptime on /metrics is wall-clock by definition, outside any deterministic run
		Uptime: func() time.Duration { return time.Since(start) },
	})
	root := http.NewServeMux()
	root.Handle("/v1/query", front.Handler())
	root.Handle("/v1/explain", front.Handler())
	root.Handle("/debug/admission", front.Handler())
	root.Handle("/debug/slowlog", front.Handler())
	root.Handle("/", obsMux)

	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		stopPressure()
		return err
	}
	if cfg.maxConns > 0 {
		ln = server.LimitListener(ln, cfg.maxConns)
	}
	srv := &http.Server{Handler: root, ReadHeaderTimeout: readHeaderTimeout}
	httpErr := make(chan error, 1)
	go func() { httpErr <- srv.Serve(ln) }()
	cfg.log.LogAttrs(context.Background(), slog.LevelInfo, "serving",
		slog.String("component", "serve"),
		slog.String("addr", ln.Addr().String()),
		slog.String("strategy", cfg.strat.Label),
		slog.String("policy", string(cfg.admission.Policy)),
		slog.Int("admit", cfg.admission.MaxConcurrent),
		slog.Int("max_conns", cfg.maxConns),
		slog.Duration("window", cfg.window))

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// The background tenant: one pass over the query mix through the front
	// door, then a wall-clock cooldown. It shares the admission controller
	// with network clients, so under external overload it is shed like
	// everyone else — which is the point.
	bgCtx, bgCancel := context.WithCancel(ctx)
	bgDone := make(chan struct{})
	go func() {
		defer close(bgDone)
		backgroundLoad(bgCtx, front, cfg)
	}()

	var runErr error
	select {
	case <-ctx.Done():
	case err := <-httpErr:
		runErr = fmt.Errorf("robustdb: http server: %w", err)
	}
	stop()
	bgCancel()
	<-bgDone

	cfg.log.LogAttrs(context.Background(), slog.LevelInfo, "draining",
		slog.String("component", "serve"),
		slog.Duration("timeout", cfg.drainTimeout))
	drainCtx, cancelDrain := context.WithTimeout(context.Background(), cfg.drainTimeout)
	defer cancelDrain()
	drainErr := front.Drain(drainCtx)
	stopPressure()
	shutCtx, cancelShut := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancelShut()
	if err := srv.Shutdown(shutCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) && drainErr == nil {
		drainErr = err
	}

	// Flush the final state so operators see what the drain disposed of.
	stats := front.Admission().Stats()
	cfg.log.LogAttrs(context.Background(), slog.LevelInfo, "drained",
		slog.String("component", "serve"),
		slog.Int("in_flight", stats.InFlight),
		slog.Int("queued", stats.Queued),
		slog.Bool("clean", drainErr == nil))
	if runErr != nil {
		return runErr
	}
	return drainErr
}

// backgroundLoad cycles the query mix through the front door as the
// low-priority "background" tenant until the context ends. Typed shed
// errors are the admission controller doing its job under load; anything
// untyped is logged loudly but does not kill the server — serving real
// tenants takes precedence over the synthetic load.
func backgroundLoad(ctx context.Context, front *server.Server, cfg serveConfig) {
	for ctx.Err() == nil {
		for _, q := range cfg.queries {
			if ctx.Err() != nil {
				return
			}
			_, err := front.Submit(ctx, "background", 0, q.Plan, 0)
			var ae *admission.Error
			switch {
			case err == nil || errors.Is(err, context.Canceled):
			case errors.As(err, &ae):
				cfg.log.LogAttrs(ctx, slog.LevelDebug, "background query shed",
					slog.String("component", "serve"),
					slog.String("query", q.Name),
					slog.String("code", string(ae.Code)))
			default:
				cfg.log.LogAttrs(ctx, slog.LevelWarn, "background query failed",
					slog.String("component", "serve"),
					slog.String("query", q.Name),
					slog.String("error", err.Error()))
			}
		}
		select {
		case <-ctx.Done():
		//lint:ignore virtualtime the cooldown between background passes is wall-clock idle time, outside any deterministic run
		case <-time.After(cfg.cooldown):
		}
	}
}
