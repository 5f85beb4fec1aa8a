// Package server implements the malecd HTTP API: a thin JSON layer over
// the campaign engine. Every request runs against one shared engine, so
// concurrent clients asking for the same simulation point share a single
// simulation (singleflight) and repeated requests are cache hits.
//
// Endpoints:
//
//	GET  /healthz        liveness probe
//	GET  /metrics        Prometheus text exposition (latency histograms,
//	                     per-endpoint counters, engine cache/dedup/trace
//	                     counters, scheduler queue depth)
//	GET  /v1/configs     preset configuration names
//	GET  /v1/benchmarks  benchmark workloads with their suites
//	GET  /v1/stats       engine cache/scheduler counters + serving summary
//	POST /v1/run         one simulation point
//	POST /v1/sweep       a config x benchmark x seed campaign (JSON or CSV)
//
// Every route is instrumented by middleware (metrics.go): request
// counters by status class, an in-flight gauge and a latency histogram
// per endpoint, all allocation-free on the request path.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"malec/internal/cluster"
	"malec/internal/config"
	"malec/internal/cpu"
	"malec/internal/engine"
	"malec/internal/metrics"
	"malec/internal/trace"
)

// Version identifies this build in malec_build_info and logs.
const Version = "0.10.0"

// Options bounds what the service accepts. The zero value is usable.
type Options struct {
	// MaxInstructions caps the instruction count of a single simulation
	// point (default 5e6). Simulation time is linear in instructions;
	// the cap keeps one request from monopolizing workers.
	MaxInstructions int
	// MaxSweepJobs caps the number of jobs one sweep may expand to
	// (default 4096).
	MaxSweepJobs int
	// RequestTimeout bounds the server-side processing time of
	// simulation-bearing requests (/v1/run, /v1/sweep); past it the
	// simulation is cancelled and the client gets 504. A request's own
	// deadline_ms tightens it further, never loosens it. Zero disables.
	RequestTimeout time.Duration
	// MaxConcurrent bounds how many simulation-bearing requests are
	// admitted at once; excess requests queue (see MaxQueueDepth) and are
	// shed with 429 + Retry-After past the bounds. Zero disables the gate
	// and its queue.
	MaxConcurrent int
	// MaxQueueDepth bounds admitted-queue waiters beyond MaxConcurrent
	// (default 64 when the gate is on; negative means shed immediately
	// when the gate is full).
	MaxQueueDepth int
	// MaxQueueWait bounds how long a queued request waits for the gate
	// before being shed (default 5s when the gate is on).
	MaxQueueWait time.Duration
	// PerClientConcurrency caps concurrent simulation-bearing requests
	// per client (X-API-Key header, else remote address), so one client's
	// sweep burst cannot starve everyone else's interactive traffic. Zero
	// disables.
	PerClientConcurrency int
	// Campaigns serves the durable-campaign routes (/v1/campaigns). Nil
	// creates an in-memory manager over the engine: asynchronous and
	// streamable, but not crash-durable (malecd wires a journaled one).
	Campaigns *engine.CampaignManager
	// StreamHeartbeat is the idle interval after which a campaign results
	// stream emits a heartbeat line, keeping intermediaries from timing
	// out a quiet long-poll (default 10s).
	StreamHeartbeat time.Duration
	// Cluster, when set, enrolls this server in a malecd cluster: the
	// internal point API (/internal/v1/point) is served, the engine's
	// remote hook routes non-owned points to their owner replicas, and
	// the cluster's routing counters join /metrics and /v1/stats.
	Cluster *cluster.Cluster
}

// normalize applies option defaults.
func (o Options) normalize() Options {
	if o.MaxInstructions <= 0 {
		o.MaxInstructions = 5_000_000
	}
	if o.MaxSweepJobs <= 0 {
		o.MaxSweepJobs = 4096
	}
	if o.MaxConcurrent > 0 {
		if o.MaxQueueDepth == 0 {
			o.MaxQueueDepth = 64
		}
		if o.MaxQueueWait <= 0 {
			o.MaxQueueWait = 5 * time.Second
		}
	}
	if o.StreamHeartbeat <= 0 {
		o.StreamHeartbeat = 10 * time.Second
	}
	return o
}

// Server is the malecd HTTP handler.
type Server struct {
	eng   *engine.Engine
	opts  Options
	camps *engine.CampaignManager
	clu   *cluster.Cluster
	mux   *http.ServeMux
	reg   *metrics.Registry
	start time.Time
	adm   *admission
	// ready and draining drive /readyz: not-ready before initialization
	// completes, draining once shutdown has begun. Liveness (/healthz)
	// stays green through both.
	ready    atomic.Bool
	draining atomic.Bool
	// timeouts counts simulation-bearing requests that hit their deadline
	// (malecd_timeouts_total).
	timeouts *metrics.Counter
	// endpoints lists every instrumented route in registration order,
	// for the /v1/stats serving summary.
	endpoints []routeMetrics
}

// New returns a handler serving the malecd API on eng.
func New(eng *engine.Engine, opts Options) *Server {
	s := &Server{
		eng:   eng,
		opts:  opts.normalize(),
		mux:   http.NewServeMux(),
		reg:   metrics.NewRegistry(),
		start: time.Now(),
	}
	s.camps = s.opts.Campaigns
	if s.camps == nil {
		s.camps = engine.NewCampaignManager(eng, engine.CampaignManagerOptions{})
	}
	s.adm = newAdmission(s.opts, s.reg)
	s.timeouts = s.reg.Counter("malecd_timeouts_total",
		"Simulation-bearing requests cancelled at their deadline.")
	s.handle("GET", "/healthz", s.handleHealthz)
	s.handle("GET", "/readyz", s.handleReadyz)
	s.handle("GET", "/metrics", s.handleMetrics)
	s.handle("GET", "/v1/configs", s.handleConfigs)
	s.handle("GET", "/v1/benchmarks", s.handleBenchmarks)
	s.handle("GET", "/v1/stats", s.handleStats)
	s.handle("POST", "/v1/run", s.handleRun)
	s.handle("POST", "/v1/sweep", s.handleSweep)
	s.handle("POST", "/v1/campaigns", s.handleCampaignCreate)
	s.handle("GET", "/v1/campaigns", s.handleCampaignList)
	s.handle("GET", "/v1/campaigns/{id}", s.handleCampaignStatus)
	s.handle("GET", "/v1/campaigns/{id}/results", s.handleCampaignResults)
	s.handle("DELETE", "/v1/campaigns/{id}", s.handleCampaignCancel)
	s.registerEngineMetrics()
	s.registerCampaignMetrics()
	metrics.RegisterBuildInfo(s.reg, Version)
	metrics.RegisterRuntime(s.reg)
	if s.opts.Cluster != nil {
		s.clu = s.opts.Cluster
		s.handle("POST", "/internal/v1/point", s.handleInternalPoint)
		clu := s.clu
		eng.SetRemote(func(ctx context.Context, key engine.Key, cfg config.Config, benchmark string, instructions int, seed uint64) (cpu.Result, bool, error) {
			return clu.Route(ctx, key.String(), cfg, benchmark, instructions, seed)
		})
		s.registerClusterMetrics()
	}
	// The handler is fully wired over a constructed engine; readiness
	// from here on is a question of drain state.
	s.ready.Store(true)
	return s
}

// Metrics exposes the server's metrics registry (tests, embedding).
func (s *Server) Metrics() *metrics.Registry { return s.reg }

// SetReady overrides the readiness state (embedding servers that finish
// initialization after New).
func (s *Server) SetReady(v bool) { s.ready.Store(v) }

// StartDraining flips the server into drain mode: /readyz starts failing
// so load balancers stop routing here, and new simulation-bearing
// requests are rejected with 503 while in-flight ones finish.
func (s *Server) StartDraining() { s.draining.Store(true) }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// writeJSON writes v as a compact JSON response.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v) //nolint:errcheck // headers sent; nothing left to report
}

// writeError writes a JSON error envelope.
func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// resultJSON returns the encoding of a served result. Memory hits share
// the engine's memoized encoding; any other source encodes afresh, so a
// point that is simulated, loaded or joined once and never re-read keeps
// nothing extra.
func (s *Server) resultJSON(key engine.Key, res cpu.Result, src engine.Source) ([]byte, error) {
	if src == engine.SourceMemory {
		return s.eng.ResultJSON(key, res)
	}
	return json.Marshal(res)
}

// writeResultReply completes and writes a 200 reply whose "result" member
// is an already-encoded cpu.Result. head holds the opening brace and the
// members before "result", in the field order of the reply struct it
// stands for (runResponse, cluster.PointResponse); the result bytes are
// spliced in verbatim and "sampling" follows when set. The reply equals
// json.Marshal of that struct plus writeJSON's newline, without the result
// being encoded or re-scanned again.
func writeResultReply(w http.ResponseWriter, head, result []byte, sampling *cpu.SamplingEstimate) {
	buf := append(head, `,"result":`...)
	buf = append(buf, result...)
	if sampling != nil {
		enc, err := json.Marshal(sampling)
		if err != nil {
			writeError(w, http.StatusInternalServerError, "encoding sampling estimate: %v", err)
			return
		}
		buf = append(buf, `,"sampling":`...)
		buf = append(buf, enc...)
	}
	buf = append(buf, "}\n"...)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(buf) //nolint:errcheck // headers sent; nothing left to report
}

// appendJSONString appends s as encoding/json encodes a string: printable
// ASCII other than the characters it escapes goes through as is, anything
// else takes the encoder itself.
func appendJSONString(buf []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			enc, _ := json.Marshal(s) // a string always encodes
			return append(buf, enc...)
		}
	}
	buf = append(buf, '"')
	buf = append(buf, s...)
	return append(buf, '"')
}

// maxBodyBytes bounds request bodies: far above any legitimate run or
// sweep spec, far below anything that could pressure memory.
const maxBodyBytes = 1 << 20

// readBody decodes a JSON request body into v, rejecting unknown fields so
// client typos fail loudly instead of silently running defaults, and
// anything after the one JSON value so a mangled or concatenated body is
// not half-read. Oversized bodies are cut off by http.MaxBytesReader
// (which also closes the connection) and reported as 413.
func readBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == nil {
		if _, err = dec.Token(); err == io.EOF {
			return true
		} else if err == nil {
			err = errors.New("trailing data after the JSON value")
		}
	}
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		writeError(w, http.StatusRequestEntityTooLarge,
			"request body exceeds %d bytes", mbe.Limit)
		return false
	}
	writeError(w, http.StatusBadRequest, "invalid request body: %v", err)
	return false
}

// handleHealthz implements GET /healthz: pure liveness, green as long as
// the process serves HTTP — including during drain.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReadyz implements GET /readyz: readiness for traffic. It fails
// before initialization completes and during drain, so orchestrators and
// the CI drain check can distinguish "alive" from "routable".
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	switch {
	case s.draining.Load():
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
	case !s.ready.Load():
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "starting"})
	default:
		writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
	}
}

// requestContext derives the simulation context for one request: the
// client's request context (cancelled on disconnect) bounded by the
// server's RequestTimeout and the request's own deadline_ms, whichever is
// sooner.
func (s *Server) requestContext(r *http.Request, deadlineMs int) (context.Context, context.CancelFunc) {
	d := s.opts.RequestTimeout
	// A deadline too long to represent cannot tighten anything.
	if deadlineMs > 0 && int64(deadlineMs) <= math.MaxInt64/int64(time.Millisecond) {
		rd := time.Duration(deadlineMs) * time.Millisecond
		if d == 0 || rd < d {
			d = rd
		}
	}
	if d <= 0 {
		return context.WithCancel(r.Context())
	}
	return context.WithTimeout(r.Context(), d)
}

// writeSimError maps a simulation-path error to its response: deadline →
// 504 (counted in malecd_timeouts_total), client disconnect → 499,
// contained panic or anything else → 500.
func (s *Server) writeSimError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		s.timeouts.Inc()
		writeError(w, http.StatusGatewayTimeout, "deadline exceeded")
	case errors.Is(err, context.Canceled):
		writeError(w, statusClientClosedRequest, "client closed request")
	default:
		writeError(w, http.StatusInternalServerError, "%v", err)
	}
}

// handleConfigs implements GET /v1/configs.
func (s *Server) handleConfigs(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"configs": config.Names()})
}

// benchmarkInfo is one /v1/benchmarks entry.
type benchmarkInfo struct {
	Name  string `json:"name"`
	Suite string `json:"suite"`
}

// handleBenchmarks implements GET /v1/benchmarks.
func (s *Server) handleBenchmarks(w http.ResponseWriter, r *http.Request) {
	var list []benchmarkInfo
	for _, name := range trace.AllBenchmarks() {
		list = append(list, benchmarkInfo{Name: name, Suite: trace.Profiles[name].Suite})
	}
	writeJSON(w, http.StatusOK, map[string]any{"benchmarks": list})
}

// statsResponse is the GET /v1/stats reply: the engine's counters at the
// top level exactly as before (the embedded struct marshals flat, so no
// existing field name moves), plus the serving-layer summary under
// "serving".
type statsResponse struct {
	engine.Stats
	Serving servingStats   `json:"serving"`
	Cluster *cluster.Stats `json:"cluster,omitempty"`
}

// handleStats implements GET /v1/stats.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	resp := statsResponse{
		Stats:   s.eng.Stats(),
		Serving: s.servingSnapshot(),
	}
	if s.clu != nil {
		cs := s.clu.Stats()
		resp.Cluster = &cs
	}
	writeJSON(w, http.StatusOK, resp)
}

// runRequest is the POST /v1/run body. Seed is a pointer so an explicit 0
// is distinguishable from an omitted field: seed 0 is a valid workload
// instance, and /v1/sweep runs it as given.
type runRequest struct {
	Config       string  `json:"config"`
	Benchmark    string  `json:"benchmark"`
	Instructions int     `json:"instructions"`
	Seed         *uint64 `json:"seed"`
	// DeadlineMs, when positive, bounds this request's processing time in
	// milliseconds; it can only tighten the server's -request-timeout.
	// Past the deadline the simulation is cancelled and the reply is 504.
	DeadlineMs int `json:"deadline_ms"`
	// Sampling, when present, switches the run to the sampled fast path
	// (SMARTS-style interval sampling; see README "Sampled simulation").
	// The result becomes an estimate — sampled and exact runs cache under
	// different keys — and the estimate metadata (window count, 95%
	// confidence intervals, checkpoint reuse) comes back in the
	// response's "sampling" field.
	Sampling *config.Sampling `json:"sampling"`
}

// runResponse is the POST /v1/run reply. handleRun writes it member by
// member around the result's shared encoding; the struct documents the
// shape and is what clients decode into.
type runResponse struct {
	Key      engine.Key            `json:"key"`
	Source   engine.Source         `json:"source"`
	Cached   bool                  `json:"cached"`
	Result   any                   `json:"result"`
	Sampling *cpu.SamplingEstimate `json:"sampling,omitempty"`
}

// validSampling checks a request's sampling schedule.
func validSampling(s *config.Sampling) error {
	if s != nil && !s.Valid() {
		return fmt.Errorf("invalid sampling schedule (warmup=%d detail=%d interval=%d): need warmup >= 0, detail > 0, warmup+detail <= interval",
			s.Warmup, s.Detail, s.Interval)
	}
	return nil
}

// resolveRun validates a runRequest against the registry and limits and
// returns the resolved config and seed.
func (s *Server) resolveRun(req *runRequest) (config.Config, uint64, error) {
	cfg, ok := config.Named(req.Config)
	if !ok {
		return config.Config{}, 0, fmt.Errorf("unknown config %q (see /v1/configs)", req.Config)
	}
	if _, ok := trace.Profiles[req.Benchmark]; !ok {
		return config.Config{}, 0, fmt.Errorf("unknown benchmark %q (see /v1/benchmarks)", req.Benchmark)
	}
	if req.Instructions <= 0 {
		req.Instructions = engine.DefaultInstructions
	}
	if req.Instructions > s.opts.MaxInstructions {
		return config.Config{}, 0, fmt.Errorf("instructions %d exceeds limit %d", req.Instructions, s.opts.MaxInstructions)
	}
	if err := validSampling(req.Sampling); err != nil {
		return config.Config{}, 0, err
	}
	cfg.Sampling = req.Sampling
	seed := uint64(1)
	if req.Seed != nil {
		seed = *req.Seed
	}
	return cfg, seed, nil
}

// handleRun implements POST /v1/run.
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	release, ok := s.adm.admit(w, r, s.draining.Load())
	if !ok {
		return
	}
	defer release()
	var req runRequest
	if !readBody(w, r, &req) {
		return
	}
	cfg, seed, err := s.resolveRun(&req)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	bench := req.Benchmark
	ctx, cancel := s.requestContext(r, req.DeadlineMs)
	defer cancel()
	res, src, err := s.eng.RunContext(ctx, cfg, bench, req.Instructions, seed)
	if err != nil {
		s.writeSimError(w, err)
		return
	}
	key := engine.KeyFor(cfg, bench, req.Instructions, seed)
	result, err := s.resultJSON(key, res, src)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "encoding result: %v", err)
		return
	}
	// The members of runResponse, in order, up to "result". The headroom
	// covers them and the rest of the envelope, so the reply is built in
	// one allocation.
	keyJSON, _ := json.Marshal(key) // a Key always encodes
	head := make([]byte, 0, 256+len(result))
	head = append(head, `{"key":`...)
	head = append(head, keyJSON...)
	head = append(head, `,"source":`...)
	head = appendJSONString(head, string(src))
	head = append(head, `,"cached":`...)
	head = strconv.AppendBool(head, src != engine.SourceSimulated && src != engine.SourceRemote)
	writeResultReply(w, head, result, res.Sampling)
}

// gridRequest is the config x benchmark x seed grid shared by the sweep
// and campaign request bodies.
type gridRequest struct {
	Configs      []string `json:"configs"`
	Benchmarks   []string `json:"benchmarks"`
	Instructions int      `json:"instructions"`
	Seeds        []uint64 `json:"seeds"`
	// Sampling, when present, runs every point of the grid on the
	// sampled fast path — the quality tier for large grids: core-side
	// config variants share warmed checkpoints, so only the first config
	// per (benchmark, seed) pays the functional-warming pass.
	Sampling *config.Sampling `json:"sampling"`
}

// resolveGrid validates a grid against the registry and limits, returning
// the resolved configs. req.Instructions is normalized in place to its
// effective value (mirroring CampaignSpec.normalize), so the limit check
// and the campaign spec can never disagree.
func (s *Server) resolveGrid(req *gridRequest) ([]config.Config, error) {
	if len(req.Configs) == 0 {
		return nil, fmt.Errorf("configs is required (see /v1/configs)")
	}
	if err := validSampling(req.Sampling); err != nil {
		return nil, err
	}
	cfgs := make([]config.Config, 0, len(req.Configs))
	for _, name := range req.Configs {
		cfg, ok := config.Named(name)
		if !ok {
			return nil, fmt.Errorf("unknown config %q (see /v1/configs)", name)
		}
		cfg.Sampling = req.Sampling
		cfgs = append(cfgs, cfg)
	}
	// Unknown benchmarks are rejected by CampaignSpec.normalize — no
	// duplicate validation here, so the two can't drift.
	if req.Instructions <= 0 {
		req.Instructions = engine.DefaultInstructions
	}
	if req.Instructions > s.opts.MaxInstructions {
		return nil, fmt.Errorf("instructions %d exceeds limit %d", req.Instructions, s.opts.MaxInstructions)
	}
	benchmarks := len(req.Benchmarks)
	if benchmarks == 0 {
		benchmarks = len(trace.AllBenchmarks())
	}
	seeds := len(req.Seeds)
	if seeds == 0 {
		seeds = 1
	}
	if jobs := len(cfgs) * benchmarks * seeds; jobs > s.opts.MaxSweepJobs {
		return nil, fmt.Errorf("sweep expands to %d jobs, limit %d", jobs, s.opts.MaxSweepJobs)
	}
	return cfgs, nil
}

// sweepRequest is the POST /v1/sweep body.
type sweepRequest struct {
	gridRequest
	// Format selects the response encoding: "json" (default) or "csv".
	Format string `json:"format"`
	// DeadlineMs bounds the whole sweep's processing time in
	// milliseconds; see runRequest.DeadlineMs.
	DeadlineMs int `json:"deadline_ms"`
}

// handleSweep implements POST /v1/sweep.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	release, ok := s.adm.admit(w, r, s.draining.Load())
	if !ok {
		return
	}
	defer release()
	var req sweepRequest
	if !readBody(w, r, &req) {
		return
	}
	cfgs, err := s.resolveGrid(&req.gridRequest)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if req.Format != "" && req.Format != "json" && req.Format != "csv" {
		writeError(w, http.StatusBadRequest, "unknown format %q (json or csv)", req.Format)
		return
	}

	ctx, cancel := s.requestContext(r, req.DeadlineMs)
	defer cancel()
	camp, err := s.eng.RunCampaignContext(ctx, engine.CampaignSpec{
		Configs:      cfgs,
		Benchmarks:   req.Benchmarks,
		Instructions: req.Instructions,
		Seeds:        req.Seeds,
	})
	if err != nil {
		var pe *engine.SimPanicError
		switch {
		case errors.As(err, &pe):
			writeError(w, http.StatusInternalServerError, "%v", err)
		case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
			s.writeSimError(w, err)
		default:
			writeError(w, http.StatusBadRequest, "%v", err)
		}
		return
	}
	if req.Format == "csv" {
		w.Header().Set("Content-Type", "text/csv")
		w.WriteHeader(http.StatusOK)
		camp.WriteCSV(w) //nolint:errcheck // headers sent; nothing left to report
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"jobs":    len(camp.Results),
		"results": camp.Results,
	})
}
