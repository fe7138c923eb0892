// Package service is the HTTP/JSON optimization service behind the migd
// daemon (cmd/migd): POST a BLIF or Verilog circuit plus a pass script (or
// canned objective) to /v1/optimize and get back the optimized network
// with the per-pass trace. The server is a thin, production-shaped front
// over logic.Session:
//
//   - deadline-aware admission control: a bounded worker pool with a
//     bounded wait queue; a request that cannot plausibly reach a worker
//     slot before its deadline — or that finds the queue full — is
//     rejected immediately with 429 + Retry-After instead of queueing
//     forever (admission.go);
//   - per-client token-bucket rate limiting, keyed by header or remote
//     host (ratelimit.go);
//   - singleflight collapsing: a thundering herd on one cold design
//     computes once, followers share the result (flight.go);
//   - every request runs under a deadline covering queue wait and
//     optimization, threaded through the SAT solver's conflict loop, so a
//     hung solve cannot pin a worker;
//   - a pass-engine panic is recovered into a 500 with a logged stack
//     while the worker pool stays healthy;
//   - graceful drain: BeginDrain flips /readyz to 503 and rejects new
//     optimizations with 503 while in-flight work finishes;
//   - a result cache keyed by (network hash, script, options) serves
//     repeated submissions of hot designs without recomputation.
//
// Failure semantics (status codes, Retry-After contract, drain behavior)
// are specified in docs/SERVICE.md.
//
// Endpoints:
//
//	POST /v1/optimize   OptimizeRequest -> OptimizeResponse
//	                    ("stream": true or Accept: text/event-stream
//	                    upgrades to SSE per-pass progress, stream.go)
//	GET  /v1/passes     ?kind=mig|aig -> []logic.PassInfo
//	GET  /v1/scripts    ?kind=mig|aig -> []script.Strategy (the named library)
//	GET  /v1/stats      ServerStats (admission, rejections, cache, passes)
//	GET  /metrics       Prometheus text exposition (metrics.go)
//	GET  /healthz       liveness (200 even while draining)
//	GET  /readyz        readiness (503 while draining)
package service

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"log/slog"
	"net/http"
	"runtime"
	"runtime/debug"
	"strings"
	"sync/atomic"
	"time"

	"repro/logic"
	"repro/logic/script"
)

// OptimizeRequest is the /v1/optimize request body. A body with a field
// it does not declare is rejected with a 400 naming the field.
type OptimizeRequest struct {
	// Format of Source: "blif" (default) or "verilog".
	Format string `json:"format,omitempty"`
	// Source is the circuit text.
	Source string `json:"source"`
	// Script is an optional pass script replacing the canned objective.
	Script string `json:"script,omitempty"`
	// ScriptName resolves a named strategy from the server's script
	// library (GET /v1/scripts) instead of an inline Script; the two are
	// mutually exclusive.
	ScriptName string `json:"script_name,omitempty"`
	// Objective is the canned optimization target (default "flow").
	Objective string `json:"objective,omitempty"`
	// Effort is the optimization effort (default 3).
	Effort int `json:"effort,omitempty"`
	// Verify selects the equivalence engine ("" = off).
	Verify string `json:"verify,omitempty"`
	// Fraig appends SAT sweeping to the canned flow.
	Fraig bool `json:"fraig,omitempty"`
	// Workers is the per-request parallel-pass budget (0 = serial).
	Workers int `json:"workers,omitempty"`
	// Output selects the response network format (default: same as Format).
	Output string `json:"output,omitempty"`
	// TimeoutMS bounds this request end to end — queue wait plus
	// optimization (0 = server default; capped by the server maximum;
	// negative is a 400).
	TimeoutMS int `json:"timeout_ms,omitempty"`
	// Stream upgrades the response to an SSE stream of per-pass progress
	// events (see stream.go); equivalent to Accept: text/event-stream.
	// Streaming does not affect the result or its cacheability.
	Stream bool `json:"stream,omitempty"`
}

// OptimizeResponse is the /v1/optimize response body.
type OptimizeResponse struct {
	Name         string      `json:"name"`
	Before       logic.Stats `json:"before"`
	After        logic.Stats `json:"after"`
	Trace        logic.Trace `json:"trace"`
	Network      string      `json:"network"`
	Format       string      `json:"format"`
	VerifyMethod string      `json:"verify_method,omitempty"`
	Seconds      float64     `json:"seconds"`
	// Cached reports that the result was served from the result cache
	// (Seconds then reports the original computation's time).
	Cached bool `json:"cached"`
	// Coalesced reports that this request shared a concurrent identical
	// request's computation (singleflight) instead of running its own.
	Coalesced bool `json:"coalesced,omitempty"`
	// RequestID echoes the request's X-Request-ID (generated by the server
	// when the client sent none), joining this response to the server's
	// access log and traces.
	RequestID string `json:"request_id,omitempty"`
}

// Config tunes a Server. Zero values take the documented defaults.
type Config struct {
	// Workers caps concurrent optimizations (default 4).
	Workers int
	// QueueDepth bounds requests waiting for a worker slot (default
	// 4×Workers; negative means no queue — reject as soon as every worker
	// is busy). Arrivals beyond the bound get 429 + Retry-After.
	QueueDepth int
	// DefaultTimeout bounds requests that set no timeout_ms (default 60s).
	DefaultTimeout time.Duration
	// MaxTimeout caps any requested deadline (default 10m).
	MaxTimeout time.Duration
	// CacheSize bounds the result cache in entries (default 256; 0 takes
	// the default, negative disables caching).
	CacheSize int
	// MaxRequestBytes caps the /v1/optimize request body (default 64 MiB)
	// so oversized submissions are rejected before any parsing work.
	MaxRequestBytes int64
	// RateLimit is the per-client steady-state optimize rate in requests
	// per second (0 disables rate limiting).
	RateLimit float64
	// RateBurst is the per-client burst allowance (default 2×RateLimit,
	// min 1).
	RateBurst int
	// ClientKeyHeader names the header identifying a client for rate
	// limiting (default "X-Client-ID"); absent the header, the remote
	// host is the key.
	ClientKeyHeader string
	// Logger receives panic stacks and drain transitions (default
	// log.Default()).
	Logger *log.Logger
	// AccessLog, when set, receives one structured record per request
	// (method, path, status, duration, request ID, remote); nil disables
	// access logging.
	AccessLog *slog.Logger
	// StreamHeartbeat is the SSE comment-heartbeat interval keeping idle
	// streams alive through proxies (default 15s).
	StreamHeartbeat time.Duration
	// Faults injects test-only faults into the request path (see
	// faults.go); nil in production.
	Faults *Faults
}

func (c *Config) defaults() {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	switch {
	case c.QueueDepth == 0:
		c.QueueDepth = 4 * c.Workers
	case c.QueueDepth < 0:
		c.QueueDepth = 0
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 60 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 10 * time.Minute
	}
	if c.CacheSize == 0 {
		c.CacheSize = 256
	}
	if c.MaxRequestBytes <= 0 {
		c.MaxRequestBytes = 64 << 20
	}
	if c.ClientKeyHeader == "" {
		c.ClientKeyHeader = "X-Client-ID"
	}
	if c.Logger == nil {
		c.Logger = log.Default()
	}
	if c.StreamHeartbeat <= 0 {
		c.StreamHeartbeat = 15 * time.Second
	}
}

// Server is the optimization service. It implements http.Handler.
type Server struct {
	cfg     Config
	adm     *admission
	limiter *rateLimiter
	cache   *resultCache
	flights flightGroup
	mux     *http.ServeMux
	mtx     *serverMetrics

	draining    atomic.Bool
	rateLimited atomic.Uint64
	drainReject atomic.Uint64
	panics      atomic.Uint64
	coalesced   atomic.Uint64
}

// New returns a Server with the given configuration.
func New(cfg Config) *Server {
	cfg.defaults()
	s := &Server{
		cfg: cfg,
		adm: newAdmission(cfg.Workers, cfg.QueueDepth),
		mux: http.NewServeMux(),
		mtx: newServerMetrics(),
	}
	s.adm.mtx = s.mtx
	if cfg.CacheSize > 0 {
		s.cache = newResultCache(cfg.CacheSize)
		s.cache.mtx = s.mtx
	}
	if cfg.RateLimit > 0 {
		s.limiter = newRateLimiter(cfg.RateLimit, cfg.RateBurst)
	}
	s.registerGauges()
	route := func(pattern, endpoint string, h http.HandlerFunc) {
		s.mux.Handle(pattern, s.instrument(endpoint, h))
	}
	route("POST /v1/optimize", "/v1/optimize", s.handleOptimize)
	route("GET /v1/passes", "/v1/passes", s.handlePasses)
	route("GET /v1/scripts", "/v1/scripts", s.handleScripts)
	route("GET /v1/stats", "/v1/stats", s.handleStats)
	route("GET /metrics", "/metrics", s.mtx.reg.Handler().ServeHTTP)
	route("GET /healthz", "/healthz", s.handleHealth)
	route("GET /readyz", "/readyz", s.handleReady)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// BeginDrain flips the server into draining mode: /readyz turns 503 (so
// load balancers stop routing here) and new optimize requests are
// rejected with 503 + Retry-After, while already-admitted work runs to
// completion. Idempotent; there is no way back — a draining process is
// expected to exit once in-flight work finishes (see cmd/migd).
func (s *Server) BeginDrain() {
	if s.draining.CompareAndSwap(false, true) {
		s.cfg.Logger.Printf("migd: draining — rejecting new optimize requests, finishing in-flight work")
	}
}

// Draining reports whether BeginDrain was called.
func (s *Server) Draining() bool { return s.draining.Load() }

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	// Liveness only: stays 200 while draining (the process is healthy,
	// just leaving the pool) — readiness is /readyz's job.
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleReady(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

// ServerStats is the GET /v1/stats body: a point-in-time snapshot of the
// robustness layer's counters.
type ServerStats struct {
	Draining  bool           `json:"draining"`
	Admission AdmissionStats `json:"admission"`
	// Rejected counts load-shed requests by reason (see the Reason*
	// constants: queue_full, deadline_unreachable, rate_limited,
	// draining, client_gone, deadline_expired).
	Rejected map[string]uint64 `json:"rejected,omitempty"`
	// Coalesced counts requests served by singleflight collapsing;
	// Panics counts recovered pass-engine panics.
	Coalesced uint64 `json:"coalesced"`
	Panics    uint64 `json:"panics"`
	// CacheEntries is kept for backward compatibility; Cache carries the
	// full picture.
	CacheEntries int `json:"cache_entries"`
	// Cache is the result cache's traffic, read from the same metrics
	// registry GET /metrics scrapes.
	Cache CacheStats `json:"cache"`
	// Passes aggregates every committed pipeline step by pass name, also
	// sourced from the metrics registry.
	Passes map[string]PassStats `json:"passes,omitempty"`
}

// CacheStats is the result-cache section of ServerStats.
type CacheStats struct {
	Entries   int    `json:"entries"`
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
}

// PassStats aggregates the committed steps of one pass name across all
// requests served since boot.
type PassStats struct {
	Runs        uint64  `json:"runs"`
	Seconds     float64 `json:"seconds"`
	MeanSeconds float64 `json:"mean_seconds"`
	// SizeDelta and DepthDelta are cumulative after-minus-before sums;
	// negative means the pass improved the metric overall.
	SizeDelta     int64   `json:"size_delta"`
	DepthDelta    int64   `json:"depth_delta"`
	VerifySeconds float64 `json:"verify_seconds,omitempty"`
	SATConflicts  int64   `json:"sat_conflicts,omitempty"`
	SATRestarts   int64   `json:"sat_restarts,omitempty"`
}

// Stats snapshots the server's robustness counters.
func (s *Server) Stats() ServerStats {
	adm, rejected := s.adm.stats()
	if n := s.rateLimited.Load(); n > 0 {
		rejected[ReasonRateLimited] = n
	}
	if n := s.drainReject.Load(); n > 0 {
		rejected[ReasonDraining] = n
	}
	st := ServerStats{
		Draining:  s.draining.Load(),
		Admission: adm,
		Rejected:  rejected,
		Coalesced: s.coalesced.Load(),
		Panics:    s.panics.Load(),
		Cache: CacheStats{
			Hits:      uint64(s.mtx.cacheHits.Value()),
			Misses:    uint64(s.mtx.cacheMisses.Value()),
			Evictions: uint64(s.mtx.cacheEvictions.Value()),
		},
		Passes: s.mtx.passStats(),
	}
	if s.cache != nil {
		st.CacheEntries = s.cache.len()
		st.Cache.Entries = st.CacheEntries
	}
	return st
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

func (s *Server) handlePasses(w http.ResponseWriter, r *http.Request) {
	kind := logic.Kind(r.URL.Query().Get("kind"))
	switch kind {
	case "", logic.KindMIG, logic.KindNetlist:
		kind = logic.KindMIG
	case logic.KindAIG:
	default:
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: fmt.Sprintf("unknown kind %q (want mig or aig)", kind)})
		return
	}
	writeJSON(w, http.StatusOK, logic.Passes(kind))
}

// handleScripts serves the named-strategy library: every registered
// strategy with its metadata and canonical script, optionally filtered by
// target representation (?kind=mig|aig; netlist maps to mig like
// /v1/passes, since flat netlists optimize through the MIG).
func (s *Server) handleScripts(w http.ResponseWriter, r *http.Request) {
	switch kind := r.URL.Query().Get("kind"); kind {
	case "":
		writeJSON(w, http.StatusOK, script.All())
	case string(logic.KindNetlist):
		writeJSON(w, http.StatusOK, script.ForKind(script.KindMIG))
	case script.KindMIG, script.KindAIG:
		writeJSON(w, http.StatusOK, script.ForKind(kind))
	default:
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: fmt.Sprintf("unknown kind %q (want mig or aig)", kind)})
	}
}

func (s *Server) handleOptimize(w http.ResponseWriter, r *http.Request) {
	// Load shedding happens before any body parsing: a draining server or
	// an over-limit client is turned away at header-read cost.
	if s.draining.Load() {
		s.drainReject.Add(1)
		s.mtx.incRejected(ReasonDraining)
		writeError(w, &httpError{
			status:     http.StatusServiceUnavailable,
			reason:     ReasonDraining,
			retryAfter: time.Second,
			err:        errors.New("server is draining; retry against another replica"),
		})
		return
	}
	if s.limiter != nil {
		if ok, wait := s.limiter.allow(clientKey(r, s.cfg.ClientKeyHeader), time.Now()); !ok {
			s.rateLimited.Add(1)
			s.mtx.incRejected(ReasonRateLimited)
			writeError(w, &httpError{
				status:     http.StatusTooManyRequests,
				reason:     ReasonRateLimited,
				retryAfter: wait,
				err: fmt.Errorf("client over rate limit (%g req/s, burst %d); retry in ~%s",
					s.cfg.RateLimit, int(s.limiter.burst), wait.Round(time.Millisecond)),
			})
			return
		}
	}
	// Unknown fields are a 400 naming the field: a misspelled or retired
	// option silently ignored would run a different job than asked for.
	var req OptimizeRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.MaxRequestBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		status := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		writeJSON(w, status, errorResponse{Error: "bad request body: " + err.Error()})
		return
	}
	// Validation failures are plain HTTP errors even for streamed
	// requests: the protocol upgrades to SSE only for runnable work.
	p, err := s.prepare(&req)
	if err != nil {
		writeError(w, err)
		return
	}
	if req.Stream || strings.Contains(r.Header.Get("Accept"), "text/event-stream") {
		s.streamOptimize(w, r, p)
		return
	}
	resp, err := s.execute(r.Context(), p, nil)
	if err != nil {
		writeError(w, err)
		return
	}
	// RequestID goes on a shallow copy: coalesced followers may be cloning
	// the same response concurrently, and cached entries must not absorb
	// one request's ID.
	if id := RequestIDFrom(r.Context()); id != "" {
		cp := *resp
		cp.RequestID = id
		resp = &cp
	}
	writeJSON(w, http.StatusOK, resp)
}

// optimize is the non-streamed programmatic path: prepare then execute.
// Every returned error is an *httpError.
func (s *Server) optimize(ctx context.Context, req *OptimizeRequest) (*OptimizeResponse, error) {
	p, err := s.prepare(req)
	if err != nil {
		return nil, err
	}
	return s.execute(ctx, p, nil)
}

// prepared is a validated optimize request, ready to execute: the parsed
// network, the configured session, and the cache/singleflight key.
type prepared struct {
	req       *OptimizeRequest
	sess      *logic.Session
	net       logic.Network
	outFormat logic.Format
	key       string
}

// prepare validates the request and builds everything execution needs.
// Every returned error is an *httpError (all 4xx).
func (s *Server) prepare(req *OptimizeRequest) (*prepared, error) {
	if req.Source == "" {
		return nil, badRequestf("empty source")
	}
	if req.TimeoutMS < 0 {
		return nil, badRequestf("timeout_ms must be non-negative (got %d)", req.TimeoutMS)
	}
	// Every worker of a parallel pass holds graph-sized scratch, and the
	// result is byte-identical for any worker count, so a budget beyond
	// the cores buys nothing.
	if limit := runtime.GOMAXPROCS(0); req.Workers > limit {
		return nil, badRequestf("workers must be at most %d, the server's GOMAXPROCS (got %d)", limit, req.Workers)
	}
	inFormat := logic.FormatBLIF
	if req.Format != "" {
		var err error
		if inFormat, err = logic.ParseFormat(req.Format); err != nil {
			return nil, errStatus(http.StatusBadRequest, err)
		}
	}
	outFormat := inFormat
	if req.Output != "" {
		var err error
		if outFormat, err = logic.ParseFormat(req.Output); err != nil {
			return nil, errStatus(http.StatusBadRequest, err)
		}
	}
	net, err := logic.DecodeReader(inFormat, strings.NewReader(req.Source))
	if err != nil {
		return nil, badRequestf("parse %s: %w", inFormat, err)
	}
	// A named strategy resolves to its library script; the request runs
	// through the MIG path (sources decode to flat netlists), so only
	// "mig" strategies apply.
	scriptText := req.Script
	if req.ScriptName != "" {
		if req.Script != "" {
			return nil, badRequestf("script and script_name are mutually exclusive")
		}
		st, ok := script.Lookup(req.ScriptName)
		if !ok {
			return nil, badRequestf("unknown script_name %q (have %s)",
				req.ScriptName, strings.Join(script.Names(), ", "))
		}
		if st.Kind != script.KindMIG {
			return nil, badRequestf("script_name %q targets %s networks; the service optimizes through the MIG", st.Name, st.Kind)
		}
		scriptText = st.Script
	}
	if scriptText != "" {
		if err := logic.ValidateScript(logic.KindMIG, scriptText); err != nil {
			return nil, errStatus(http.StatusBadRequest, err)
		}
	}
	opts := []logic.Option{
		logic.WithScript(scriptText),
		logic.WithVerify(req.Verify),
		logic.WithFraig(req.Fraig),
		logic.WithWorkers(req.Workers),
	}
	if req.Objective != "" {
		opts = append(opts, logic.WithObjective(req.Objective))
	}
	if req.Effort != 0 {
		opts = append(opts, logic.WithEffort(req.Effort))
	}
	sess, err := logic.NewSession(opts...)
	if err != nil {
		return nil, errStatus(http.StatusBadRequest, err)
	}

	// The cache key hashes the canonical (re-encoded) network rather than
	// the raw source, so submissions differing only in whitespace or
	// format hit the same entry — keyed on the resolved output format, so
	// a BLIF and a Verilog submission of the same circuit don't collide
	// when their defaulted outputs differ. Named strategies key by their
	// resolved script text, so script_name "migscript" and the identical
	// inline script share one entry (the library is the checked-in table,
	// so a name cannot change its script within a process). Stream is
	// deliberately not keyed: a streamed and a plain request for the same
	// work share one entry.
	return &prepared{
		req:       req,
		sess:      sess,
		net:       net,
		outFormat: outFormat,
		key:       cacheKey(net, req, scriptText, outFormat),
	}, nil
}

// execute consults the cache, then computes through the singleflight
// group (which in turn passes admission control). A non-nil sub receives
// live step events — its own run's when leading, the leader's when
// coalesced. Every returned error is an *httpError.
func (s *Server) execute(ctx context.Context, p *prepared, sub *streamSub) (*OptimizeResponse, error) {
	if s.cache != nil {
		if resp, ok := s.cache.get(p.key); ok {
			resp.Cached = true
			return resp, nil
		}
	}

	// The cache key also drives singleflight: concurrent identical misses
	// collapse onto one computation, and only its leader passes admission.
	resp, coalesced, err := s.flights.do(ctx, p.key, sub, func(publish func(logic.Step)) (*OptimizeResponse, error) {
		return s.compute(ctx, p, publish)
	})
	if coalesced && err == nil {
		s.coalesced.Add(1)
		s.mtx.coalesced.Inc()
	}
	return resp, err
}

// compute is the singleflight leader's path: admission, deadline, run,
// cache fill. The request deadline covers queue wait AND optimization, so
// admission can reject a deadline it cannot plausibly meet.
func (s *Server) compute(ctx context.Context, p *prepared, publish func(logic.Step)) (*OptimizeResponse, error) {
	timeout := s.cfg.DefaultTimeout
	if p.req.TimeoutMS > 0 {
		timeout = time.Duration(p.req.TimeoutMS) * time.Millisecond
	}
	if timeout > s.cfg.MaxTimeout {
		timeout = s.cfg.MaxTimeout
	}
	runCtx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()

	if err := s.cfg.Faults.fire(runCtx, StageAdmit); err != nil {
		return nil, s.asHTTPError(runCtx, timeout, err)
	}
	release, err := s.adm.acquire(runCtx)
	if err != nil {
		return nil, err
	}
	defer release()

	resp, err := s.run(runCtx, p, publish)
	if err != nil {
		return nil, s.asHTTPError(runCtx, timeout, err)
	}
	if s.cache != nil {
		s.cache.put(p.key, resp)
	}
	return resp, nil
}

// run executes the optimization inside a held worker slot, converting a
// pass-engine panic into an error so the slot is always released and the
// pool stays healthy. Each committed pass step is observed live: recorded
// into the per-pass metrics and published to any streaming subscribers.
func (s *Server) run(ctx context.Context, p *prepared, publish func(logic.Step)) (resp *OptimizeResponse, err error) {
	defer func() {
		if r := recover(); r != nil {
			s.panics.Add(1)
			s.mtx.panics.Inc()
			s.cfg.Logger.Printf("migd: recovered optimization panic: %v\n%s", r, debug.Stack())
			resp, err = nil, &httpError{
				status: http.StatusInternalServerError,
				reason: ReasonPanic,
				err:    fmt.Errorf("internal error: optimization panicked (%v); worker pool unaffected", r),
			}
		}
	}()
	if ferr := s.cfg.Faults.fire(ctx, StageOptimize); ferr != nil {
		return nil, ferr
	}
	ctx = logic.ContextWithObserver(ctx, func(st logic.Step) {
		s.mtx.observeStep(st)
		if publish != nil {
			publish(st)
		}
	})
	optimized, result, err := p.sess.Optimize(ctx, p.net)
	if err != nil {
		return nil, err
	}
	rendered, err := logic.Encode(optimized, p.outFormat)
	if err != nil {
		return nil, errStatus(http.StatusInternalServerError, err)
	}
	return &OptimizeResponse{
		Name:         p.net.Name(),
		Before:       result.Before,
		After:        result.After,
		Trace:        result.Trace,
		Network:      rendered,
		Format:       string(p.outFormat),
		VerifyMethod: result.VerifyMethod,
		Seconds:      result.Seconds,
	}, nil
}

// asHTTPError maps an in-slot failure to the wire: an *httpError passes
// through (panics, encode failures), a dead run context wins next
// (499/504 — the optimizer's error is just the interruption's shadow),
// and anything else is a semantic optimization failure (422).
func (s *Server) asHTTPError(runCtx context.Context, timeout time.Duration, err error) error {
	var he *httpError
	if errors.As(err, &he) {
		return he
	}
	if ctxErr := runCtx.Err(); ctxErr != nil {
		return ctxError(ctxErr, "optimization interrupted after %v: %w", timeout, ctxErr)
	}
	return errStatus(http.StatusUnprocessableEntity, err)
}

// cacheKey derives the result-cache key from the canonical network text
// and every option that affects the output; scriptText is the request's
// effective script (the inline Script, or the ScriptName resolution).
func cacheKey(net logic.Network, req *OptimizeRequest, scriptText string, outFormat logic.Format) string {
	h := sha256.New()
	fmt.Fprintf(h, "v4\x00%s\x00%s\x00%s\x00%d\x00%s\x00%v\x00%s\x00",
		net.EncodeBLIF(), scriptText, req.Objective, req.Effort, req.Verify, req.Fraig, outFormat)
	return hex.EncodeToString(h.Sum(nil))
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
