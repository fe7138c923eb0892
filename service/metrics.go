package service

// Prometheus-style instrumentation of the whole service, exposed at
// GET /metrics (text exposition format). One serverMetrics instance per
// Server owns every instrument; the robustness subsystems (admission,
// cache, singleflight, panic recovery) increment it at the same call
// sites that feed their JSON counters, and GET /v1/stats reads the new
// cache/per-pass aggregates back out of the same registry — one source
// of truth, so the two views cannot drift.
//
// Hot-path discipline: every method called per request or per pass is a
// counter add or single-label vec lookup — allocation-free (pinned by
// BenchmarkObserveStep). Point-in-time values (queue depth, cache
// occupancy, drain state) are GaugeFuncs evaluated only at scrape time,
// so there is no double bookkeeping.

import (
	"net/http"
	"strconv"
	"time"

	"repro/internal/metrics"
	"repro/logic"
)

type serverMetrics struct {
	reg *metrics.Registry

	// HTTP surface.
	httpRequests *metrics.CounterVec   // migd_http_requests_total{endpoint,code}
	httpLatency  *metrics.HistogramVec // migd_http_request_seconds{endpoint}

	// Robustness layer.
	rejected                               *metrics.CounterVec // migd_rejected_total{reason}
	admitted                               *metrics.Counter
	queueWait                              *metrics.Histogram
	cacheHits, cacheMisses, cacheEvictions *metrics.Counter
	coalesced                              *metrics.Counter
	panics                                 *metrics.Counter
	streamsActive                          *metrics.Gauge

	// Pass engine, aggregated per pass name as steps commit.
	passRuns       *metrics.CounterVec // migd_pass_runs_total{pass}
	passSeconds    *metrics.CounterVec // migd_pass_seconds_total{pass}
	passSizeDelta  *metrics.GaugeVec   // migd_pass_size_delta{pass}, cumulative after-before
	passDepthDelta *metrics.GaugeVec
	passVerifySecs *metrics.CounterVec
	passConflicts  *metrics.CounterVec
	passRestarts   *metrics.CounterVec
}

// queueWaitBuckets resolve the short waits admission typically produces
// (immediate handoffs observe 0) while still covering pathological queues.
func queueWaitBuckets() []float64 {
	return []float64{0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5, 15, 60}
}

func newServerMetrics() *serverMetrics {
	reg := metrics.NewRegistry()
	return &serverMetrics{
		reg: reg,
		httpRequests: reg.CounterVec("migd_http_requests_total",
			"HTTP requests served, by endpoint pattern and status code.", "endpoint", "code"),
		httpLatency: reg.HistogramVec("migd_http_request_seconds",
			"HTTP request latency in seconds, by endpoint pattern.", nil, "endpoint"),
		rejected: reg.CounterVec("migd_rejected_total",
			"Optimize requests shed, by machine-readable reason.", "reason"),
		admitted: reg.Counter("migd_admission_admitted_total",
			"Optimize requests that ever held a worker slot."),
		queueWait: reg.Histogram("migd_admission_queue_wait_seconds",
			"Time spent waiting for a worker slot (0 for immediate admission).", queueWaitBuckets()),
		cacheHits: reg.Counter("migd_cache_hits_total",
			"Optimize requests answered from the result cache."),
		cacheMisses: reg.Counter("migd_cache_misses_total",
			"Optimize requests that missed the result cache."),
		cacheEvictions: reg.Counter("migd_cache_evictions_total",
			"Result-cache entries evicted by the LRU bound."),
		coalesced: reg.Counter("migd_singleflight_coalesced_total",
			"Optimize requests that shared a concurrent identical computation."),
		panics: reg.Counter("migd_panics_total",
			"Pass-engine panics recovered into HTTP 500s."),
		streamsActive: reg.Gauge("migd_streams_active",
			"SSE progress streams currently open."),
		passRuns: reg.CounterVec("migd_pass_runs_total",
			"Committed pipeline steps, by pass name.", "pass"),
		passSeconds: reg.CounterVec("migd_pass_seconds_total",
			"Wall-clock seconds spent inside passes, by pass name.", "pass"),
		passSizeDelta: reg.GaugeVec("migd_pass_size_delta",
			"Cumulative node-count change (after minus before; negative is improvement), by pass name.", "pass"),
		passDepthDelta: reg.GaugeVec("migd_pass_depth_delta",
			"Cumulative depth change (after minus before; negative is improvement), by pass name.", "pass"),
		passVerifySecs: reg.CounterVec("migd_pass_verify_seconds_total",
			"Wall-clock seconds spent verifying equivalence after passes, by pass name.", "pass"),
		passConflicts: reg.CounterVec("migd_pass_sat_conflicts_total",
			"SAT conflicts reported by per-pass equivalence checks, by pass name.", "pass"),
		passRestarts: reg.CounterVec("migd_pass_sat_restarts_total",
			"SAT restarts reported by per-pass equivalence checks, by pass name.", "pass"),
	}
}

// registerGauges installs the scrape-time views over state the subsystems
// already track under their own locks. Split from newServerMetrics because
// it closes over the Server, which owns the subsystems.
func (s *Server) registerGauges() {
	reg := s.mtx.reg
	reg.GaugeFunc("migd_admission_workers", "Worker slots.", func() float64 {
		return float64(s.cfg.Workers)
	})
	reg.GaugeFunc("migd_admission_in_use", "Worker slots running an optimization now.", func() float64 {
		st, _ := s.adm.stats()
		return float64(st.InUse)
	})
	reg.GaugeFunc("migd_admission_queued", "Requests waiting for a worker slot now.", func() float64 {
		st, _ := s.adm.stats()
		return float64(st.Queued)
	})
	reg.GaugeFunc("migd_admission_queue_capacity", "Bound of the admission wait queue.", func() float64 {
		st, _ := s.adm.stats()
		return float64(st.QueueCapacity)
	})
	reg.GaugeFunc("migd_admission_ewma_service_seconds",
		"EWMA of recent in-slot service time feeding deadline-aware rejection.", func() float64 {
			st, _ := s.adm.stats()
			return st.EWMAServiceMS / 1000
		})
	reg.GaugeFunc("migd_cache_entries", "Result-cache entries resident.", func() float64 {
		if s.cache == nil {
			return 0
		}
		return float64(s.cache.len())
	})
	reg.GaugeFunc("migd_draining", "1 while BeginDrain has been called, else 0.", func() float64 {
		if s.draining.Load() {
			return 1
		}
		return 0
	})
}

// Nil-safe increment helpers: subsystems constructed without metrics (unit
// tests poking newResultCache/newAdmission directly) pay one nil check.

func (m *serverMetrics) incRejected(reason string) {
	if m != nil {
		m.rejected.With(reason).Inc()
	}
}

func (m *serverMetrics) observeAdmit(wait time.Duration) {
	if m != nil {
		m.admitted.Inc()
		m.queueWait.Observe(wait.Seconds())
	}
}

func (m *serverMetrics) incCacheHit() {
	if m != nil {
		m.cacheHits.Inc()
	}
}

func (m *serverMetrics) incCacheMiss() {
	if m != nil {
		m.cacheMisses.Inc()
	}
}

func (m *serverMetrics) incCacheEviction() {
	if m != nil {
		m.cacheEvictions.Inc()
	}
}

// observeStep aggregates one committed pass step. Called from the engine's
// observer hook on the optimizing goroutine, so it must stay allocation
// free: every With is a single-label lookup of an already-created child
// after the first step of a given pass.
func (m *serverMetrics) observeStep(st logic.Step) {
	m.passRuns.With(st.Pass).Inc()
	m.passSeconds.With(st.Pass).Add(st.Seconds)
	m.passSizeDelta.With(st.Pass).Add(float64(st.SizeAfter - st.SizeBefore))
	m.passDepthDelta.With(st.Pass).Add(float64(st.DepthAfter - st.DepthBefore))
	if st.VerifyMS > 0 {
		m.passVerifySecs.With(st.Pass).Add(st.VerifyMS / 1000)
	}
	if st.Conflicts > 0 {
		m.passConflicts.With(st.Pass).Add(float64(st.Conflicts))
	}
	if st.SolverRestarts > 0 {
		m.passRestarts.With(st.Pass).Add(float64(st.SolverRestarts))
	}
}

// passStats assembles the /v1/stats per-pass aggregates from the registry
// — the same instruments /metrics scrapes.
func (m *serverMetrics) passStats() map[string]PassStats {
	runs := m.passRuns.Snapshot()
	if len(runs) == 0 {
		return nil
	}
	secs := m.passSeconds.Snapshot()
	size := m.passSizeDelta.Snapshot()
	depth := m.passDepthDelta.Snapshot()
	verify := m.passVerifySecs.Snapshot()
	conflicts := m.passConflicts.Snapshot()
	restarts := m.passRestarts.Snapshot()
	out := make(map[string]PassStats, len(runs))
	for pass, n := range runs {
		ps := PassStats{
			Runs:          uint64(n),
			Seconds:       secs[pass],
			SizeDelta:     int64(size[pass]),
			DepthDelta:    int64(depth[pass]),
			VerifySeconds: verify[pass],
			SATConflicts:  int64(conflicts[pass]),
			SATRestarts:   int64(restarts[pass]),
		}
		if n > 0 {
			ps.MeanSeconds = ps.Seconds / n
		}
		out[pass] = ps
	}
	return out
}

// statusWriter captures the response status for the request metrics and
// access log, passing Flush through so SSE streaming works behind it.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// instrument wraps a handler with the per-request pipeline: request-ID
// assignment (echoed as X-Request-ID), latency/status metrics under the
// route's fixed endpoint label (never the raw path — label cardinality
// stays bounded), and the optional structured access log.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := requestID(r)
		w.Header().Set("X-Request-ID", id)
		r = r.WithContext(contextWithRequestID(r.Context(), id))
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		h(sw, r)
		elapsed := time.Since(start)
		if sw.status == 0 {
			sw.status = http.StatusOK
		}
		s.mtx.httpRequests.With(endpoint, strconv.Itoa(sw.status)).Inc()
		s.mtx.httpLatency.With(endpoint).Observe(elapsed.Seconds())
		if s.cfg.AccessLog != nil {
			s.cfg.AccessLog.Info("request",
				"method", r.Method,
				"path", r.URL.Path,
				"status", sw.status,
				"duration_ms", float64(elapsed.Microseconds())/1000,
				"request_id", id,
				"remote", r.RemoteAddr,
			)
		}
	})
}
