// Package server is the lzwtcd compression service: an HTTP front end
// over the library's compression pipeline, streaming wire-format bodies
// (internal/wire) and running jobs on the internal/parallel pool.
//
// Endpoints:
//
//	POST /v1/compress         test set in, wire container out
//	                          (?char ?dict ?entry ?fill ?tie ?full ?shard)
//	POST /v1/decompress       wire container in, fully specified test set out
//	GET  /v1/stats            JSON service counters
//	GET  /healthz             liveness
//	GET  /metrics             Prometheus text exposition (internal/telemetry)
//	GET  /debug/trace/recent  last-N request traces as JSON (?n)
//
// A test set travels as cube planes (MediaPlanes, the wire format's
// planes message) when the request's Content-Type or, on decompress, its
// Accept header names that type, and as cube text otherwise, so curl and
// files work as they are.
//
// Every request is bounded two ways: http.MaxBytesReader enforces the
// body limit (413 with a structured error body) and a per-request
// timeout bounds wall clock (408). Errors are always the JSON envelope
// of api.go, carrying the request ID the server assigned or echoed
// from X-Request-Id. Serve drains gracefully: on context cancellation
// the listener closes, in-flight requests run to completion inside the
// drain timeout, and only then does Serve return.
//
// Tracing: compress and decompress requests run under a server span
// (linked beneath the caller's span when the request carries an
// X-Lzwtc-Trace header), and the pool jobs, core phases and wire
// framing underneath nest as child spans. Completed spans land in an
// in-memory ring buffer served by /debug/trace/recent and in any sinks
// the Config supplies.
package server

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lzwtc"
	"lzwtc/internal/core"
	"lzwtc/internal/dictstore"
	"lzwtc/internal/jobs"
	"lzwtc/internal/telemetry"
	"lzwtc/internal/wire"
)

// Metric names exported at /metrics. Every name is a distinct package
// const — never computed — so the lzwtcvet metricname check can audit
// the full /metrics surface against the names the tests assert.
const (
	MetricRequests     = "lzwtcd_requests_total"
	MetricErrors       = "lzwtcd_errors_total"
	MetricInFlight     = "lzwtcd_in_flight"
	MetricLatency      = "lzwtcd_request_seconds"
	MetricBytesIn      = "lzwtcd_bytes_in_total"
	MetricBytesOut     = "lzwtcd_bytes_out_total"
	MetricPatternsIn   = "lzwtcd_patterns_compressed_total"
	MetricPatternsOut  = "lzwtcd_patterns_decompressed_total"
	MetricDrainStarted = "lzwtcd_drain_started"

	// Per-endpoint request counters (the lzwtcd_<endpoint>_requests_total
	// family handleStats folds back into its endpoint map).
	MetricCompressRequests   = "lzwtcd_compress_requests_total"
	MetricDecompressRequests = "lzwtcd_decompress_requests_total"
	MetricStatsRequests      = "lzwtcd_stats_requests_total"
	MetricHealthRequests     = "lzwtcd_healthz_requests_total"
	MetricMetricsRequests    = "lzwtcd_metrics_requests_total"
	MetricTraceRequests      = "lzwtcd_trace_requests_total"
	MetricOtherRequests      = "lzwtcd_other_requests_total"

	// Job-tier endpoints: submissions and the per-job status/result/
	// cancel operations are counted separately, since one submission
	// typically fans out into many polls.
	MetricJobSubmitRequests = "lzwtcd_job_submit_requests_total"
	MetricJobRequests       = "lzwtcd_job_requests_total"

	// MetricDictRequests counts /v1/dict operations (train, fetch,
	// upload, evict together; the store's own hit/miss/train counters
	// break the outcomes down).
	MetricDictRequests = "lzwtcd_dict_requests_total"
)

// SLO latency histograms for the two data-plane endpoints. Each request
// contributes two observations — time to first response byte and time
// to completion — into the _ok or _error family for its outcome, so an
// SLO burn query never mixes fast failures into the success latency.
// The registry is label-free by design; outcome is encoded in the name.
const (
	MetricSLOCompressFirstByteOK    = "lzwtcd_slo_compress_first_byte_seconds_ok"
	MetricSLOCompressFirstByteErr   = "lzwtcd_slo_compress_first_byte_seconds_error"
	MetricSLOCompressDoneOK         = "lzwtcd_slo_compress_seconds_ok"
	MetricSLOCompressDoneErr        = "lzwtcd_slo_compress_seconds_error"
	MetricSLODecompressFirstByteOK  = "lzwtcd_slo_decompress_first_byte_seconds_ok"
	MetricSLODecompressFirstByteErr = "lzwtcd_slo_decompress_first_byte_seconds_error"
	MetricSLODecompressDoneOK       = "lzwtcd_slo_decompress_seconds_ok"
	MetricSLODecompressDoneErr      = "lzwtcd_slo_decompress_seconds_error"
)

// Trace span names for the server request handlers.
const (
	SpanCompress   = "server.compress"
	SpanDecompress = "server.decompress"
	// SpanJobSubmit covers the synchronous part of an async submission
	// (parse + admit). The job's own execution is the jobs.SpanJobRun
	// span, linked under this one through the submit context. Status
	// polls are deliberately untraced — hundreds per job would drown the
	// trace ring.
	SpanJobSubmit = "server.job.submit"
	// SpanReadBody covers reading and decoding a test-set request body
	// (compress, job submit, dictionary training).
	SpanReadBody = "server.read_body"
	// SpanWriteBody covers rendering the decompress reply.
	SpanWriteBody = "server.write_body"
)

// processName stamps this server's trace spans, distinguishing them
// from client-side spans in a merged trace.
const processName = "lzwtcd"

// latencyBuckets spans sub-millisecond cache hits to multi-second
// sharded runs.
func latencyBuckets() []float64 {
	return []float64{0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30}
}

// Config tunes the service. The zero value serves with the defaults
// below.
type Config struct {
	// MaxBodyBytes bounds request bodies; <= 0 means 64 MiB.
	MaxBodyBytes int64
	// RequestTimeout bounds one request's wall clock; <= 0 means 60s.
	RequestTimeout time.Duration
	// Workers bounds the parallel pool per request; <= 0 means
	// GOMAXPROCS (the pool's own default).
	Workers int
	// Registry receives service metrics; nil allocates a private one.
	// The compression pipeline records into the same registry, so
	// /metrics and /v1/stats cover core and pool metrics too.
	Registry *telemetry.Registry
	// TraceCapacity bounds the in-memory trace ring buffer behind
	// /debug/trace/recent; <= 0 means 64 traces.
	TraceCapacity int
	// Sinks receive the server's telemetry events (trace spans, run
	// records) in addition to the built-in trace ring buffer. They never
	// receive per-step events (compress.step, decompress.step): New
	// wraps each one so it opts out of them, so the server's recorders
	// never trace and a request never renders a step. Optional.
	Sinks []telemetry.Sink

	// JobQueueDepth bounds admitted-but-not-running async jobs; <= 0
	// means 256 (jobs.Config default).
	JobQueueDepth int
	// JobConcurrent bounds async jobs running at once; <= 0 means 2.
	JobConcurrent int
	// JobResultTTL is how long finished jobs and their results are
	// retained; <= 0 means 5 minutes.
	JobResultTTL time.Duration
	// JobSweepInterval is the TTL sweeper cadence; <= 0 derives from
	// JobResultTTL.
	JobSweepInterval time.Duration
	// JobQuota is the per-tenant admission policy for the job tier; the
	// zero value admits everything.
	JobQuota jobs.Quota

	// DictStore is the shared-dictionary cache tier behind /v1/dict and
	// the dictid compression path. nil opens a private memory-only
	// store wired to the server's registry; an injected store is NOT
	// closed by the server (its owner closes it) but its resolve spans
	// are re-pointed at the server's recorder so they join request
	// traces.
	DictStore *dictstore.Store
}

// Server is the lzwtcd HTTP service.
type Server struct {
	cfg      Config
	reg      *telemetry.Registry
	rec      *telemetry.Recorder
	traces   *telemetry.TraceBuffer
	sinks    []telemetry.Sink // recorder's sink set; per-job recorders extend it
	jobs     *jobs.Manager
	dict     *dictstore.Store
	ownDict  bool
	mux      *http.ServeMux
	start    time.Time
	inFlight atomic.Int64
	draining atomic.Bool

	requests    *telemetry.Counter
	errs        *telemetry.Counter
	bytesIn     *telemetry.Counter
	bytesOut    *telemetry.Counter
	patternsIn  *telemetry.Counter
	patternsOut *telemetry.Counter
	latency     *telemetry.Histogram
	inFlightG   *telemetry.Gauge
}

// sloHists holds one endpoint's SLO instruments, resolved once at
// construction. A nil *sloHists disables SLO accounting (control-plane
// endpoints).
type sloHists struct {
	firstByteOK  *telemetry.Histogram
	firstByteErr *telemetry.Histogram
	doneOK       *telemetry.Histogram
	doneErr      *telemetry.Histogram
}

// observe records one finished request: firstByte and done are seconds
// from request start (firstByte falls back to done when the handler
// never wrote a byte).
func (h *sloHists) observe(ok bool, firstByte, done float64) {
	fb, dn := h.firstByteErr, h.doneErr
	if ok {
		fb, dn = h.firstByteOK, h.doneOK
	}
	fb.Observe(firstByte)
	dn.Observe(done)
}

// configSink wraps one Config.Sinks entry. It opts out of per-step
// events, and it serializes Emit: the server's recorder and every job's
// recorder share the sink, and each recorder holds only its own lock.
type configSink struct {
	mu   sync.Mutex
	sink telemetry.Sink
}

// Emit implements telemetry.Sink.
func (c *configSink) Emit(ev telemetry.Event) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sink.Emit(ev)
}

// WantsSteps implements telemetry.StepSink: server sinks take no step
// events.
func (*configSink) WantsSteps() bool { return false }

// New builds a Server.
func New(cfg Config) *Server {
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 64 << 20
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 60 * time.Second
	}
	reg := cfg.Registry
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	traces := telemetry.NewTraceBuffer(cfg.TraceCapacity)
	sinks := make([]telemetry.Sink, 0, len(cfg.Sinks)+1)
	for _, sk := range cfg.Sinks {
		if sk != nil {
			sinks = append(sinks, &configSink{sink: sk})
		}
	}
	sinks = append(sinks, traces)
	s := &Server{
		cfg:         cfg,
		reg:         reg,
		rec:         telemetry.New(reg, sinks...).WithProcess(processName),
		traces:      traces,
		sinks:       sinks,
		mux:         http.NewServeMux(),
		start:       time.Now(),
		requests:    reg.Counter(MetricRequests, "requests received"),
		errs:        reg.Counter(MetricErrors, "requests answered with an error status"),
		bytesIn:     reg.Counter(MetricBytesIn, "request body bytes consumed"),
		bytesOut:    reg.Counter(MetricBytesOut, "response body bytes written"),
		patternsIn:  reg.Counter(MetricPatternsIn, "patterns compressed"),
		patternsOut: reg.Counter(MetricPatternsOut, "patterns decompressed"),
		latency:     reg.Histogram(MetricLatency, "request latency in seconds", latencyBuckets()),
		inFlightG:   reg.Gauge(MetricInFlight, "requests currently being served"),
	}
	compressSLO := &sloHists{
		firstByteOK:  reg.Histogram(MetricSLOCompressFirstByteOK, "compress time to first byte, successful requests", latencyBuckets()),
		firstByteErr: reg.Histogram(MetricSLOCompressFirstByteErr, "compress time to first byte, failed requests", latencyBuckets()),
		doneOK:       reg.Histogram(MetricSLOCompressDoneOK, "compress request duration, successful requests", latencyBuckets()),
		doneErr:      reg.Histogram(MetricSLOCompressDoneErr, "compress request duration, failed requests", latencyBuckets()),
	}
	decompressSLO := &sloHists{
		firstByteOK:  reg.Histogram(MetricSLODecompressFirstByteOK, "decompress time to first byte, successful requests", latencyBuckets()),
		firstByteErr: reg.Histogram(MetricSLODecompressFirstByteErr, "decompress time to first byte, failed requests", latencyBuckets()),
		doneOK:       reg.Histogram(MetricSLODecompressDoneOK, "decompress request duration, successful requests", latencyBuckets()),
		doneErr:      reg.Histogram(MetricSLODecompressDoneErr, "decompress request duration, failed requests", latencyBuckets()),
	}
	// The traceStart closures keep every StartSpan call site on a
	// package-const span name, the contract the metricname check audits.
	s.mux.HandleFunc(PathCompress, s.instrument(
		reg.Counter(MetricCompressRequests, "requests to compress"), compressSLO,
		func(ctx context.Context) (context.Context, *telemetry.TraceSpan) {
			return s.rec.StartSpan(ctx, SpanCompress)
		}, s.handleCompress))
	s.mux.HandleFunc(PathDecompress, s.instrument(
		reg.Counter(MetricDecompressRequests, "requests to decompress"), decompressSLO,
		func(ctx context.Context) (context.Context, *telemetry.TraceSpan) {
			return s.rec.StartSpan(ctx, SpanDecompress)
		}, s.handleDecompress))
	s.mux.HandleFunc(PathStats, s.instrument(
		reg.Counter(MetricStatsRequests, "requests to stats"), nil, nil, s.handleStats))
	s.mux.HandleFunc(PathHealth, s.instrument(
		reg.Counter(MetricHealthRequests, "requests to healthz"), nil, nil, s.handleHealth))
	s.mux.HandleFunc(PathMetrics, s.instrument(
		reg.Counter(MetricMetricsRequests, "requests to metrics"), nil, nil, s.handleMetrics))
	s.mux.HandleFunc(PathTraceRecent, s.instrument(
		reg.Counter(MetricTraceRequests, "requests to trace/recent"), nil, nil, s.handleTraceRecent))
	s.jobs = jobs.NewManager(jobs.Config{
		QueueDepth:    cfg.JobQueueDepth,
		Concurrent:    cfg.JobConcurrent,
		ResultTTL:     cfg.JobResultTTL,
		SweepInterval: cfg.JobSweepInterval,
		Quota:         cfg.JobQuota,
		Recorder:      s.rec,
	})
	s.mux.HandleFunc(PathJobsCompress, s.instrument(
		reg.Counter(MetricJobSubmitRequests, "async job submissions"), nil,
		func(ctx context.Context) (context.Context, *telemetry.TraceSpan) {
			return s.rec.StartSpan(ctx, SpanJobSubmit)
		}, s.handleJobSubmit))
	s.mux.HandleFunc(PathJobs, s.instrument(
		reg.Counter(MetricJobRequests, "job status/result/cancel operations"), nil, nil, s.handleJobs))
	s.dict = cfg.DictStore
	if s.dict == nil {
		// Open cannot fail without a Dir, so the error is structural-
		// impossible here; a private memory-only store still serves the
		// full API (minus persistence).
		s.dict, _ = dictstore.Open(dictstore.Config{Registry: reg})
		s.ownDict = true
	}
	s.dict.SetRecorder(s.rec)
	dictCounter := reg.Counter(MetricDictRequests, "dictionary store operations")
	s.mux.HandleFunc(PathDict, s.instrument(dictCounter, nil, nil, s.handleDictTrain))
	s.mux.HandleFunc(PathDictKey, s.instrument(dictCounter, nil, nil, s.handleDictKey))
	s.mux.HandleFunc("/", s.instrument(
		reg.Counter(MetricOtherRequests, "requests to unknown endpoints"), nil, nil,
		func(w http.ResponseWriter, r *http.Request) {
			s.writeError(w, r, http.StatusNotFound, CodeNotFound, fmt.Sprintf("no such endpoint %s", r.URL.Path))
		}))
	return s
}

// Registry returns the metrics registry the server records into.
func (s *Server) Registry() *telemetry.Registry { return s.reg }

// Traces returns the server's trace ring buffer.
func (s *Server) Traces() *telemetry.TraceBuffer { return s.traces }

// Handler returns the service's root handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Jobs returns the async job manager, for tests and embedders that
// drive the tier directly.
func (s *Server) Jobs() *jobs.Manager { return s.jobs }

// DictStore returns the shared-dictionary store the server serves
// /v1/dict from (the injected one, or the private memory-only store).
func (s *Server) DictStore() *dictstore.Store { return s.dict }

// Close releases the server's background resources: remaining async
// jobs are canceled and the job manager's goroutines stopped, and a
// privately opened dictionary store is closed (an injected one belongs
// to its owner). Serve calls it after a drain; handler-only embedders
// (httptest) must call it themselves.
func (s *Server) Close() {
	s.jobs.Close()
	if s.ownDict {
		_ = s.dict.Close() //nolint:errcheck // memory-only store; Close cannot fail
	}
}

// TraceHandler returns a standalone handler for the recent-traces
// endpoint, for mounting on a separate debug listener next to pprof.
func (s *Server) TraceHandler() http.Handler { return http.HandlerFunc(s.handleTraceRecent) }

// Serve accepts on ln until ctx is canceled, then drains: the listener
// closes immediately, in-flight requests get up to drainTimeout to
// complete, and Serve returns nil on a clean drain.
func (s *Server) Serve(ctx context.Context, ln net.Listener, drainTimeout time.Duration) error {
	hs := &http.Server{Handler: s.mux}
	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(ln) }()
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	s.draining.Store(true)
	s.reg.Gauge(MetricDrainStarted, "1 once graceful drain has begun").Set(1)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := hs.Shutdown(shutdownCtx); err != nil {
		hs.Close() //nolint:errcheck // best-effort hard stop after failed drain
		s.Close()
		return fmt.Errorf("server: drain: %w", err)
	}
	// In-flight requests are done; let admitted async jobs finish inside
	// the same drain budget, then stop the manager (canceling whatever
	// the budget did not cover).
	drainErr := s.jobs.Drain(shutdownCtx)
	s.Close()
	if drainErr != nil {
		return fmt.Errorf("server: drain: %w", drainErr)
	}
	if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// instrument wraps a handler with the request-scoped plumbing every
// endpoint shares: request/error/latency/in-flight accounting, request
// ID assignment and echo, trace-header propagation, and — for the
// data-plane endpoints — a server span plus SLO histograms. The
// per-endpoint counter is registered by the caller (New) under a
// package const, so every exported name stays statically auditable;
// traceStart (nil for untraced endpoints) is a closure whose StartSpan
// call site likewise names its span with a const.
func (s *Server) instrument(perEndpoint *telemetry.Counter, slo *sloHists,
	traceStart func(context.Context) (context.Context, *telemetry.TraceSpan), h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		s.requests.Inc()
		perEndpoint.Inc()
		s.inFlightG.Set(float64(s.inFlight.Add(1)))

		reqID := sanitizeRequestID(r.Header.Get(HeaderRequestID))
		if reqID == "" {
			reqID = telemetry.NewRequestID()
		}
		w.Header().Set(HeaderRequestID, reqID)
		ctx := telemetry.ContextWithRequestID(r.Context(), reqID)
		if sc, ok := telemetry.ParseSpanContext(r.Header.Get(HeaderTrace)); ok {
			ctx = telemetry.ContextWithSpan(ctx, sc)
		}
		var sp *telemetry.TraceSpan
		if traceStart != nil {
			ctx, sp = traceStart(ctx)
		}
		r = r.WithContext(ctx)

		cw := &countingResponseWriter{ResponseWriter: w, status: http.StatusOK, start: start}
		defer func() {
			s.inFlightG.Set(float64(s.inFlight.Add(-1)))
			elapsed := time.Since(start).Seconds()
			s.latency.Observe(elapsed)
			s.bytesOut.Add(cw.written)
			ok := cw.status < 400
			if !ok {
				s.errs.Inc()
			}
			if slo != nil {
				firstByte := elapsed
				if cw.firstByte > 0 {
					firstByte = cw.firstByte.Seconds()
				}
				slo.observe(ok, firstByte, elapsed)
			}
			sp.End(telemetry.F("status", cw.status), telemetry.F("endpoint", r.URL.Path))
		}()
		h(cw, r)
	}
}

// sanitizeRequestID accepts a caller-supplied request ID only when it
// is 1–64 bytes of [0-9A-Za-z._-]; anything else (including absence)
// makes the server assign its own. Request IDs land in log lines, span
// records and response headers, so the grammar is deliberately narrow.
func sanitizeRequestID(id string) string {
	if len(id) == 0 || len(id) > 64 {
		return ""
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= '0' && c <= '9', c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z',
			c == '.', c == '_', c == '-':
		default:
			return ""
		}
	}
	return id
}

// countingResponseWriter tracks status, bytes and time-to-first-byte
// for the metrics layer.
type countingResponseWriter struct {
	http.ResponseWriter
	status    int
	written   int64
	wrote     bool
	start     time.Time
	firstByte time.Duration // offset from start of the first header/body write
}

func (w *countingResponseWriter) markFirst() {
	if !w.wrote {
		w.wrote = true
		w.firstByte = time.Since(w.start)
	}
}

func (w *countingResponseWriter) WriteHeader(status int) {
	if !w.wrote {
		w.status = status
	}
	w.markFirst()
	w.ResponseWriter.WriteHeader(status)
}

func (w *countingResponseWriter) Write(p []byte) (int, error) {
	w.markFirst()
	n, err := w.ResponseWriter.Write(p)
	w.written += int64(n)
	return n, err
}

// Flush forwards streaming flushes when the underlying writer supports
// them.
func (w *countingResponseWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// writeError sends the structured JSON error envelope, stamped with
// the request's ID so the failure joins to its server-side trace.
func (s *Server) writeError(w http.ResponseWriter, r *http.Request, status int, code, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	detail := ErrorDetail{Code: code, Message: msg, RequestID: telemetry.RequestIDFromContext(r.Context())}
	_ = enc.Encode(ErrorBody{Error: detail}) //nolint:errcheck // response already committed
}

// mapError classifies a pipeline error onto a status + code.
func (s *Server) mapError(w http.ResponseWriter, r *http.Request, err error) {
	var maxBytes *http.MaxBytesError
	switch {
	case errors.As(err, &maxBytes):
		s.writeError(w, r, http.StatusRequestEntityTooLarge, CodeBodyTooLarge,
			fmt.Sprintf("request body exceeds %d bytes", maxBytes.Limit))
	case errors.Is(err, context.DeadlineExceeded):
		s.writeError(w, r, http.StatusRequestTimeout, CodeTimeout, "request timed out")
	case errors.Is(err, context.Canceled):
		// The client went away; the status is best-effort.
		s.writeError(w, r, 499, CodeCanceled, "request canceled")
	default:
		s.writeError(w, r, http.StatusBadRequest, CodeBadRequest, err.Error())
	}
}

// requireMethod enforces the endpoint's verb.
func (s *Server) requireMethod(w http.ResponseWriter, r *http.Request, method string) bool {
	if r.Method != method {
		w.Header().Set("Allow", method)
		s.writeError(w, r, http.StatusMethodNotAllowed, CodeMethodNotAllowed,
			fmt.Sprintf("%s requires %s", r.URL.Path, method))
		return false
	}
	return true
}

// checkDraining rejects new work once graceful drain has begun (only
// reachable over an already-open keep-alive connection).
func (s *Server) checkDraining(w http.ResponseWriter, r *http.Request) bool {
	if s.draining.Load() {
		s.writeError(w, r, http.StatusServiceUnavailable, CodeDraining, "server is draining")
		return false
	}
	return true
}

// handleCompress reads a test set, compresses it under the query's
// configuration on the parallel pool, and streams back a wire
// container.
func (s *Server) handleCompress(w http.ResponseWriter, r *http.Request) {
	if !s.requireMethod(w, r, http.MethodPost) || !s.checkDraining(w, r) {
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()
	req, ok := s.readCompressRequest(ctx, w, r)
	if !ok {
		return
	}
	if res, err := s.compressToWire(ctx, w.Header(), w, req, s.rec); err != nil && res == nil {
		s.mapError(w, r, err)
	}
	// A write failure after the headers went out is left as is: the
	// client sees a truncated (EOS-less) stream.
}

// compressRequest is one parsed compress submission, sync or async.
type compressRequest struct {
	ts    *lzwtc.TestSet
	cfg   lzwtc.Config
	shard int
	pre   *lzwtc.Preload
	ref   *lzwtc.DictRef // non-nil exactly when pre came from a dictid
}

// readCompressRequest is the front half both compress endpoints
// share: parse the query, read the test-set body and, when a dictid
// is given, resolve the stored dictionary now, so a dangling ID fails
// the request before any work (the compress endpoints never train — a
// missing key is the caller's signal to train first). On failure the
// error response has been written.
func (s *Server) readCompressRequest(ctx context.Context, w http.ResponseWriter, r *http.Request) (compressRequest, bool) {
	cfg, shard, err := ParseCompressQuery(r.URL.Query())
	if err != nil {
		s.writeError(w, r, http.StatusBadRequest, CodeBadRequest, err.Error())
		return compressRequest{}, false
	}
	dictKey, haveDict, err := parseDictID(r.URL.Query())
	if err != nil {
		s.writeError(w, r, http.StatusBadRequest, CodeBadRequest, err.Error())
		return compressRequest{}, false
	}
	ts, err := s.readTestSet(ctx, w, r, cfg)
	if err != nil {
		s.mapError(w, r, err)
		return compressRequest{}, false
	}
	req := compressRequest{ts: ts, cfg: cfg, shard: shard}
	if haveDict {
		pre, ref, ok := s.resolveDictParam(ctx, w, r, dictKey)
		if !ok {
			return compressRequest{}, false
		}
		req.pre, req.ref = pre, &ref
	}
	return req, true
}

// readTestSet reads a test-set request body under the body limit,
// inside a SpanReadBody span: cube planes when the Content-Type is
// MediaPlanes, whose header must carry cfg, and cube text otherwise. The
// bytes read count toward MetricBytesIn.
func (s *Server) readTestSet(ctx context.Context, w http.ResponseWriter, r *http.Request, cfg lzwtc.Config) (*lzwtc.TestSet, error) {
	_, sp := s.rec.StartSpan(ctx, SpanReadBody)
	body := &countingReader{r: http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)}
	planes := hasMediaType(r.Header.Get("Content-Type"), MediaPlanes)
	var ts *lzwtc.TestSet
	var err error
	if planes {
		var hdr wire.Header
		hdr, ts, err = wire.ReadPlanes(body)
		switch {
		case err != nil:
		case hdr.Cfg != cfg:
			err = fmt.Errorf("server: planes header config %+v differs from the query's %+v", hdr.Cfg, cfg)
		case len(ts.Cubes) == 0:
			err = errors.New("server: planes message holds no cubes")
		}
	} else {
		ts, err = lzwtc.ReadTestSet(body)
	}
	s.bytesIn.Add(body.n)
	sp.End(telemetry.F("bytes", body.n), telemetry.F("planes", planes), telemetry.F("ok", err == nil))
	return ts, err
}

// countingReader counts the bytes read through it.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// hasMediaType reports whether a Content-Type or Accept header value
// names the media type mt, ignoring parameters and case.
func hasMediaType(h, mt string) bool {
	for h != "" {
		var part string
		part, h, _ = strings.Cut(h, ",")
		part, _, _ = strings.Cut(part, ";")
		if strings.EqualFold(strings.TrimSpace(part), mt) {
			return true
		}
	}
	return false
}

// compressToWire is the one compress→wire path behind the sync
// endpoint and the job runner. Unsharded is one shard and no
// dictionary is a nil preload, so every request runs
// CompressShardedPreloaded; the container then goes out through
// WriteWireObserved, with a 'D' frame exactly when the request named a
// dictionary. h (nil for a job, whose result headers come from its
// status) receives the response headers before the first container
// byte reaches w. A nil result with an error means nothing was
// written; a result with an error means the write failed part way.
func (s *Server) compressToWire(ctx context.Context, h http.Header, w io.Writer, req compressRequest, rec *telemetry.Recorder) (*lzwtc.Result, error) {
	opts := lzwtc.BatchOptions{Workers: s.cfg.Workers, Policy: lzwtc.FailFast, Recorder: rec}
	res, err := lzwtc.CompressShardedPreloaded(ctx, req.ts, req.cfg, req.pre, req.shard, opts)
	if err != nil {
		return nil, err
	}
	res.Dict = req.ref
	if h != nil {
		h.Set("Content-Type", "application/octet-stream")
		h.Set(HeaderPatterns, strconv.Itoa(res.Patterns))
		h.Set(HeaderWidth, strconv.Itoa(res.Width))
		h.Set(HeaderRatio, strconv.FormatFloat(res.Ratio(), 'g', -1, 64))
		h.Set(HeaderShards, strconv.Itoa(len(res.Shards)))
		if res.Dict != nil {
			h.Set(HeaderDictKey, dictstore.Key(res.Dict.Key).String())
		}
	}
	if err := res.WriteWireObserved(ctx, w, rec); err != nil {
		return res, err
	}
	s.patternsIn.Add(int64(res.Patterns))
	return res, nil
}

// handleDecompress streams a wire container out of the body and returns
// the fully specified test set: as cube planes, under the container's
// header, when Accept names MediaPlanes, and as cube text otherwise.
func (s *Server) handleDecompress(w http.ResponseWriter, r *http.Request) {
	if !s.requireMethod(w, r, http.MethodPost) || !s.checkDraining(w, r) {
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()

	body := &countingReader{r: http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)}
	type result struct {
		hdr wire.Header
		ts  *lzwtc.TestSet
		err error
	}
	done := make(chan result, 1)
	go func() {
		// The decoder reads through br itself, so peeking the header
		// costs no second read of the body.
		br := bufio.NewReader(body)
		hdr, err := wire.PeekHeader(br)
		var ts *lzwtc.TestSet
		if err == nil {
			// The dict-aware path degrades to plain DecompressWire for
			// containers without a 'D' frame, so every container
			// decompresses through one entry point.
			ts, err = lzwtc.DecompressWireDictObserved(ctx, br, s.dict, s.rec)
		}
		done <- result{hdr, ts, err}
	}()
	select {
	case <-ctx.Done():
		s.mapError(w, r, ctx.Err())
		return
	case res := <-done:
		s.bytesIn.Add(body.n)
		if res.err != nil {
			s.mapError(w, r, res.err)
			return
		}
		_, sp := s.rec.StartSpan(ctx, SpanWriteBody)
		planes := hasMediaType(r.Header.Get("Accept"), MediaPlanes)
		err := writeTestSet(w, res.hdr, res.ts, planes)
		sp.End(telemetry.F("planes", planes), telemetry.F("ok", err == nil))
		if err != nil {
			return
		}
		s.patternsOut.Add(int64(len(res.ts.Cubes)))
	}
}

// writeTestSet renders a decompress reply, as a planes message under
// hdr or as cube text. Its size is known exactly, so the body is not
// chunked, and a write failure mid-body leaves it short of the declared
// length: the client sees an error, not a shorter test set.
func writeTestSet(w http.ResponseWriter, hdr wire.Header, ts *lzwtc.TestSet, planes bool) error {
	h := w.Header()
	h.Set(HeaderPatterns, strconv.Itoa(len(ts.Cubes)))
	h.Set(HeaderWidth, strconv.Itoa(ts.Width))
	if planes {
		h.Set("Content-Type", MediaPlanes)
		h.Set("Content-Length", strconv.Itoa(wire.PlanesSize(hdr, len(ts.Cubes))))
		return wire.WritePlanes(w, hdr, ts)
	}
	h.Set("Content-Type", "text/plain; charset=utf-8")
	h.Set("Content-Length", strconv.Itoa((ts.Width+1)*len(ts.Cubes)))
	return ts.WriteCubes(w)
}

// handleStats serves the JSON counter document.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if !s.requireMethod(w, r, http.MethodGet) {
		return
	}
	snap := s.reg.Snapshot()
	resp := StatsResponse{
		UptimeSeconds: time.Since(s.start).Seconds(),
		InFlight:      s.inFlight.Load(),
		Requests:      map[string]int64{},
	}
	resp.Errors = snap.CounterValue(MetricErrors)
	resp.BytesIn = snap.CounterValue(MetricBytesIn)
	resp.BytesOut = snap.CounterValue(MetricBytesOut)
	resp.PatternsCompressed = snap.CounterValue(MetricPatternsIn)
	resp.PatternsDecompressed = snap.CounterValue(MetricPatternsOut)
	resp.DictPoolRecycles = snap.CounterValue(core.MetricDictPoolRecycles)
	resp.DictPoolMisses = snap.CounterValue(core.MetricDictPoolMisses)
	resp.Requests["total"] = snap.CounterValue(MetricRequests)
	for _, c := range snap.Counters {
		if name, ok := endpointOf(c.Name); ok {
			resp.Requests[name] = c.Value
		}
	}
	resp.Jobs = JobsStats{
		Submitted: snap.CounterValue(jobs.MetricJobsSubmitted),
		Completed: snap.CounterValue(jobs.MetricJobsCompleted),
		Failed:    snap.CounterValue(jobs.MetricJobsFailed),
		Canceled:  snap.CounterValue(jobs.MetricJobsCanceled),
		Expired:   snap.CounterValue(jobs.MetricJobsExpired),
		Rejected:  snap.CounterValue(jobs.MetricJobsRejected),
	}
	resp.Jobs.Queued, resp.Jobs.Running = s.jobs.Counts()
	ds := s.dict.Stats()
	resp.DictStore = DictStoreStats{
		Entries:     ds.Entries,
		MemBytes:    ds.MemBytes,
		DiskEntries: ds.DiskEntries,
		DiskBytes:   ds.DiskBytes,
		Hits:        ds.Hits,
		Misses:      ds.Misses,
		Evictions:   ds.Evictions,
		Trains:      ds.Trains,
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(resp) //nolint:errcheck // response already committed
}

// endpointOf extracts the endpoint from a per-endpoint request counter
// name, e.g. lzwtcd_compress_requests_total -> compress.
func endpointOf(metric string) (string, bool) {
	const prefix, suffix = "lzwtcd_", "_requests_total"
	if len(metric) > len(prefix)+len(suffix) &&
		metric[:len(prefix)] == prefix && metric[len(metric)-len(suffix):] == suffix {
		return metric[len(prefix) : len(metric)-len(suffix)], true
	}
	return "", false
}

// handleHealth serves liveness.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if !s.requireMethod(w, r, http.MethodGet) {
		return
	}
	w.Header().Set("Content-Type", "application/json")
	status := "ok"
	if s.draining.Load() {
		status = "draining"
	}
	fmt.Fprintf(w, "{\"status\":%q}\n", status)
}

// handleTraceRecent serves the ring buffer's most recent traces as
// JSON, newest first. ?n bounds the count (default and cap keep the
// response small; the buffer itself is already capacity-bounded).
func (s *Server) handleTraceRecent(w http.ResponseWriter, r *http.Request) {
	if !s.requireMethod(w, r, http.MethodGet) {
		return
	}
	n := 20
	if v := r.URL.Query().Get("n"); v != "" {
		p, err := strconv.Atoi(v)
		if err != nil || p <= 0 || p > 1000 {
			s.writeError(w, r, http.StatusBadRequest, CodeBadRequest,
				fmt.Sprintf("parameter n=%q must be an integer in [1,1000]", v))
			return
		}
		n = p
	}
	resp := TraceRecentResponse{Traces: s.traces.Recent(n)}
	if resp.Traces == nil {
		resp.Traces = []telemetry.TraceRecord{}
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(resp) //nolint:errcheck // response already committed
}

// handleMetrics serves the Prometheus text exposition.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if !s.requireMethod(w, r, http.MethodGet) {
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	_ = s.reg.Snapshot().WritePrometheus(w) //nolint:errcheck // response already committed
}
