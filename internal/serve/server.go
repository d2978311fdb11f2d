// Package serve is PatchitPy's network front end: the editor session
// protocol (internal/core's Request/Response verbs) exposed over HTTP so
// a fleet of editor clients can share one engine instead of each forking
// a stdio subprocess. The paper's deployment story is an
// editor-integrated detect→patch service; at fleet scale the serving
// path needs admission control, not just a loop:
//
//   - every verb is dispatched through a bounded workpool.Queue — a full
//     queue sheds the request with 429 + Retry-After instead of growing
//     memory, so overload degrades service rather than the process;
//   - identical cacheable requests coalesce twice: the response cache's
//     singleflight (internal/resultcache) collapses concurrent identical
//     misses to one computation and one JSON encode, and a repeat hit is
//     answered inline without consuming a queue slot at all;
//   - every request runs under a deadline, honored both while queued
//     (expired jobs are skipped, not executed) and while waiting;
//   - Shutdown drains gracefully: stop accepting, finish in-flight
//     requests, run down the queue, then return.
//
// Both front ends — this one and the stdin/stdout line loop — call the
// same core.Handle, so a verb's response body is byte-identical across
// transports (one JSON encoding, trailing newline included); the
// equivalence tests pin that down.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"github.com/dessertlab/patchitpy/internal/core"
	"github.com/dessertlab/patchitpy/internal/obs"
	"github.com/dessertlab/patchitpy/internal/resultcache"
	"github.com/dessertlab/patchitpy/internal/workpool"
)

// Config sizes a Server. The zero value of every knob means "default";
// Engine is the only required field.
type Config struct {
	// Engine handles the verbs. Required.
	Engine *core.PatchitPy
	// Obs, when non-nil and enabled, receives the transport metrics
	// (queue depth, shed/timeout counters, per-verb latency) on top of
	// the engine's own serve.<cmd> instrumentation, and turns on request
	// tracing: each request runs under an "http.<verb>" root span
	// (adopting an incoming W3C traceparent trace ID when present),
	// echoes its trace ID in the X-Patchitpy-Trace response header, and
	// links latency histogram observations to trace IDs via exemplars.
	Obs *obs.Registry
	// Logger, when non-nil, receives one structured record per request
	// (verb, status, duration, trace ID) plus queue lifecycle events.
	// nil logs nothing; use obs.NewLogger to build one with sampling.
	Logger *slog.Logger
	// Workers is the number of goroutines executing verb work
	// (<= 0: GOMAXPROCS).
	Workers int
	// QueueDepth bounds the jobs waiting for a worker (<= 0: 4 per
	// worker). A full queue sheds with 429.
	QueueDepth int
	// Timeout is the per-request deadline covering queue wait plus
	// execution (0: 10s; negative: no deadline).
	Timeout time.Duration
	// MaxBodyBytes caps one request body (0: core.MaxRequestBytes, the
	// stdin front end's line limit, so both transports accept the same
	// requests).
	MaxBodyBytes int64
	// RetryAfter is the hint sent with a 429 (0: 1s).
	RetryAfter time.Duration
}

// DefaultTimeout is the per-request deadline when Config.Timeout is 0.
const DefaultTimeout = 10 * time.Second

// DefaultCacheBytes is the budget of the encoded-response cache that
// coalesces identical deterministic requests.
const DefaultCacheBytes = 32 << 20

// Server is the HTTP front end. Construct with New, bind with Listen,
// run with Serve (or mount Handler under another server), stop with
// Shutdown.
type Server struct {
	engine     *core.PatchitPy
	queue      *workpool.Queue
	respCache  *resultcache.Cache[[]byte]
	timeout    time.Duration
	maxBody    int64
	retryAfter time.Duration

	reg       *obs.Registry
	logger    *slog.Logger
	httpReqs  *obs.Vec
	httpCodes *obs.Vec
	httpDur   *obs.HistogramVec
	httpWait  *obs.Histogram

	httpSrv *http.Server
	ln      net.Listener

	// testHook, when set (tests only), runs inside the worker before the
	// verb executes — the seam backpressure tests use to hold workers
	// busy deterministically.
	testHook func(verb string)
}

// New builds a Server from cfg. It does not bind a listener.
func New(cfg Config) (*Server, error) {
	if cfg.Engine == nil {
		return nil, errors.New("serve: Config.Engine is required")
	}
	timeout := cfg.Timeout
	switch {
	case timeout == 0:
		timeout = DefaultTimeout
	case timeout < 0:
		timeout = 0
	}
	maxBody := cfg.MaxBodyBytes
	if maxBody <= 0 {
		maxBody = core.MaxRequestBytes
	}
	retryAfter := cfg.RetryAfter
	if retryAfter <= 0 {
		retryAfter = time.Second
	}
	s := &Server{
		engine: cfg.Engine,
		queue:  workpool.NewQueue(cfg.Workers, cfg.QueueDepth),
		respCache: resultcache.New(DefaultCacheBytes, func(key string, v []byte) int64 {
			return int64(len(v))
		}),
		timeout:    timeout,
		maxBody:    maxBody,
		retryAfter: retryAfter,
		reg:        cfg.Obs,
		logger:     cfg.Logger,
	}
	if cfg.Logger != nil {
		s.queue.SetLogger(cfg.Logger)
	}
	if reg := cfg.Obs; reg != nil {
		s.httpReqs = reg.CounterVec(obs.MetricHTTPRequests, "verb")
		s.httpCodes = reg.CounterVec(obs.MetricHTTPResponses, "code")
		s.httpDur = reg.HistogramVec(obs.MetricHTTPDuration, "verb", nil)
		s.httpWait = reg.Histogram(obs.MetricHTTPQueueWait, nil)
		reg.GaugeFunc(obs.MetricHTTPQueueDepth, func() float64 { return float64(s.queue.Depth()) })
		reg.GaugeFunc(obs.MetricHTTPQueueCap, func() float64 { return float64(s.queue.Capacity()) })
		resultcache.RegisterObs(reg, "http", func() *resultcache.Cache[[]byte] { return s.respCache })
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/", s.serveVerb)
	s.httpSrv = &http.Server{
		Handler:           mux,
		ReadHeaderTimeout: 5 * time.Second,
	}
	return s, nil
}

// Handler returns the HTTP handler (the /v1/ verb router), for mounting
// under an external server or an httptest harness.
func (s *Server) Handler() http.Handler { return s.httpSrv.Handler }

// Listen binds addr (":0" picks a free port).
func (s *Server) Listen(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.ln = ln
	return nil
}

// Addr returns the bound listen address (resolved port for ":0");
// empty before Listen.
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Serve accepts connections on the Listen-bound address until Shutdown
// (which makes it return nil) or a listener error.
func (s *Server) Serve() error {
	if s.ln == nil {
		return errors.New("serve: Serve before Listen")
	}
	err := s.httpSrv.Serve(s.ln)
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// Shutdown drains the server gracefully: the listener stops accepting,
// in-flight requests run to completion (bounded by ctx), and the work
// queue's remaining jobs finish before the workers exit. After Shutdown
// returns, no request is executing and Serve has returned.
func (s *Server) Shutdown(ctx context.Context) error {
	err := s.httpSrv.Shutdown(ctx)
	s.queue.Close()
	return err
}

// getVerbs are the verbs that take no request body and so are reachable
// with a plain GET (curl-friendly health and introspection endpoints).
// Every verb, including these, also accepts POST with a JSON body.
var getVerbs = map[string]bool{
	"ping":    true,
	"stats":   true,
	"metrics": true,
	"rules":   true,
	"vet":     true,
}

// cacheableVerbs are the deterministic verbs whose encoded responses may
// be served from the response cache: same catalog + same request bytes →
// same response bytes. Time-varying verbs (ping, stats, metrics) and
// unknown verbs always execute.
var cacheableVerbs = map[string]bool{
	"detect":  true,
	"suggest": true,
	"patch":   true,
	"rules":   true,
	"vet":     true,
}

// errorBody encodes a protocol-shaped error response (the same
// core.Response JSON the stdin loop writes for its failures).
func errorBody(msg string) []byte {
	b, _ := json.Marshal(core.Response{OK: false, Error: msg})
	return append(b, '\n')
}

// writeJSON sends body with the protocol content type and counts the
// status code.
func (s *Server) writeJSON(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	w.Write(body)
	if s.httpCodes != nil && s.reg.Enabled() {
		s.httpCodes.Add(strconv.Itoa(status), 1)
	}
}

// decodeRequest reads and parses one request body into req. A nil or
// empty body is a valid empty request (GET endpoints). The error text is
// caller-facing.
func decodeRequest(body []byte, req *core.Request) error {
	if len(body) == 0 {
		return nil
	}
	if err := json.Unmarshal(body, req); err != nil {
		return fmt.Errorf("bad request: %s", err.Error())
	}
	return nil
}

// serveVerb is the /v1/{verb} router: decode, admission-control,
// dispatch through the queue, respond. /v1/rpc is the transport-generic
// endpoint taking the full protocol Request (cmd included), exactly one
// stdin line's payload.
func (s *Server) serveVerb(w http.ResponseWriter, r *http.Request) {
	verb := strings.TrimPrefix(r.URL.Path, "/v1/")
	if verb == "" || strings.Contains(verb, "/") {
		s.writeJSON(w, http.StatusNotFound, errorBody("unknown endpoint "+r.URL.Path))
		return
	}
	switch r.Method {
	case http.MethodPost:
	case http.MethodGet:
		if !getVerbs[verb] {
			w.Header().Set("Allow", http.MethodPost)
			s.writeJSON(w, http.StatusMethodNotAllowed, errorBody(verb+" requires POST"))
			return
		}
	default:
		w.Header().Set("Allow", "GET, POST")
		s.writeJSON(w, http.StatusMethodNotAllowed, errorBody("method "+r.Method+" not allowed"))
		return
	}

	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.maxBody))
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			s.writeJSON(w, http.StatusRequestEntityTooLarge,
				errorBody(fmt.Sprintf("request body exceeds %d bytes", tooLarge.Limit)))
			return
		}
		s.writeJSON(w, http.StatusBadRequest, errorBody("read request: "+err.Error()))
		return
	}
	var req core.Request
	if err := decodeRequest(body, &req); err != nil {
		s.writeJSON(w, http.StatusBadRequest, errorBody(err.Error()))
		return
	}
	if verb == "rpc" {
		verb = req.Cmd
		if verb == "" {
			s.writeJSON(w, http.StatusBadRequest, errorBody(`rpc request is missing "cmd"`))
			return
		}
	} else {
		if req.Cmd != "" && req.Cmd != verb {
			s.writeJSON(w, http.StatusBadRequest,
				errorBody(fmt.Sprintf("request cmd %q does not match endpoint /v1/%s", req.Cmd, verb)))
			return
		}
		req.Cmd = verb
	}

	ctx := r.Context()
	start := time.Now()
	obsOn := s.reg.Enabled()
	var span *obs.Span
	if obsOn {
		s.httpReqs.Add(verb, 1)
		s.reg.Gauge(obs.MetricHTTPInFlight).Inc()
		defer s.reg.Gauge(obs.MetricHTTPInFlight).Dec()
		// Adopt the caller's W3C trace ID when the request carries a
		// valid traceparent, so one distributed trace spans the editor
		// client and this server; otherwise the root span mints one.
		if tid, ok := obs.ParseTraceparent(r.Header.Get("traceparent")); ok {
			ctx = obs.WithTrace(ctx, tid)
		}
		ctx, span = obs.Start(obs.With(ctx, s.reg), "http."+verb)
		span.SetAttr("verb", verb)
		// Echo the trace ID before any write, so even sheds and
		// timeouts hand the client a handle into /debug/traces.
		if tid := span.TraceID(); !tid.IsZero() {
			w.Header().Set("X-Patchitpy-Trace", tid.String())
		}
	}
	status := 0
	cache := ""
	defer func() {
		if obsOn {
			if cache != "" {
				span.SetAttr("cache", cache)
			}
			span.SetAttr("status", status)
			span.End()
			s.httpDur.With(verb).ObserveExemplar(time.Since(start), span.TraceID())
		}
		if s.logger != nil {
			s.logRequest(ctx, verb, status, cache, time.Since(start))
		}
	}()

	// A cache hit is answered inline: no queue slot, no worker, no
	// engine call — the fully encoded response bytes go straight out.
	var key string
	if cacheableVerbs[verb] {
		key = s.cacheKey(verb, body)
		if cached, ok := s.respCache.Get(key); ok {
			cache = "hit"
			status = http.StatusOK
			s.writeJSON(w, status, cached)
			return
		}
		cache = "miss"
	}

	if s.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.timeout)
		defer cancel()
	}

	done := make(chan struct{})
	var respBody []byte
	var jobStatus int
	submitted := time.Now()
	job := func() {
		defer close(done)
		if obsOn {
			// Time spent waiting for a worker, as both a span (the
			// per-request breakdown) and a histogram (the fleet-wide
			// distribution, exemplar-linked back to this trace).
			now := time.Now()
			span.RecordChild("queue-wait", submitted, now)
			s.httpWait.ObserveExemplar(now.Sub(submitted), span.TraceID())
		}
		// The deadline may have expired (or the client hung up) while
		// the job sat in the queue; skip the work, the handler has
		// already answered.
		if ctx.Err() != nil {
			return
		}
		if s.testHook != nil {
			s.testHook(verb)
		}
		jobStatus, respBody = s.execute(ctx, verb, key, &req)
	}
	if !s.queue.TrySubmit(job) {
		if obsOn {
			s.reg.Counter(obs.MetricHTTPShed).Inc()
			span.SetError("shed: queue full")
		}
		w.Header().Set("Retry-After", strconv.Itoa(int((s.retryAfter+time.Second-1)/time.Second)))
		status = http.StatusTooManyRequests
		s.writeJSON(w, status, errorBody("server overloaded, request shed"))
		return
	}
	select {
	case <-done:
		if jobStatus == 0 { // job saw the deadline expired and skipped
			if obsOn {
				s.reg.Counter(obs.MetricHTTPTimeouts).Inc()
				span.SetError("deadline exceeded in queue")
			}
			status = http.StatusServiceUnavailable
			s.writeJSON(w, status, errorBody("request deadline exceeded"))
			return
		}
		status = jobStatus
		s.writeJSON(w, status, respBody)
	case <-ctx.Done():
		if obsOn {
			s.reg.Counter(obs.MetricHTTPTimeouts).Inc()
			span.SetError("deadline exceeded")
		}
		status = http.StatusServiceUnavailable
		s.writeJSON(w, status, errorBody("request deadline exceeded"))
	}
}

// logRequest emits the per-request structured record. The trace ID rides
// in via ctx (the logger's trace handler stamps it), so an HTTP record
// and the engine's own records for the same request share one "trace"
// attribute value.
func (s *Server) logRequest(ctx context.Context, verb string, status int, cache string, d time.Duration) {
	attrs := []any{
		"transport", "http",
		"verb", verb,
		"status", status,
		"durationMs", float64(d) / float64(time.Millisecond),
	}
	if cache != "" {
		attrs = append(attrs, "cache", cache)
	}
	if status >= 400 {
		s.logger.WarnContext(ctx, "request", attrs...)
		return
	}
	s.logger.InfoContext(ctx, "request", attrs...)
}

// cacheKey derives the response-cache key of a request: catalog
// fingerprint (a catalog swap invalidates everything), verb, and the raw
// request body, so every request field that can change the response is
// part of the key.
func (s *Server) cacheKey(verb string, body []byte) string {
	return resultcache.Key(s.engine.Catalog().Fingerprint(), "http", verb, string(body))
}

// errNotOK marks a protocol-level failure response (ok:false): the
// encoded body still goes to every caller of the singleflight, but it is
// never stored in the response cache and maps to HTTP 400.
var errNotOK = errors.New("serve: protocol error response")

// execute runs one verb through the shared core.Handle and encodes the
// response. Cacheable successful responses are stored — and concurrent
// identical misses coalesced to one engine call and one encode — in the
// response cache; failures are shared with the flight but not cached.
func (s *Server) execute(ctx context.Context, verb, key string, req *core.Request) (int, []byte) {
	compute := func() ([]byte, error) {
		resp := s.engine.Handle(ctx, *req)
		// The X-Patchitpy-Trace header carries each request's own trace
		// ID; a body may be cached and sent to later requests, so it
		// carries none.
		resp.Trace = ""
		encStart := time.Now()
		b, err := json.Marshal(resp)
		// Under coalescing, ctx (and so the span) belongs to the request
		// that actually computed; followers share the bytes, not the
		// trace.
		obs.SpanFrom(ctx).RecordChild("encode", encStart, time.Now())
		if err != nil {
			return errorBody("encode response: " + err.Error()), errNotOK
		}
		b = append(b, '\n')
		if !resp.OK {
			return b, errNotOK
		}
		return b, nil
	}
	var body []byte
	var err error
	if key != "" {
		body, _, err = s.respCache.GetOrComputeErr(key, compute)
	} else {
		body, err = compute()
	}
	if err != nil {
		return http.StatusBadRequest, body
	}
	return http.StatusOK, body
}
