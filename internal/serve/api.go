package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"mao/internal/check"
	"mao/internal/coalesce"
	"mao/internal/pass"
	"mao/internal/scope"
	"mao/internal/trace"
	"mao/internal/x86/decode"
)

// OptimizeRequest is the body of POST /v1/optimize.
type OptimizeRequest struct {
	// Name is the unit name used in diagnostics ("request.s" when
	// empty). It appears in Diag.File and in error messages.
	Name string `json:"name,omitempty"`
	// Source is the AT&T-syntax assembly to optimize. Required.
	Source string `json:"source"`
	// Spec is the ':'-separated pass pipeline, e.g. "REDTEST:REDMOV"
	// (mao --mao= syntax). Empty runs no passes: the unit is parsed
	// and re-emitted canonically. The ASM pass and the dump_before /
	// dump_after standard options are rejected — they write files on
	// the server; the service returns assembly in the response.
	Spec string `json:"spec,omitempty"`
	// Options tune this request.
	Options OptimizeOptions `json:"options,omitempty"`
}

// OptimizeOptions are the per-request knobs.
type OptimizeOptions struct {
	// Check runs the static verification catalog over the optimized
	// unit and returns the diagnostics.
	Check bool `json:"check,omitempty"`
	// DeadlineMS overrides the server's default request deadline,
	// capped at the server's maximum. The deadline covers queueing
	// and execution.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// NoCache bypasses the result cache for this request (the fresh
	// result is still stored).
	NoCache bool `json:"no_cache,omitempty"`
	// Explain returns per-instruction lineage (origin and last-mutator
	// pass of every node) alongside the optimized assembly. Also
	// settable as the explain=1 query parameter.
	Explain bool `json:"explain,omitempty"`
	// Verify translation-validates every pass invocation of the
	// pipeline (see mao/internal/verify): the response carries one
	// verdict per invocation, and any refutation appears in Diags with
	// rule verify-equiv. Also settable as the verify=1 query parameter.
	Verify bool `json:"verify,omitempty"`
	// Trace returns the request's distributed span tree: "spans"
	// (?trace=1) attaches the stitched cross-process spans, "chrome"
	// (?trace=chrome) additionally renders Chrome trace events. Trace
	// requests bypass the result-cache lookup — spans describe one
	// execution, not the content-addressed result — but the trace-free
	// result is still cached. Deliberately not part of the cache key.
	Trace string `json:"trace,omitempty"`
}

// VerifyVerdict is one pass invocation's translation-validation
// outcome, present when options.verify was set.
type VerifyVerdict struct {
	Pass  string `json:"pass"`
	Index int    `json:"index"`
	// Statuses counts the per-function outcomes: proved, concrete,
	// refuted, inconclusive.
	Statuses map[string]int `json:"statuses"`
	// Refuted names the functions proven not observationally
	// equivalent (empty = the invocation validated clean).
	Refuted []string `json:"refuted,omitempty"`
	// DurMS is the verification wall time for this invocation.
	DurMS float64 `json:"dur_ms"`
}

func (r *OptimizeRequest) unitName() string {
	if r.Name == "" {
		return "request.s"
	}
	return r.Name
}

// OptimizeResponse is the body of a successful optimization.
type OptimizeResponse struct {
	// Assembly is the optimized unit, byte-identical to what cmd/mao
	// emits for the same source and spec.
	Assembly string `json:"assembly"`
	// Stats are the per-pass transformation counters (pass → key →
	// count), including the RELAXCACHE pseudo-pass.
	Stats map[string]map[string]int `json:"stats,omitempty"`
	// Diags carries the static-checker diagnostics when
	// options.check was set (empty slice = checked, clean).
	Diags []check.Diag `json:"diags,omitempty"`
	// Cached reports that the response was served from the result
	// cache without running a pipeline.
	Cached bool `json:"cached"`
	// BatchSize is how many same-spec requests shared this request's
	// batch (1 = alone; 0 on cached responses).
	BatchSize int `json:"batch_size,omitempty"`
	// Lineage is the per-instruction provenance of the optimized unit,
	// present when options.explain (or ?explain=1) was set.
	Lineage []trace.InstLineage `json:"lineage,omitempty"`
	// Verify carries one translation-validation verdict per pass
	// invocation, in pipeline order, when options.verify (or
	// ?verify=1) was set. Refutations additionally surface in Diags.
	Verify []VerifyVerdict `json:"verify,omitempty"`
	// Trace is the stitched distributed span tree of this execution
	// (queue → batch → pipeline → invocation → function → verify,
	// parented under the inbound X-Mao-Trace context), present when
	// options.trace (or ?trace=1) was set. Span IDs are derived
	// deterministically, so the tree is byte-identical at any worker
	// count modulo recorded wall times.
	Trace []scope.Span `json:"trace,omitempty"`
	// TraceChrome is the same tree as Chrome trace events
	// (?trace=chrome), loadable in chrome://tracing and Perfetto.
	TraceChrome []scope.ChromeEvent `json:"trace_chrome,omitempty"`
}

// errorResponse is the body of every non-2xx answer.
type errorResponse struct {
	Error string `json:"error"`
}

// Handler returns the service's HTTP handler:
//
//	POST /v1/optimize          optimize one unit
//	POST /v1/optimize/archive  optimize a multi-unit archive, streaming
//	                           one NDJSON record per unit as it finishes
//	GET  /metrics              Prometheus text-format metrics
//	GET  /healthz              liveness (200 while the process runs)
//	GET  /readyz               readiness (503 once draining)
//
// Every request is access-logged (Config.AccessLog) and measured into
// the request metrics.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/optimize", s.handleOptimize)
	mux.HandleFunc("POST /v1/optimize/archive", s.handleArchive)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if s.Draining() {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, "draining")
			return
		}
		fmt.Fprintln(w, "ready")
	})
	return s.instrument(mux)
}

// cacheHeader reports result-cache disposition on every /v1/optimize
// answer; load generators read it to measure fleet-wide hit rates.
const cacheHeader = "X-Mao-Cache"

// handleOptimize is POST /v1/optimize: check the client's quota,
// validate, consult the result cache, admit into the queue, and wait
// for the worker's answer (or the request deadline).
func (s *Server) handleOptimize(w http.ResponseWriter, r *http.Request) {
	// The per-client quota gates everything, including cache hits: it
	// is a request-rate bound, and a 429 here consumes no global queue
	// slot — tenant isolation sits UNDER the shared admission control.
	fi := flightFrom(r.Context())
	if ok, retryAfter := s.quota.take(scope.ClientID(r)); !ok {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
		writeFlightError(w, fi, http.StatusTooManyRequests, errors.New("client quota exhausted"))
		return
	}
	req, status, err := s.decodeRequest(w, r)
	if err != nil {
		writeFlightError(w, fi, status, err)
		return
	}

	key := resultKey(req)
	// Trace requests bypass the cache lookup: spans describe one
	// execution, and a cached answer has none to offer. The fresh
	// (trace-free) result is still stored, so tracing never degrades
	// the cache for other callers.
	if !req.Options.NoCache && req.Options.Trace == "" {
		if resp, ok := s.results.get(key); ok {
			cached := *resp
			cached.Cached = true
			cached.BatchSize = 0
			w.Header().Set(cacheHeader, "hit")
			if fi != nil {
				fi.cache = "hit"
			}
			writeJSON(w, http.StatusOK, &cached)
			return
		}
	}
	f, leader := s.joinFlight(req, key)
	verdict := "miss"
	if !leader {
		verdict = "coalesced"
		s.met.coalescedTotal.Add(1)
	}
	w.Header().Set(cacheHeader, verdict)
	if fi != nil {
		fi.cache = verdict
	}

	ctx, cancel := context.WithTimeout(r.Context(), s.deadlineFor(req))
	defer cancel()
	if leader {
		// The leader publishes on every path — a refusal becomes the
		// shared result, so no waiter ever hangs on a run that never
		// started. An admitted job publishes from its worker: Close
		// drains every admitted job, so every waiter gets a result or a
		// clean error even when the server shuts down mid-flight.
		if ok, retryAfter := s.admit(s.newJob(r.Context(), req, key, f)); !ok {
			if retryAfter > 0 {
				f.Publish(jobResult{status: http.StatusTooManyRequests, err: errors.New("optimization queue is full")})
			} else {
				f.Publish(jobResult{status: http.StatusServiceUnavailable, err: errors.New("server is draining")})
			}
		}
	}

	select {
	case <-f.Done():
		res := f.Result()
		if fi != nil {
			fi.queueNS = res.queueNS
			fi.spans = res.spans
		}
		if res.err != nil {
			if res.status == http.StatusTooManyRequests {
				w.Header().Set("Retry-After", "1")
			}
			writeFlightError(w, fi, res.status, res.err)
			return
		}
		resp := res.resp
		if mode := req.Options.Trace; mode != "" {
			resp = traceResponse(resp, res.spans, scopeContextFrom(r.Context()), key, mode)
		}
		writeJSON(w, http.StatusOK, resp)
	case <-ctx.Done():
		// Deadline expired (or client went away) while the job was
		// still queued or running. Leaving cancels the run once no
		// waiter is left; the worker observes that and discards it.
		f.Leave()
		writeFlightError(w, fi, statusForCtx(ctx.Err()), fmt.Errorf("request abandoned: %w", ctx.Err()))
	}
}

// joinFlight returns the shared run a request waits on, and whether
// the caller leads it. In-flight miss coalescing: identical misses
// share one pipeline run, and followers consume no queue slot. A
// no_cache request (it asked for a fresh run), a traced one (it needs
// its own span tree) and every request under DisableCoalesce run solo.
func (s *Server) joinFlight(req *OptimizeRequest, key string) (*coalesce.Flight[jobResult], bool) {
	if s.cfg.DisableCoalesce || req.Options.NoCache || req.Options.Trace != "" {
		return s.flights.Solo(), true
	}
	return s.flights.Join(key)
}

// newJob builds the job a flight's leader admits. The run is detached
// from the leader's context — followers may outlive its request — but
// bounded by the request's deadline; the last waiter to leave cancels
// it. WithoutCancel keeps the request-ID and trace values for the
// spans.
func (s *Server) newJob(ctx context.Context, req *OptimizeRequest, key string, f *coalesce.Flight[jobResult]) *job {
	runCtx, cancel := context.WithTimeout(context.WithoutCancel(ctx), s.deadlineFor(req))
	f.SetCancel(cancel)
	col := trace.NewCollector()
	col.TraceID = requestIDFrom(runCtx)
	return &job{req: req, key: key, ctx: runCtx, flight: f, col: col, admitted: col.Now()}
}

// writeFlightError reports err on the wire and into the request's
// flight carrier, so errored requests land in the recorder's error
// reservoir with their reason.
func writeFlightError(w http.ResponseWriter, fi *flightInfo, status int, err error) {
	if fi != nil {
		fi.errMsg = err.Error()
	}
	writeError(w, status, err)
}

// decodeRequest reads, parses and validates the request body. The
// returned status classifies the failure (413 oversize, 422 a binary
// body that does not decode, 400 anything else malformed). A body of
// Content-Type application/octet-stream is raw x86-64 machine code:
// it is decoded and lifted to assembly here, so the rest of the
// service — including the result-cache key — operates on the decoded
// form.
func (s *Server) decodeRequest(w http.ResponseWriter, r *http.Request) (*OptimizeRequest, int, error) {
	if ct := r.Header.Get("Content-Type"); strings.HasPrefix(ct, "application/octet-stream") {
		return s.decodeBinaryRequest(w, r)
	}
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxSourceBytes)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	var req OptimizeRequest
	if err := dec.Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return nil, http.StatusRequestEntityTooLarge,
				fmt.Errorf("request body exceeds %d bytes", tooBig.Limit)
		}
		return nil, http.StatusBadRequest, fmt.Errorf("invalid request body: %w", err)
	}
	if req.Source == "" {
		return nil, http.StatusBadRequest, errors.New("source is required")
	}
	if status, err := s.validateRequest(r, &req); err != nil {
		return nil, status, err
	}
	return &req, 0, nil
}

// decodeBinaryRequest handles the octet-stream form of /v1/optimize:
// the body is a raw .text blob, the request knobs ride in query
// parameters (name, spec, base, check, explain, verify, no_cache,
// deadline_ms). The blob is decoded and lifted immediately; the
// resulting assembly becomes the request Source, so binary requests
// share the JSON path's pipeline, batching and result cache — two
// blobs that decode to the same unit under the same spec share a
// cache entry.
func (s *Server) decodeBinaryRequest(w http.ResponseWriter, r *http.Request) (*OptimizeRequest, int, error) {
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxSourceBytes)
	raw, err := io.ReadAll(body)
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return nil, http.StatusRequestEntityTooLarge,
				fmt.Errorf("request body exceeds %d bytes", tooBig.Limit)
		}
		return nil, http.StatusBadRequest, fmt.Errorf("reading request body: %w", err)
	}
	if len(raw) == 0 {
		return nil, http.StatusBadRequest, errors.New("machine-code body is required")
	}
	q := r.URL.Query()
	req := OptimizeRequest{Name: q.Get("name"), Spec: q.Get("spec")}
	if req.Name == "" {
		req.Name = "request.bin"
	}
	var base int64
	if v := q.Get("base"); v != "" {
		if base, err = strconv.ParseInt(v, 0, 64); err != nil {
			return nil, http.StatusBadRequest, fmt.Errorf("invalid base %q", v)
		}
	}
	u, err := decode.ToUnit(raw, decode.UnitOptions{FileName: req.Name, Base: base})
	if err != nil {
		return nil, http.StatusUnprocessableEntity, err
	}
	req.Source = u.String()
	for _, p := range []struct {
		name string
		dst  *bool
	}{{"check", &req.Options.Check}, {"no_cache", &req.Options.NoCache}} {
		if v := q.Get(p.name); v == "1" || v == "true" {
			*p.dst = true
		}
	}
	if v := q.Get("deadline_ms"); v != "" {
		ms, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return nil, http.StatusBadRequest, fmt.Errorf("invalid deadline_ms %q", v)
		}
		req.Options.DeadlineMS = ms
	}
	if status, err := s.validateRequest(r, &req); err != nil {
		return nil, status, err
	}
	return &req, 0, nil
}

// validateRequest applies the path-independent request checks: the
// pipeline spec, the deadline, and the query-parameter spellings of
// the explain/verify options.
func (s *Server) validateRequest(r *http.Request, req *OptimizeRequest) (int, error) {
	invs, err := pass.ParsePipeline(req.Spec)
	if err != nil {
		return http.StatusBadRequest, err
	}
	for _, inv := range invs {
		if inv.Pass.Name() == "ASM" {
			return http.StatusBadRequest,
				errors.New("the ASM pass is CLI-only: the service returns assembly in the response body")
		}
		for _, opt := range []string{"dump_before", "dump_after"} {
			if inv.Opts.String(opt, "\x00") != "\x00" {
				return http.StatusBadRequest,
					fmt.Errorf("the %s option is CLI-only (it writes files on the server)", opt)
			}
		}
	}
	if req.Options.DeadlineMS < 0 {
		return http.StatusBadRequest, errors.New("deadline_ms must be >= 0")
	}
	// ?explain=1, ?verify=1 and ?trace=1|chrome are the curl-friendly
	// spellings of the corresponding body options.
	if v := r.URL.Query().Get("explain"); v == "1" || v == "true" {
		req.Options.Explain = true
	}
	if v := r.URL.Query().Get("verify"); v == "1" || v == "true" {
		req.Options.Verify = true
	}
	if v := r.URL.Query().Get("trace"); v != "" {
		mode, ok := parseTraceMode(v)
		if !ok {
			return http.StatusBadRequest, fmt.Errorf("invalid trace mode %q (want 1 or chrome)", v)
		}
		req.Options.Trace = mode
	}
	switch req.Options.Trace {
	case "", scope.TraceSpans, scope.TraceChrome:
	default:
		return http.StatusBadRequest,
			fmt.Errorf("invalid options.trace %q (want %q or %q)", req.Options.Trace, scope.TraceSpans, scope.TraceChrome)
	}
	return 0, nil
}

// deadlineFor resolves the effective deadline of a request.
func (s *Server) deadlineFor(req *OptimizeRequest) time.Duration {
	d := s.cfg.DefaultDeadline
	if req.Options.DeadlineMS > 0 {
		d = time.Duration(req.Options.DeadlineMS) * time.Millisecond
	}
	if d > s.cfg.MaxDeadline {
		d = s.cfg.MaxDeadline
	}
	return d
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	enc.Encode(v) // the status is already committed; encode errors only surface as a truncated body
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorResponse{Error: err.Error()})
}
