package serve

import (
	"context"
	"net/http"

	"mao/internal/scope"
	"mao/internal/trace"
)

// MAOSCOPE wiring for the daemon: the distributed-trace context rides
// the request context from the instrument middleware into the worker
// (where the span tree parents under it), and the flight carrier lets
// handlers report per-request facts (cache verdict, queue wait, span
// stream) back to the middleware, which writes the flight record after
// the response is committed.

// scopeKey carries the request's scope.Context.
type scopeKey struct{}

// withScopeContext resolves the request's distributed-trace context:
// a well-formed inbound X-Mao-Trace is adopted (the daemon's spans
// parent under the sender's span), anything else originates a fresh
// trace. The effective context is echoed on the response so callers
// can correlate even when they did not originate.
func withScopeContext(r *http.Request) (*http.Request, scope.Context) {
	tc, ok := scope.ParseHeader(r.Header.Get(scope.TraceHeader))
	if !ok {
		tc = scope.NewContext()
	}
	return r.WithContext(context.WithValue(r.Context(), scopeKey{}, tc)), tc
}

// scopeContextFrom returns the trace context carried by ctx (zero
// context when the request did not pass through instrument).
func scopeContextFrom(ctx context.Context) scope.Context {
	tc, _ := ctx.Value(scopeKey{}).(scope.Context)
	return tc
}

// flightInfo is the per-request carrier the handler fills and the
// instrument middleware drains into the flight recorder.
type flightInfo struct {
	cache   string // result-cache verdict: "hit", "miss", "coalesced", ""
	queueNS int64
	errMsg  string
	spans   []trace.Span // the request's span stream (pass latency vector)
}

type flightKey struct{}

func withFlightInfo(r *http.Request) (*http.Request, *flightInfo) {
	fi := &flightInfo{}
	return r.WithContext(context.WithValue(r.Context(), flightKey{}, fi)), fi
}

func flightFrom(ctx context.Context) *flightInfo {
	fi, _ := ctx.Value(flightKey{}).(*flightInfo)
	return fi
}

// recordFlight writes one flight record for a completed /v1/* request.
// It is the only writer on the daemon's request path; the recorder's
// Acquire/Commit contract keeps it allocation-free once the ring is
// warm (the pass-name strings are shared with the span stream, not
// copied).
func (s *Server) recordFlight(r *http.Request, status int, durNS int64, nowUnixNS int64, fi *flightInfo) {
	rec, h := s.flight.Acquire()
	if rec == nil {
		return
	}
	rec.TimeUnixNS = nowUnixNS
	rec.TraceID = scopeContextFrom(r.Context()).TraceID
	rec.RequestID = requestIDFrom(r.Context())
	rec.Client = scope.ClientID(r)
	rec.Path = r.URL.Path
	rec.Status = status
	rec.DurNS = durNS
	if fi != nil {
		rec.Cache = fi.cache
		rec.QueueNS = fi.queueNS
		rec.Err = fi.errMsg
		for _, sp := range fi.spans {
			if sp.Kind != trace.KindInvocation {
				continue
			}
			rec.Passes = append(rec.Passes, scope.PassNS{Pass: sp.Ref.String(), DurNS: int64(sp.Dur)})
		}
	}
	s.flight.Commit(rec, h)
}

// DebugHandler returns maod's debug plane for its opt-in debug
// listener (-debug-addr): pprof and the flight recorder (see
// scope.DebugHandler). The main handler serves nothing under /debug/,
// which the tests pin.
func (s *Server) DebugHandler() http.Handler { return scope.DebugHandler("maod", s.flight) }

// parseTraceMode maps the ?trace= query parameter onto the
// OptimizeOptions.Trace values: 1/true → "spans", chrome → "chrome".
func parseTraceMode(q string) (string, bool) {
	switch q {
	case "":
		return "", true
	case "1", "true", "spans":
		return scope.TraceSpans, true
	case "chrome":
		return scope.TraceChrome, true
	}
	return "", false
}

// traceResponse clones resp with the request's stitched span tree
// attached (the cached copy stays trace-free: spans belong to one
// execution, not to the content-addressed result).
func traceResponse(resp *OptimizeResponse, spans []trace.Span, tc scope.Context, salt, mode string) *OptimizeResponse {
	tr := *resp
	tr.Trace = scope.Project(spans, tc, "maod", salt)
	if mode == scope.TraceChrome {
		tr.TraceChrome = scope.ChromeEvents(tr.Trace)
	}
	return &tr
}
