package router

import (
	"encoding/json"
	"net/http"
	"time"

	"mao/internal/scope"
)

// MAOSCOPE wiring for the router: the hop span (one per forward,
// carrying shard choice and failover attribution), the trace-context
// relay (inbound X-Mao-Trace re-parented under the hop span before the
// shard sees it), the flight recorder, and the JSON access log.

// cacheHeader is maod's result-cache verdict header, relayed into the
// router's access log and flight records.
const cacheHeader = "X-Mao-Cache"

// scopeContext resolves a proxied request's trace context: adopt a
// well-formed inbound X-Mao-Trace, originate otherwise. The hop span
// interposes between the inbound parent and the shard's tree, so the
// forwarded header carries the hop span as the new parent.
func scopeContext(req *http.Request) scope.Context {
	tc, ok := scope.ParseHeader(req.Header.Get(scope.TraceHeader))
	if !ok {
		tc = scope.NewContext()
	}
	return tc
}

// hopSpan seeds the router's hop span for one proxied request. The ID
// is salted with the request ID so two requests reusing one inbound
// context still get distinct hop spans; timing and attribution are
// filled in when the forward completes.
func hopSpan(tc scope.Context, rid string) scope.Span {
	return scope.Span{
		TraceID:  tc.TraceID,
		SpanID:   scope.SpanID(tc.TraceID, tc.ParentSpanID, "hop:"+rid, 0),
		ParentID: tc.ParentSpanID,
		Process:  "maorouter",
		Kind:     "hop",
	}
}

// spliceTrace inserts the hop span into a shard's ?trace= response
// body: the hop lands at the head of the "trace" array and, when the
// response carries one, of "trace_chrome". On any parse trouble the
// body passes through untouched — tracing must never break the data
// path.
func spliceTrace(body []byte, hop scope.Span) []byte {
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(body, &doc); err != nil {
		return body
	}
	raw, ok := doc["trace"]
	if !ok {
		return body
	}
	var spans []scope.Span
	if err := json.Unmarshal(raw, &spans); err != nil {
		return body
	}
	spans = append([]scope.Span{hop}, spans...)
	enc, err := json.Marshal(spans)
	if err != nil {
		return body
	}
	doc["trace"] = enc
	if rawC, ok := doc["trace_chrome"]; ok {
		var events []scope.ChromeEvent
		if err := json.Unmarshal(rawC, &events); err == nil {
			events = append(scope.ChromeEvents([]scope.Span{hop}), events...)
			if encC, err := json.Marshal(events); err == nil {
				doc["trace_chrome"] = encC
			}
		}
	}
	out, err := json.Marshal(doc)
	if err != nil {
		return body
	}
	out = append(out, '\n')
	return out
}

// accessRecord is one structured router access-log line: the shard
// that served the request and the cache verdict it reported are
// first-class fields, so a grep over the log answers "which shard, was
// it a hit" without touching metrics.
type accessRecord struct {
	Time       string  `json:"time"`
	Method     string  `json:"method"`
	Path       string  `json:"path"`
	Status     int     `json:"status"`
	DurationMS float64 `json:"dur_ms"`
	Remote     string  `json:"remote"`
	RequestID  string  `json:"request_id"`
	TraceID    string  `json:"trace_id,omitempty"`
	Shard      string  `json:"shard,omitempty"`
	Cache      string  `json:"cache,omitempty"`
	Retries    int     `json:"retries,omitempty"`
	Error      string  `json:"error,omitempty"`
}

// finishProxy records one completed proxied request into the access
// log and the flight recorder.
func (r *Router) finishProxy(req *http.Request, start time.Time, rid string, tc scope.Context, shard, cache string, status, retries int, errMsg string) {
	d := time.Since(start)
	if r.cfg.AccessLog != nil {
		line, err := json.Marshal(accessRecord{
			Time:       start.UTC().Format(time.RFC3339Nano),
			Method:     req.Method,
			Path:       req.URL.Path,
			Status:     status,
			DurationMS: float64(d.Microseconds()) / 1000,
			Remote:     req.RemoteAddr,
			RequestID:  rid,
			TraceID:    tc.TraceID,
			Shard:      shard,
			Cache:      cache,
			Retries:    retries,
			Error:      errMsg,
		})
		if err == nil {
			line = append(line, '\n')
			r.cfg.AccessLog.Write(line)
		}
	}
	rec, h := r.flight.Acquire()
	if rec == nil {
		return
	}
	rec.TimeUnixNS = start.Add(d).UnixNano()
	rec.TraceID = tc.TraceID
	rec.RequestID = rid
	rec.Client = scope.ClientID(req)
	rec.Shard = shard
	rec.Path = req.URL.Path
	rec.Cache = cache
	rec.Status = status
	rec.DurNS = d.Nanoseconds()
	rec.Retries = retries
	rec.Err = errMsg
	r.flight.Commit(rec, h)
}

// DebugHandler returns the router's debug plane for the opt-in
// -debug-addr listener: pprof and the flight recorder (see
// scope.DebugHandler). Never mounted on the proxy port.
func (r *Router) DebugHandler() http.Handler { return scope.DebugHandler("maorouter", r.flight) }
