package router

// The buffered optimize path, and fleet-wide miss coalescing on it.
// Every single-unit /v1/optimize answer is forwarded fully buffered:
// a shard that dies mid-body fails over (or becomes a 502) instead of
// reaching the client as a truncated 200, and a ?trace= response gets
// the router's hop span spliced in before it is relayed.
//
// Fleet-wide miss coalescing: when K identical /v1/optimize requests
// are in flight at the router simultaneously, only one forward reaches
// a shard; the other K-1 wait on it and replay the buffered response
// with an X-Mao-Cache: coalesced verdict. The shard coalesces its own
// concurrent misses too (internal/serve), but router-side coalescing
// keeps the duplicate requests off the wire entirely — they consume no
// shard connection, no admission slot, nothing.
//
// Identity is the routing key (routeKey): for JSON optimize requests
// that is the daemon's own content-addressed result-cache key, so two
// requests coalesce exactly when the daemon would give them the same
// cache entry. Requests that opt out of caching (no_cache) or request
// a trace (every traced response is unique — it carries that request's
// hop span) never coalesce; archive submissions stream and take a
// different path entirely.
//
// The shared forward runs on a context detached from the leader's
// client, bounded by CoalesceTimeout: a leader that disconnects
// mid-flight must not kill the answer its followers are waiting on,
// and only the LAST waiter to abandon the flight cancels the forward.
// The leader publishes a result on EVERY path — success, failover
// exhaustion (502) — so a waiter can never hang on a flight whose run
// died silently.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"mao/internal/coalesce"
	"mao/internal/scope"
)

// proxyResult is one fully buffered shard response (or router-level
// error), the unit a flight shares between its waiters.
type proxyResult struct {
	status int
	header http.Header
	body   []byte
	// shard is the backend that answered ("" when none was reachable).
	shard string
	// cache is the shard's own X-Mao-Cache verdict; followers override
	// it with "coalesced" when writing their copy.
	cache string
	// fo is the forward's failover history: retries, and the hop
	// span's failover attribution.
	fo failover
	// errMsg is non-empty for router-level failures (no shard
	// reachable); it feeds the access log and flight record.
	errMsg string
}

// coalescible reports whether an optimize request may share a
// forward: it neither bypasses the cache nor requests a trace, in
// either query-parameter or body-option spelling.
func coalescible(req *http.Request, body []byte) bool {
	q := req.URL.Query()
	if q.Get("trace") != "" {
		return false
	}
	if v := q.Get("no_cache"); v == "1" || v == "true" {
		return false
	}
	if strings.HasPrefix(req.Header.Get("Content-Type"), "application/json") {
		var jr struct {
			Options struct {
				NoCache bool   `json:"no_cache"`
				Trace   string `json:"trace"`
			} `json:"options"`
		}
		if err := json.Unmarshal(body, &jr); err == nil &&
			(jr.Options.NoCache || jr.Options.Trace != "") {
			return false
		}
	}
	return true
}

// proxyBuffered serves one optimize request through a flight: the
// leader forwards on a detached context and publishes; everyone waits
// on the flight and replays the buffered response. Followers report
// X-Mao-Cache: coalesced — the shard's verdict describes the leader's
// request, not theirs.
func (r *Router) proxyBuffered(w http.ResponseWriter, req *http.Request, key string, body []byte, rid string, tc scope.Context, hop scope.Span, start time.Time) {
	var f *coalesce.Flight[proxyResult]
	leader, traced := true, false
	if !r.cfg.DisableCoalesce && coalescible(req, body) {
		if f, leader = r.flights.Join(key); !leader {
			r.met.coalesced.Add(1)
		}
	} else {
		f, traced = r.flights.Solo(), req.URL.Query().Get("trace") != ""
	}
	if leader {
		runCtx, runCancel := context.WithTimeout(
			context.WithoutCancel(req.Context()), r.cfg.CoalesceTimeout)
		f.SetCancel(runCancel)
		go func() {
			f.Publish(r.forwardBuffered(runCtx, req, key, body, rid, tc.Child(hop.SpanID)))
		}()
	}

	select {
	case <-f.Done():
	case <-req.Context().Done():
		f.Leave()
		writeError(w, http.StatusServiceUnavailable,
			errors.New("request abandoned before the shard answered"))
		r.finishProxy(req, start, rid, tc, "", "", http.StatusServiceUnavailable, 0,
			"client gone before the shard answered")
		return
	}

	res := f.Result()
	verdict := res.cache
	if !leader {
		verdict = "coalesced"
	}
	out := res.body
	// A ?trace= response carries the router's hop span at the head of
	// its span tree. Archive streams never get here: their per-unit
	// traces ride the NDJSON records untouched.
	if traced && res.status == http.StatusOK {
		hop.DurNS = time.Since(start).Nanoseconds()
		hop.Attrs = map[string]string{
			"shard":   res.shard,
			"attempt": strconv.Itoa(res.fo.retries + 1),
			"healthy": strconv.Itoa(r.Healthy()),
		}
		if res.fo.from != "" {
			hop.Attrs["failover_from"] = res.fo.from
			hop.Attrs["failover_reason"] = res.fo.err.Error()
		}
		out = spliceTrace(out, hop)
	}
	writeResult(w, res, verdict, out)
	r.finishProxy(req, start, rid, tc, res.shard, verdict, res.status, res.fo.retries, res.errMsg)
}

// forwardBuffered runs the failover forward with the response fully
// buffered, so it can fan out to every waiter and a mid-body death is
// still a failover, not a truncated answer.
func (r *Router) forwardBuffered(ctx context.Context, req *http.Request, key string, body []byte, rid string, tc scope.Context) proxyResult {
	var res proxyResult
	b, fo := r.forwardFailover(ctx, req, key, body, rid, tc, func(b *backend, resp *http.Response) error {
		respBody, err := io.ReadAll(resp.Body)
		if err != nil {
			return err
		}
		res = proxyResult{status: resp.StatusCode, header: resp.Header, body: respBody,
			shard: b.name, cache: resp.Header.Get(cacheHeader)}
		return nil
	})
	if b == nil {
		return noShard(fo)
	}
	res.fo = fo
	return res
}

// noShard is the 502 answer when every candidate failed.
func noShard(fo failover) proxyResult {
	err := fmt.Errorf("no shard reachable: %w", fo.err)
	var body bytes.Buffer
	enc := json.NewEncoder(&body)
	enc.SetEscapeHTML(false)
	enc.Encode(errorResponse{Error: err.Error()})
	h := http.Header{}
	h.Set("Content-Type", "application/json")
	h.Set("Retry-After", "1")
	return proxyResult{status: http.StatusBadGateway, header: h, body: body.Bytes(), fo: fo, errMsg: err.Error()}
}

// writeResult relays a buffered answer: the shard's headers, the
// answering shard and the cache verdict, then body.
func writeResult(w http.ResponseWriter, res proxyResult, verdict string, body []byte) {
	copyHeaders(w.Header(), res.header)
	if res.shard != "" {
		w.Header().Set(shardHeader, res.shard)
	}
	if verdict != "" {
		w.Header().Set(cacheHeader, verdict)
	}
	w.Header().Del("Content-Length") // recomputed for the relayed body
	w.WriteHeader(res.status)
	w.Write(body)
}
