// Package router implements MAOROUTER, the shared-nothing shard
// router that scales maod out: a reverse proxy that computes the same
// content-addressed result-cache key the daemon uses
// (internal/cachekey — one derivation, golden-vector pinned, so router
// and daemon cannot drift) and consistent-hashes it onto N shard
// backends.
//
// Why hash on the cache key rather than round-robin: every shard can
// serve every request (the optimizer is deterministic and shards are
// shared-nothing), but each shard's result cache only holds what that
// shard has seen. Key-affinity routing sends every repeat of a
// request to the shard that already computed it, so fleet-wide cache
// hit rate approaches the single-daemon rate instead of being diluted
// by a factor of N — cmd/maoload's zipf mode measures exactly this
// concentration.
//
// Optimize answers are forwarded buffered and identical in-flight
// misses coalesce (see coalesce.go): concurrent duplicate optimize
// requests share a single shard forward, with the followers replaying
// the buffered response under an X-Mao-Cache: coalesced verdict — a
// thundering herd of one hot request costs the fleet one pipeline
// run, total.
//
// Failure handling: shards are health-checked via their /readyz
// (which flips to 503 the moment a shard starts draining) and marked
// passively on transport errors. A request whose shard is down —
// or whose forward dies before a response arrives — is retried once
// on the next shard in the key's ring preference order; maod requests
// are idempotent by construction (content-addressed, deterministic),
// so the retry is safe. Every other response (archive streams above
// all) is streamed through with flush-per-chunk, so NDJSON archive
// streams stay incremental across the hop.
package router

import (
	"bytes"
	"context"
	"crypto/rand"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"

	"mao/internal/cachekey"
	"mao/internal/coalesce"
	"mao/internal/scope"
)

// Config parameterizes a Router.
type Config struct {
	// Shards are the backend base URLs (e.g. http://10.0.0.1:7950).
	// Required, at least one.
	Shards []string
	// VNodes is the virtual-node count per shard on the hash ring
	// (0 = 128).
	VNodes int
	// ProbeInterval is how often each shard's /readyz is polled
	// (0 = 1s; negative disables active probing — passive marking on
	// transport errors still applies).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one probe request (0 = 1s).
	ProbeTimeout time.Duration
	// MaxBodyBytes caps a proxied request body; bodies are buffered
	// for key computation and retry (0 = 64 MiB).
	MaxBodyBytes int64
	// DisableCoalesce turns off in-flight miss coalescing (on by
	// default): concurrent identical optimize requests share one shard
	// forward, followers replaying the buffered response as
	// X-Mao-Cache: coalesced. Sound because maod is deterministic.
	DisableCoalesce bool
	// CoalesceTimeout bounds a buffered optimize forward, which runs
	// detached from the leader's client context (0 = 2m).
	CoalesceTimeout time.Duration
	// Logf, when non-nil, receives shard health transitions.
	Logf func(format string, args ...any)
	// AccessLog, when non-nil, receives one JSON line per proxied
	// request (shard, cache verdict, trace ID, retries).
	AccessLog io.Writer
	// FlightRecords sizes the router's flight-recorder ring (0 = 512,
	// negative disables). Served from DebugHandler under /debug/scope/.
	FlightRecords int
}

func (c Config) withDefaults() Config {
	if c.VNodes <= 0 {
		c.VNodes = defaultVNodes
	}
	if c.ProbeInterval == 0 {
		c.ProbeInterval = time.Second
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 64 << 20
	}
	if c.FlightRecords == 0 {
		c.FlightRecords = 512
	}
	if c.CoalesceTimeout <= 0 {
		c.CoalesceTimeout = 2 * time.Minute
	}
	return c
}

// backend is one shard and its health/traffic state.
type backend struct {
	name string // the configured URL string, also the metrics label
	url  *url.URL

	mu      sync.Mutex
	healthy bool
}

func (b *backend) isHealthy() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.healthy
}

// Router is the shard router: construct with New, expose via
// Handler-style ServeHTTP, stop with Close.
type Router struct {
	cfg      Config
	ring     *ring
	backends []*backend
	client   *http.Client
	met      *routerMetrics
	flight   *scope.Recorder
	flights  coalesce.Group[proxyResult]

	stopProbe chan struct{}
	probeWG   sync.WaitGroup
	closeOnce sync.Once
	started   time.Time
}

// New builds a Router over cfg.Shards and starts the health prober.
func New(cfg Config) (*Router, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Shards) == 0 {
		return nil, errors.New("router: at least one shard is required")
	}
	names := make([]string, 0, len(cfg.Shards))
	backends := make([]*backend, 0, len(cfg.Shards))
	for _, s := range cfg.Shards {
		u, err := url.Parse(s)
		if err != nil || u.Scheme == "" || u.Host == "" {
			return nil, fmt.Errorf("router: invalid shard URL %q", s)
		}
		names = append(names, s)
		backends = append(backends, &backend{name: s, url: u, healthy: true})
	}
	r := &Router{
		cfg:      cfg,
		ring:     newRing(names, cfg.VNodes),
		backends: backends,
		// The transport's defaults are fine; requests carry their own
		// deadlines end to end, so no client-level timeout (it would
		// cut long archive streams short).
		client:    &http.Client{},
		met:       newRouterMetrics(names),
		flight:    scope.NewRecorder(cfg.FlightRecords),
		stopProbe: make(chan struct{}),
		started:   time.Now(),
	}
	if cfg.ProbeInterval > 0 {
		r.probeWG.Add(1)
		go r.probeLoop()
	}
	return r, nil
}

// Close stops the health prober. In-flight proxied requests finish on
// their own (the caller owns the http.Server lifecycle).
func (r *Router) Close() {
	r.closeOnce.Do(func() {
		close(r.stopProbe)
		r.probeWG.Wait()
	})
}

// setHealthy records a health observation, counting ring rebalances
// on transitions (a transition changes effective key ownership).
func (r *Router) setHealthy(b *backend, healthy bool, why string) {
	b.mu.Lock()
	changed := b.healthy != healthy
	b.healthy = healthy
	b.mu.Unlock()
	if changed {
		r.met.rebalances.Add(1)
		if r.cfg.Logf != nil {
			state := "healthy"
			if !healthy {
				state = "unhealthy"
			}
			r.cfg.Logf("shard %s marked %s (%s)", b.name, state, why)
		}
	}
}

// probeLoop polls every shard's /readyz. A draining or dead shard
// flips unhealthy within one interval and its keys spill clockwise;
// it rejoins the ring the moment /readyz answers 200 again.
func (r *Router) probeLoop() {
	defer r.probeWG.Done()
	ticker := time.NewTicker(r.cfg.ProbeInterval)
	defer ticker.Stop()
	for {
		select {
		case <-r.stopProbe:
			return
		case <-ticker.C:
			for _, b := range r.backends {
				r.probe(b)
			}
		}
	}
}

func (r *Router) probe(b *backend) {
	ctx, cancel := context.WithTimeout(context.Background(), r.cfg.ProbeTimeout)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, "GET", b.url.JoinPath("/readyz").String(), nil)
	resp, err := r.client.Do(req)
	if err != nil {
		r.setHealthy(b, false, "readyz probe failed: "+err.Error())
		return
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		r.setHealthy(b, true, "readyz ok")
	} else {
		r.setHealthy(b, false, fmt.Sprintf("readyz status %d", resp.StatusCode))
	}
}

// requestIDHeader mirrors maod's: the router propagates an inbound
// X-Request-ID (or mints one) onto the shard hop, so one ID correlates
// the client, the router access path, and the shard's spans.
const requestIDHeader = "X-Request-ID"

// shardHeader names the shard that served a response; maoload's
// per-shard report reads it.
const shardHeader = "X-Mao-Shard"

func newRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "00000000deadbeef"
	}
	return hex.EncodeToString(b[:])
}

// ServeHTTP serves the router's own endpoints (/healthz, /metrics)
// and proxies everything else to a shard.
func (r *Router) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	switch {
	case req.Method == "GET" && req.URL.Path == "/healthz":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	case req.Method == "GET" && req.URL.Path == "/metrics":
		r.handleMetrics(w)
	default:
		r.proxy(w, req)
	}
}

// routeKey computes the routing key of a request. For JSON optimize
// requests it is the daemon's own result-cache key — cachekey.Key
// over (name, source, spec, option flags), with the ?explain/?verify
// query spellings folded in exactly as the daemon folds them — so a
// repeat request hashes onto the shard whose cache holds its answer.
// Everything else (binary bodies the daemon decodes server-side,
// archives, malformed bodies the shard will 4xx) routes by a digest
// of the raw request: still deterministic — identical requests still
// concentrate — just not aligned with a decoded-form cache entry.
func routeKey(req *http.Request, body []byte) string {
	if req.URL.Path == "/v1/optimize" &&
		strings.HasPrefix(req.Header.Get("Content-Type"), "application/json") {
		var jr struct {
			Name    string `json:"name"`
			Source  string `json:"source"`
			Spec    string `json:"spec"`
			Options struct {
				Check   bool `json:"check"`
				Explain bool `json:"explain"`
				Verify  bool `json:"verify"`
			} `json:"options"`
		}
		if err := json.Unmarshal(body, &jr); err == nil && jr.Source != "" {
			q := req.URL.Query()
			if v := q.Get("explain"); v == "1" || v == "true" {
				jr.Options.Explain = true
			}
			if v := q.Get("verify"); v == "1" || v == "true" {
				jr.Options.Verify = true
			}
			return cachekey.Key(cachekey.Request{
				Name:    jr.Name,
				Source:  jr.Source,
				Spec:    jr.Spec,
				Check:   jr.Options.Check,
				Explain: jr.Options.Explain,
				Verify:  jr.Options.Verify,
			})
		}
	}
	h := sha256.New()
	fmt.Fprintf(h, "%s:%s:%s:%d:", req.Method, req.URL.Path, req.URL.RawQuery, len(body))
	h.Write(body)
	return hex.EncodeToString(h.Sum(nil))
}

// proxy forwards req to the shard owning its routing key, retrying
// once on the next ring candidate if the owner is down, dies before
// answering, or is draining (503). Each forward is one MAOSCOPE hop
// span: the shard receives the router's trace context (parented under
// the hop), and a traced /v1/optimize response gets the hop span
// spliced in so the client sees the full cross-process tree.
func (r *Router) proxy(w http.ResponseWriter, req *http.Request) {
	start := time.Now()
	rid := req.Header.Get(requestIDHeader)
	if rid == "" || len(rid) > 128 {
		rid = newRequestID()
	}
	w.Header().Set(requestIDHeader, rid)
	tc := scopeContext(req)
	w.Header().Set(scope.TraceHeader, tc.Header())
	hop := hopSpan(tc, rid)

	body, err := io.ReadAll(http.MaxBytesReader(w, req.Body, r.cfg.MaxBodyBytes))
	if err != nil {
		var tooBig *http.MaxBytesError
		status := http.StatusBadRequest
		if errors.As(err, &tooBig) {
			status = http.StatusRequestEntityTooLarge
		}
		writeError(w, status, fmt.Errorf("reading request body: %w", err))
		r.finishProxy(req, start, rid, tc, "", "", status, 0, "reading request body: "+err.Error())
		return
	}

	key := routeKey(req, body)
	// A single optimize answer is one JSON document, so it is forwarded
	// buffered (coalesce.go): identical requests share it, a shard dying
	// mid-body fails over instead of relaying truncated bytes, and a
	// traced response gets the hop span spliced in. Everything else —
	// archive streams above all — is relayed as it arrives.
	if req.Method == "POST" && req.URL.Path == "/v1/optimize" {
		r.proxyBuffered(w, req, key, body, rid, tc, hop, start)
		return
	}
	var status int
	var cache string
	b, fo := r.forwardFailover(req.Context(), req, key, body, rid, tc.Child(hop.SpanID),
		func(b *backend, resp *http.Response) error {
			w.Header().Set(shardHeader, b.name)
			cache = resp.Header.Get(cacheHeader)
			copyHeaders(w.Header(), resp.Header)
			status = resp.StatusCode
			w.WriteHeader(status)
			streamBody(w, resp.Body)
			return nil // committed: a death mid-stream can no longer fail over
		})
	if b == nil {
		res := noShard(fo)
		writeResult(w, res, "", res.body)
		r.finishProxy(req, start, rid, tc, "", "", res.status, fo.retries, res.errMsg)
		return
	}
	r.finishProxy(req, start, rid, tc, b.name, cache, status, fo.retries, "")
}

// failover is the attempt history of one forward: the failover
// forwards made, and the last candidate that failed and why.
type failover struct {
	retries int
	from    string
	err     error
}

// forwardFailover forwards req to the shards owning key, in ring
// preference order, until one answers and relay accepts the answer.
// Candidates are the healthy shards, at most two — one forward plus at
// most one retry: enough to survive a single dead shard without
// doubling load under a systemic outage. If every shard looks down,
// the primary is tried anyway: passive marks can be stale, and an
// honest 502 beats a guessed 503.
//
// A candidate fails over when its forward dies before a response
// (transport error), when it answers 503 while another candidate
// remains (maod answers 503 exactly while draining, before a probe has
// caught it — so drains are hitless), or when relay returns an error
// (the shard died mid-body and nothing was committed to the client).
// maod requests are idempotent, so the retry is safe. It returns the
// answering backend, or nil when none did.
func (r *Router) forwardFailover(ctx context.Context, req *http.Request, key string, body []byte, rid string, tc scope.Context, relay func(*backend, *http.Response) error) (*backend, failover) {
	seq := r.ring.seq(key)
	var candidates []*backend
	for _, idx := range seq {
		if b := r.backends[idx]; b.isHealthy() {
			candidates = append(candidates, b)
		}
	}
	if len(candidates) == 0 {
		candidates = []*backend{r.backends[seq[0]]}
	}
	if len(candidates) > 2 {
		candidates = candidates[:2]
	}

	var fo failover
	for attempt, b := range candidates {
		fo.retries = attempt
		if attempt > 0 {
			r.met.retries.Add(1)
		}
		fwdStart := time.Now()
		resp, err := r.forward(ctx, req, b, body, rid, tc)
		why := "forward failed: "
		if err == nil {
			if resp.StatusCode == http.StatusServiceUnavailable && attempt < len(candidates)-1 {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				r.setHealthy(b, false, "shard draining (503)")
				fo.from, fo.err = b.name, fmt.Errorf("shard %s answered 503 (draining)", b.name)
				continue
			}
			err = relay(b, resp)
			resp.Body.Close()
			if err == nil {
				r.met.shard(b.name).requests.Add(1)
				r.met.shard(b.name).latency.Observe(time.Since(fwdStart).Seconds())
				return b, fo
			}
			why = "response read failed: "
		}
		r.setHealthy(b, false, why+err.Error())
		r.met.shard(b.name).errors.Add(1)
		fo.from, fo.err = b.name, err
	}
	r.met.unrouted.Add(1)
	return nil, fo
}

// forward sends one copy of the request to b under ctx. On the
// streaming path ctx is the client's — a client that disconnects or
// times out cancels the shard hop too; a buffered forward passes a
// detached context instead, because followers may outlive the leader's
// client. The shard sees the router's trace context — the hop span as
// parent — so its span tree stitches under the hop.
func (r *Router) forward(ctx context.Context, req *http.Request, b *backend, body []byte, rid string, tc scope.Context) (*http.Response, error) {
	target := *b.url
	target.Path = strings.TrimSuffix(target.Path, "/") + req.URL.Path
	target.RawQuery = req.URL.RawQuery
	out, err := http.NewRequestWithContext(ctx, req.Method, target.String(), bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	out.Header = req.Header.Clone()
	out.Header.Set(requestIDHeader, rid)
	out.Header.Set(scope.TraceHeader, tc.Header())
	return r.client.Do(out)
}

// copyHeaders copies the shard's response headers, leaving the
// router's own (X-Request-ID, X-Mao-Shard, X-Mao-Trace) in place.
// X-Mao-Trace is router-owned because the shard echoes the re-parented
// context it received (hop span as parent); the client must see the
// context it sent (or the one the router originated). Comparison is
// against canonical keys — http.Header stores "X-Request-Id", not
// the constant's spelling.
var routerOwnedHeaders = map[string]bool{
	http.CanonicalHeaderKey(requestIDHeader):   true,
	http.CanonicalHeaderKey(shardHeader):       true,
	http.CanonicalHeaderKey(scope.TraceHeader): true,
}

func copyHeaders(dst, src http.Header) {
	for k, vs := range src {
		if routerOwnedHeaders[k] {
			continue
		}
		for _, v := range vs {
			dst.Add(k, v)
		}
	}
}

// streamBody copies resp body to the client flushing after every
// chunk, so NDJSON archive records cross the router as they arrive
// instead of pooling in a proxy buffer.
func streamBody(w http.ResponseWriter, body io.Reader) {
	rc := http.NewResponseController(w)
	buf := make([]byte, 32<<10)
	for {
		n, err := body.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return
			}
			rc.Flush()
		}
		if err != nil {
			return
		}
	}
}

// Healthy reports how many shards are currently marked healthy.
func (r *Router) Healthy() int {
	n := 0
	for _, b := range r.backends {
		if b.isHealthy() {
			n++
		}
	}
	return n
}

type errorResponse struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	enc.Encode(errorResponse{Error: err.Error()})
}
