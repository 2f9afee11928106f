package router

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mao/internal/cachekey"
	"mao/internal/pass"
	"mao/internal/serve"
)

// sleepPass mirrors the serve package's test pass: it holds a worker
// busy for ms[N] milliseconds so streaming tests can observe partial
// progress deterministically.
type sleepPass struct{}

func (sleepPass) Name() string        { return "SLEEPTEST" }
func (sleepPass) Description() string { return "test pass that sleeps" }

// Effectful: the sleep is the point — memoizing it away would let
// repeat content skip the delay the timing tests depend on.
func (sleepPass) Effectful() bool { return true }
func (sleepPass) RunUnit(ctx *pass.Ctx) (bool, error) {
	d := time.Duration(ctx.Opts.Int("ms", 10)) * time.Millisecond
	select {
	case <-time.After(d):
		return false, nil
	case <-ctx.Context().Done():
		return false, ctx.Context().Err()
	}
}

func init() {
	if pass.Lookup("SLEEPTEST") == nil {
		pass.Register(func() pass.Pass { return sleepPass{} })
	}
}

const testSource = `	.text
	.type f,@function
f:
	subl $16, %r15d
	testl %r15d, %r15d
	je .Lz
	movq 24(%rsp), %rdx
	movq 24(%rsp), %rcx
.Lz:
	ret
	.size f,.-f
`

// testFleet boots n real maod shards behind a router and tears
// everything down with the test. Probing is disabled by default so
// tests control health marking explicitly; pass a positive interval
// to turn it on.
func testFleet(t *testing.T, n int, probe time.Duration) (*Router, *httptest.Server, []*httptest.Server) {
	t.Helper()
	var shardURLs []string
	var shards []*httptest.Server
	for i := 0; i < n; i++ {
		s := serve.New(serve.Config{})
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(func() { ts.Close(); s.Close() })
		shards = append(shards, ts)
		shardURLs = append(shardURLs, ts.URL)
	}
	if probe == 0 {
		probe = -1
	}
	r, err := New(Config{Shards: shardURLs, ProbeInterval: probe, ProbeTimeout: 250 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(r)
	t.Cleanup(func() { front.Close(); r.Close() })
	return r, front, shards
}

func optimizeVia(t *testing.T, url, name string) (*http.Response, *serve.OptimizeResponse) {
	t.Helper()
	body, _ := json.Marshal(&serve.OptimizeRequest{Name: name, Source: testSource, Spec: "REDTEST"})
	resp, err := http.Post(url+"/v1/optimize", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("status = %d: %s", resp.StatusCode, b)
	}
	var out serve.OptimizeResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return resp, &out
}

// TestRingDeterministicAndOrderIndependent: key ownership depends on
// shard names, not their position in the list, and seq is a
// permutation of all shards.
func TestRingDeterministicAndOrderIndependent(t *testing.T) {
	names := []string{"http://a:1", "http://b:2", "http://c:3"}
	reordered := []string{"http://c:3", "http://a:1", "http://b:2"}
	r1 := newRing(names, 0)
	r2 := newRing(reordered, 0)
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("key-%d", i)
		s1 := r1.seq(key)
		s2 := r2.seq(key)
		if len(s1) != 3 || len(s2) != 3 {
			t.Fatalf("seq(%q) lengths = %d, %d, want 3", key, len(s1), len(s2))
		}
		for j := range s1 {
			if names[s1[j]] != reordered[s2[j]] {
				t.Fatalf("seq(%q)[%d]: %s vs %s — ownership depends on list order",
					key, j, names[s1[j]], reordered[s2[j]])
			}
		}
		seen := map[int]bool{}
		for _, s := range s1 {
			if seen[s] {
				t.Fatalf("seq(%q) repeats shard %d", key, s)
			}
			seen[s] = true
		}
	}
}

// TestRingBalance: with 128 vnodes, no shard of 4 owns more than ~2x
// its fair share of random keys.
func TestRingBalance(t *testing.T) {
	names := []string{"http://a:1", "http://b:2", "http://c:3", "http://d:4"}
	r := newRing(names, 0)
	counts := make([]int, len(names))
	const keys = 4000
	for i := 0; i < keys; i++ {
		counts[r.seq(fmt.Sprintf("unit-%d.s", i))[0]]++
	}
	fair := float64(keys) / float64(len(names))
	for s, c := range counts {
		if ratio := float64(c) / fair; ratio < 0.5 || ratio > 2.0 {
			t.Errorf("shard %d owns %d/%d keys (%.2fx fair share)", s, c, keys, ratio)
		}
	}
}

// TestRingConsistency: removing one shard (as health filtering does)
// moves only that shard's keys; everyone else's owner is unchanged.
func TestRingConsistency(t *testing.T) {
	names := []string{"http://a:1", "http://b:2", "http://c:3", "http://d:4"}
	r := newRing(names, 0)
	const dead = 2
	moved := 0
	const keys = 2000
	for i := 0; i < keys; i++ {
		seq := r.seq(fmt.Sprintf("unit-%d.s", i))
		if seq[0] == dead {
			moved++
			continue
		}
		// Filtering out the dead shard must not change this key's owner.
		for _, s := range seq {
			if s == dead {
				continue
			}
			if s != seq[0] {
				t.Fatalf("key %d rerouted from %d to %d though its owner is alive", i, seq[0], s)
			}
			break
		}
	}
	if frac := float64(moved) / keys; frac > 0.5 {
		t.Errorf("losing 1 of 4 shards moved %.0f%% of keys, want ~25%%", frac*100)
	}
}

// TestRouterProxiesAndSetsHeaders: a routed optimize answers exactly
// like a direct daemon and carries X-Mao-Shard + X-Request-ID.
func TestRouterProxiesAndSetsHeaders(t *testing.T) {
	_, front, shards := testFleet(t, 2, 0)
	resp, out := optimizeVia(t, front.URL, "f.s")
	if out.Assembly == "" {
		t.Error("empty assembly through router")
	}
	shard := resp.Header.Get("X-Mao-Shard")
	if shard != shards[0].URL && shard != shards[1].URL {
		t.Errorf("X-Mao-Shard = %q, not a shard URL", shard)
	}
	if resp.Header.Get("X-Request-ID") == "" {
		t.Error("router response lacks X-Request-ID")
	}

	// Direct comparison: the shard that served it answers identically.
	dresp, direct := optimizeVia(t, shard, "f.s")
	if direct.Assembly != out.Assembly {
		t.Error("routed assembly differs from direct shard response")
	}
	_ = dresp
}

// TestRouterKeyAffinity: repeats of the same request always land on
// the same shard, and the second hit is served from that shard's
// result cache.
func TestRouterKeyAffinity(t *testing.T) {
	_, front, _ := testFleet(t, 4, 0)
	where := map[string]string{}
	for rep := 0; rep < 3; rep++ {
		for i := 0; i < 8; i++ {
			name := fmt.Sprintf("unit-%d.s", i)
			resp, out := optimizeVia(t, front.URL, name)
			shard := resp.Header.Get("X-Mao-Shard")
			if prev, ok := where[name]; ok {
				if prev != shard {
					t.Fatalf("%s moved from %s to %s between repeats", name, prev, shard)
				}
				if !out.Cached {
					t.Errorf("repeat of %s not served from shard result cache", name)
				}
				if resp.Header.Get("X-Mao-Cache") != "hit" {
					t.Errorf("repeat of %s: X-Mao-Cache = %q, want hit", name, resp.Header.Get("X-Mao-Cache"))
				}
			} else {
				where[name] = shard
			}
		}
	}
	// 8 distinct names on 4 shards should touch more than one shard.
	distinct := map[string]bool{}
	for _, s := range where {
		distinct[s] = true
	}
	if len(distinct) < 2 {
		t.Errorf("all %d keys landed on one shard", len(where))
	}
}

// TestRouteKeyMatchesDaemon: the router's key for a JSON optimize
// request — including the ?verify=1 query spelling — is the daemon's
// cachekey, byte for byte.
func TestRouteKeyMatchesDaemon(t *testing.T) {
	body := []byte(`{"name":"f.s","source":"ret\n","spec":"REDTEST","options":{"check":true}}`)
	req := httptest.NewRequest("POST", "/v1/optimize?verify=1", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	got := routeKey(req, body)
	want := cachekey.Key(cachekey.Request{
		Name: "f.s", Source: "ret\n", Spec: "REDTEST", Check: true, Verify: true,
	})
	if got != want {
		t.Errorf("routeKey = %s, want daemon cachekey %s", got, want)
	}

	// Non-JSON and malformed bodies fall back to a raw digest — still
	// deterministic.
	raw := []byte("not json")
	req2 := httptest.NewRequest("POST", "/v1/optimize", bytes.NewReader(raw))
	req2.Header.Set("Content-Type", "application/json")
	k1 := routeKey(req2, raw)
	k2 := routeKey(req2, raw)
	if k1 != k2 {
		t.Error("fallback key not deterministic")
	}
	if k1 == want {
		t.Error("fallback key collided with a cachekey")
	}
}

// TestRouterRetriesDeadShard: with the key's owner down, the request
// is retried on the failover shard, the dead shard is marked
// unhealthy, and a rebalance is counted.
func TestRouterRetriesDeadShard(t *testing.T) {
	r, front, shards := testFleet(t, 2, 0)

	// Find a name owned by shard 0, then kill shard 0.
	var victimName string
	for i := 0; i < 64; i++ {
		name := fmt.Sprintf("probe-%d.s", i)
		body, _ := json.Marshal(&serve.OptimizeRequest{Name: name, Source: testSource, Spec: "REDTEST"})
		req := httptest.NewRequest("POST", "/v1/optimize", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		if r.ring.seq(routeKey(req, body))[0] == 0 {
			victimName = name
			break
		}
	}
	if victimName == "" {
		t.Fatal("no key found owned by shard 0")
	}
	shards[0].Close()

	resp, out := optimizeVia(t, front.URL, victimName)
	if out.Assembly == "" {
		t.Error("empty assembly from failover shard")
	}
	if got := resp.Header.Get("X-Mao-Shard"); got != shards[1].URL {
		t.Errorf("served by %q, want failover shard %q", got, shards[1].URL)
	}
	if r.met.retries.Load() == 0 {
		t.Error("retry not counted")
	}
	if r.met.rebalances.Load() == 0 {
		t.Error("health transition not counted as a rebalance")
	}
	if r.backends[0].isHealthy() {
		t.Error("dead shard still marked healthy")
	}
	// Subsequent requests skip the dead shard without a retry.
	before := r.met.retries.Load()
	optimizeVia(t, front.URL, victimName)
	if r.met.retries.Load() != before {
		t.Error("request to a known-dead shard's key still burned a retry")
	}
}

// TestRouterFailsOverDrainingShard: a shard answering 503 (maod's
// drain signal) is failed over exactly like a dead one — drains are
// hitless even before a /readyz probe catches them.
func TestRouterFailsOverDrainingShard(t *testing.T) {
	draining := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "1")
		http.Error(w, `{"error":"server is draining"}`, http.StatusServiceUnavailable)
	}))
	t.Cleanup(draining.Close)
	s := serve.New(serve.Config{})
	live := httptest.NewServer(s.Handler())
	t.Cleanup(func() { live.Close(); s.Close() })

	r, err := New(Config{Shards: []string{draining.URL, live.URL}, ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(r)
	t.Cleanup(func() { front.Close(); r.Close() })

	// Ring ownership hashes the shard URLs, which carry ephemeral
	// httptest ports — so probe the ring for names the draining shard
	// actually owns instead of hoping a fixed set spreads. Every one
	// must still come back 200, served by the live shard.
	var names []string
	for i := 0; len(names) < 4 && i < 4096; i++ {
		name := fmt.Sprintf("drain-%d.s", i)
		key := cachekey.Key(cachekey.Request{Name: name, Source: testSource, Spec: "REDTEST"})
		if r.ring.seq(key)[0] == 0 {
			names = append(names, name)
		}
	}
	if len(names) == 0 {
		t.Fatal("draining shard owns none of 4096 probe keys")
	}
	for i, name := range names {
		resp, out := optimizeVia(t, front.URL, name)
		if out.Assembly == "" {
			t.Fatalf("empty assembly for unit %d", i)
		}
		if got := resp.Header.Get("X-Mao-Shard"); got != live.URL {
			t.Errorf("unit %d served by %q, want live shard", i, got)
		}
	}
	if r.backends[0].isHealthy() {
		t.Error("draining shard still marked healthy")
	}
}

// TestRouterNoShardReachable: every shard down → 502 with Retry-After,
// counted on maorouter_no_shard_total.
func TestRouterNoShardReachable(t *testing.T) {
	r, front, shards := testFleet(t, 2, 0)
	for _, s := range shards {
		s.Close()
	}
	body, _ := json.Marshal(&serve.OptimizeRequest{Source: testSource, Spec: "REDTEST"})
	resp, err := http.Post(front.URL+"/v1/optimize", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("status = %d, want 502", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("502 lacks Retry-After")
	}
	if r.met.unrouted.Load() == 0 {
		t.Error("maorouter_no_shard_total not incremented")
	}
}

// TestRouterTracedTruncatedBody: a shard that dies mid-body on a
// traced optimize, with no candidate left to fail over to, is a 502
// counted on maorouter_errors_total — never a 200 relaying the
// truncated bytes.
func TestRouterTracedTruncatedBody(t *testing.T) {
	shard := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		io.Copy(io.Discard, req.Body)
		conn, buf, err := w.(http.Hijacker).Hijack()
		if err != nil {
			t.Error(err)
			return
		}
		buf.WriteString("HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 4096\r\n\r\n" +
			`{"assembly":"\t.text\n`)
		buf.Flush()
		conn.Close()
	}))
	t.Cleanup(shard.Close)
	r, err := New(Config{Shards: []string{shard.URL}, ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(r)
	t.Cleanup(func() { front.Close(); r.Close() })

	body, _ := json.Marshal(&serve.OptimizeRequest{Source: testSource, Spec: "REDTEST"})
	resp, err := http.Post(front.URL+"/v1/optimize?trace=1", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Errorf("status = %d, want 502 (body %q)", resp.StatusCode, got)
	}
	if n := r.met.shard(shard.URL).errors.Load(); n != 1 {
		t.Errorf("maorouter_errors_total{shard} = %d, want 1", n)
	}
}

// TestRouterProbeRecovery: a shard marked dead rejoins once its
// /readyz answers again.
func TestRouterProbeRecovery(t *testing.T) {
	var down atomic.Bool
	s := serve.New(serve.Config{})
	t.Cleanup(func() { s.Close() })
	inner := s.Handler()
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if down.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(flaky.Close)

	r, err := New(Config{Shards: []string{flaky.URL}, ProbeInterval: 20 * time.Millisecond, ProbeTimeout: 200 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)

	down.Store(true)
	deadline := time.Now().Add(5 * time.Second)
	for r.Healthy() != 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if r.Healthy() != 0 {
		t.Fatal("shard never marked unhealthy by probes")
	}
	down.Store(false)
	for r.Healthy() != 1 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if r.Healthy() != 1 {
		t.Fatal("shard never recovered after /readyz returned")
	}
	if r.met.rebalances.Load() < 2 {
		t.Errorf("rebalances = %d, want ≥ 2 (down + up)", r.met.rebalances.Load())
	}
}

// TestRouterMetricsExposed: the router's own /metrics carries the
// per-shard and fleet series.
func TestRouterMetricsExposed(t *testing.T) {
	_, front, shards := testFleet(t, 2, 0)
	optimizeVia(t, front.URL, "m.s")
	resp, err := http.Get(front.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	body := string(b)
	for _, want := range []string{
		"maorouter_requests_total",
		fmt.Sprintf("maorouter_shard_healthy{shard=%q} 1", shards[0].URL),
		"maorouter_request_duration_seconds_bucket",
		"maorouter_rebalances_total 0",
		"maorouter_retries_total 0",
		"maorouter_no_shard_total 0",
		"maorouter_uptime_seconds",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// Exactly one shard served the request.
	total := 0
	for _, s := range shards {
		var n int
		fmt.Sscanf(metricValue(body, fmt.Sprintf("maorouter_requests_total{shard=%q}", s.URL)), "%d", &n)
		total += n
	}
	if total != 1 {
		t.Errorf("sum of per-shard requests = %d, want 1", total)
	}
}

// metricValue extracts the sample value following a series name.
func metricValue(body, series string) string {
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, series+" ") {
			return strings.TrimPrefix(line, series+" ")
		}
	}
	return "0"
}

// TestRouterHealthz: the router's own liveness endpoint, independent
// of shard state.
func TestRouterHealthz(t *testing.T) {
	_, front, shards := testFleet(t, 1, 0)
	shards[0].Close()
	resp, err := http.Get(front.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Errorf("/healthz = %d with shards down, want 200 (router liveness, not fleet health)", resp.StatusCode)
	}
}

// TestRouterStreamsArchiveIncrementally: an NDJSON archive stream
// crosses the router record by record — the first record arrives
// while later units are still executing on the shard.
func TestRouterStreamsArchiveIncrementally(t *testing.T) {
	// One slow shard: 1 worker, 150ms per unit.
	s := serve.New(serve.Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })
	r, err := New(Config{Shards: []string{ts.URL}, ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(r)
	t.Cleanup(func() { front.Close(); r.Close() })

	var buf bytes.Buffer
	fmt.Fprintf(&buf, "maoar1 %d %d\n", len("a.s"), len(testSource))
	buf.WriteString("a.s")
	buf.WriteString(testSource)
	fmt.Fprintf(&buf, "maoar1 %d %d\n", len("b.s"), len(testSource))
	buf.WriteString("b.s")
	buf.WriteString(testSource)

	start := time.Now()
	resp, err := http.Post(front.URL+"/v1/optimize/archive?spec=SLEEPTEST=ms[150]&no_cache=1",
		"application/x-mao-archive", &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	if !sc.Scan() {
		t.Fatal("no first record")
	}
	firstAt := time.Since(start)
	var rest int
	for sc.Scan() {
		rest++
	}
	totalAt := time.Since(start)
	if rest != 2 { // second record + trailer
		t.Fatalf("got %d lines after the first, want 2", rest)
	}
	// The first record must land well before the full stream: unit b
	// sleeps 150ms after a completes, so a gap under 100ms would mean
	// the router buffered the stream.
	if gap := totalAt - firstAt; gap < 100*time.Millisecond {
		t.Errorf("first record at %v, stream done at %v — router buffered the stream", firstAt, totalAt)
	}
}

// TestRouterRequestIDPropagates: a caller-supplied X-Request-ID rides
// through the router to the shard and back.
func TestRouterRequestIDPropagates(t *testing.T) {
	_, front, _ := testFleet(t, 2, 0)
	body, _ := json.Marshal(&serve.OptimizeRequest{Source: testSource, Spec: "REDTEST"})
	req, _ := http.NewRequest("POST", front.URL+"/v1/optimize", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-ID", "fleet-trace-42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got != "fleet-trace-42" {
		t.Errorf("X-Request-ID = %q, want fleet-trace-42", got)
	}
	// Exactly one value: the shard echoes the ID too, and the router
	// must not stack the echo on top of its own (canonical-key trap —
	// http.Header stores "X-Request-Id").
	if vs := resp.Header.Values("X-Request-ID"); len(vs) != 1 {
		t.Errorf("X-Request-ID appears %d times (%q), want once", len(vs), vs)
	}
	if vs := resp.Header.Values("X-Mao-Shard"); len(vs) != 1 {
		t.Errorf("X-Mao-Shard appears %d times (%q), want once", len(vs), vs)
	}
}

// TestRouterRejectsOversizeBody: bodies beyond MaxBodyBytes are
// refused at the router with 413 before any shard sees them.
func TestRouterRejectsOversizeBody(t *testing.T) {
	r, front, _ := testFleet(t, 1, 0)
	r.cfg.MaxBodyBytes = 1024
	big := strings.Repeat("x", 4096)
	resp, err := http.Post(front.URL+"/v1/optimize", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("status = %d, want 413", resp.StatusCode)
	}
	for _, s := range r.backends {
		if r.met.shard(s.name).requests.Load() != 0 {
			t.Error("oversize body reached a shard")
		}
	}
}

// TestNewRejectsBadConfig: empty and malformed shard lists fail fast.
func TestNewRejectsBadConfig(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("New with no shards succeeded")
	}
	if _, err := New(Config{Shards: []string{"::not a url"}}); err == nil {
		t.Error("New with a malformed shard URL succeeded")
	}
}
