package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mao/internal/pass"
	"mao/internal/router"
	"mao/internal/serve"
)

func buildMaoload(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "maoload")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	return bin
}

func TestLoadGeneratorAgainstService(t *testing.T) {
	s := serve.New(serve.Config{Workers: 4})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })

	fixtures, err := filepath.Glob(filepath.Join("..", "..", "internal", "corpus", "testdata", "*.s"))
	if err != nil || len(fixtures) == 0 {
		t.Fatalf("no corpus fixtures: %v", err)
	}

	bin := buildMaoload(t)
	args := append([]string{
		"-addr", ts.URL, "-c", "4", "-n", "40", "-spec", "REDTEST:REDMOV", "-no-cache",
	}, fixtures...)
	out, err := exec.Command(bin, args...).CombinedOutput()
	if err != nil {
		t.Fatalf("maoload: %v\n%s", err, out)
	}
	report := string(out)
	if !strings.Contains(report, "requests: 40 in ") {
		t.Errorf("request count missing:\n%s", report)
	}
	if !strings.Contains(report, "status 200: 40") {
		t.Errorf("not all requests succeeded:\n%s", report)
	}
	if !strings.Contains(report, "classes: 2xx 40  4xx 0  5xx 0  transport-errors 0") {
		t.Errorf("error-class breakdown missing or wrong:\n%s", report)
	}
	if !regexp.MustCompile(`latency \(2xx only\): p50 \S+  p90 \S+  p99 \S+  max \S+`).MatchString(report) {
		t.Errorf("latency percentiles missing:\n%s", report)
	}
}

// TestLoadGeneratorReportsErrorClasses is the regression test for the
// silent-error bug: a server answering nothing but 429 must be
// reported as such — errors classified and counted, no latency line
// fabricated from error turnaround times, and a failing exit code.
func TestLoadGeneratorReportsErrorClasses(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "1")
		http.Error(w, "overloaded", http.StatusTooManyRequests)
	}))
	t.Cleanup(ts.Close)

	fixtures, err := filepath.Glob(filepath.Join("..", "..", "internal", "corpus", "testdata", "*.s"))
	if err != nil || len(fixtures) == 0 {
		t.Fatalf("no corpus fixtures: %v", err)
	}
	bin := buildMaoload(t)
	args := append([]string{
		"-addr", ts.URL, "-c", "2", "-n", "10", "-spec", "REDTEST",
	}, fixtures[0])
	out, err := exec.Command(bin, args...).CombinedOutput()
	if err == nil {
		t.Errorf("all-429 run exited 0:\n%s", out)
	}
	report := string(out)
	if !strings.Contains(report, "classes: 2xx 0  4xx 10  5xx 0  transport-errors 0") {
		t.Errorf("429s not classified:\n%s", report)
	}
	if !strings.Contains(report, "status 429: 10") {
		t.Errorf("per-status count missing:\n%s", report)
	}
	if strings.Contains(report, "latency (2xx only):") {
		t.Errorf("latency line fabricated from non-2xx turnarounds:\n%s", report)
	}
}

// TestLoadGeneratorReportsCacheHitRate: with the server cache on and
// fixtures repeated, the report carries the hit/miss split read from
// X-Mao-Cache.
func TestLoadGeneratorReportsCacheHitRate(t *testing.T) {
	s := serve.New(serve.Config{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })

	fixtures, err := filepath.Glob(filepath.Join("..", "..", "internal", "corpus", "testdata", "*.s"))
	if err != nil || len(fixtures) == 0 {
		t.Fatalf("no corpus fixtures: %v", err)
	}
	// Serial workers + uniform cycling: every fixture misses once,
	// every repeat hits.
	n := 3 * len(fixtures)
	bin := buildMaoload(t)
	args := append([]string{
		"-addr", ts.URL, "-c", "1", "-n", strconv.Itoa(n), "-spec", "REDTEST",
	}, fixtures...)
	out, err := exec.Command(bin, args...).CombinedOutput()
	if err != nil {
		t.Fatalf("maoload: %v\n%s", err, out)
	}
	want := fmt.Sprintf("result cache: %d hits, %d misses", n-len(fixtures), len(fixtures))
	if !strings.Contains(string(out), want) {
		t.Errorf("report missing %q:\n%s", want, out)
	}
}

// newFleet builds f fresh maod shards and returns their URLs.
func newFleet(t *testing.T, f int) []string {
	t.Helper()
	var urls []string
	for i := 0; i < f; i++ {
		s := serve.New(serve.Config{Workers: 2})
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(func() { ts.Close(); s.Close() })
		urls = append(urls, ts.URL)
	}
	return urls
}

// roundRobinProxy is the unrouted baseline: an affinity-free front end
// that alternates shards per request, stamping X-Mao-Shard like the
// real router so maoload can attribute responses.
func roundRobinProxy(t *testing.T, shards []string) *httptest.Server {
	t.Helper()
	var proxies []*httputil.ReverseProxy
	for _, s := range shards {
		u, err := url.Parse(s)
		if err != nil {
			t.Fatal(err)
		}
		shard := s
		p := httputil.NewSingleHostReverseProxy(u)
		p.ModifyResponse = func(resp *http.Response) error {
			resp.Header.Set("X-Mao-Shard", shard)
			return nil
		}
		proxies = append(proxies, p)
	}
	var next atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		proxies[int(next.Add(1))%len(proxies)].ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	return ts
}

// hitsMisses parses "result cache: H hits, M misses" from a report.
func hitsMisses(t *testing.T, report string) (int, int) {
	t.Helper()
	m := regexp.MustCompile(`result cache: (\d+) hits, (\d+) misses`).FindStringSubmatch(report)
	if m == nil {
		t.Fatalf("no cache line in report:\n%s", report)
	}
	h, _ := strconv.Atoi(m[1])
	mi, _ := strconv.Atoi(m[2])
	return h, mi
}

// TestRouterModeConcentratesCacheHits is the fleet-efficiency proof:
// the same zipf-skewed multi-tenant run scores a strictly better
// fleet-wide cache hit rate through the key-affinity router than
// through an affinity-free round-robin front end, because the router
// never computes a fixture on more than one shard.
func TestRouterModeConcentratesCacheHits(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet comparison under -short")
	}
	fixtures, err := filepath.Glob(filepath.Join("..", "..", "internal", "corpus", "testdata", "*.s"))
	if err != nil || len(fixtures) < 2 {
		t.Fatalf("need ≥ 2 corpus fixtures: %v", err)
	}
	bin := buildMaoload(t)
	run := func(front string, routerMode bool) string {
		args := []string{
			"-addr", front, "-c", "1", "-n", "150",
			"-spec", "REDTEST", "-clients", "8", "-zipf", "1.1", "-seed", "7",
		}
		if routerMode {
			args = append(args, "-router")
		}
		out, err := exec.Command(bin, append(args, fixtures...)...).CombinedOutput()
		if err != nil {
			t.Fatalf("maoload against %s: %v\n%s", front, err, out)
		}
		return string(out)
	}

	// Routed fleet: 2 fresh shards behind the real key-affinity router.
	routedReport := run(spreadRoutedFleet(t, fixtures).URL, true)

	// Unrouted baseline: 2 fresh shards behind round-robin.
	baseReport := run(roundRobinProxy(t, newFleet(t, 2)).URL, false)

	routedHits, routedMisses := hitsMisses(t, routedReport)
	baseHits, baseMisses := hitsMisses(t, baseReport)
	// Key affinity means each distinct fixture misses on exactly one
	// shard; round-robin pays a cold miss per fixture per shard.
	if routedMisses > len(fixtures) {
		t.Errorf("routed fleet missed %d times for %d fixtures — affinity broken:\n%s",
			routedMisses, len(fixtures), routedReport)
	}
	if routedHits <= baseHits {
		t.Errorf("routed hit count %d not above unrouted baseline %d\nrouted:\n%s\nbaseline:\n%s",
			routedHits, baseHits, routedReport, baseReport)
	}
	if !strings.Contains(routedReport, "shards: 2 served this run") {
		t.Errorf("per-shard breakdown missing:\n%s", routedReport)
	}
	_ = baseMisses
}

// spreadRoutedFleet boots 2 fresh shards behind the real router, over
// which the fixtures' keys span both shards. Ring placement hashes the
// shard URLs, whose ports are ephemeral, so a fleet where every fixture
// lands on one shard (1 in 4 for 3 fixtures) is discarded and rebuilt.
// Ownership is read from X-Mao-Shard on a GET carrying the request
// body: the router routes it by the same key as the POST, and the
// daemon answers 405 without touching its result cache.
func spreadRoutedFleet(t *testing.T, fixtures []string) *httptest.Server {
	t.Helper()
	for attempt := 0; attempt < 32; attempt++ {
		rt, err := router.New(router.Config{Shards: newFleet(t, 2), ProbeInterval: -1})
		if err != nil {
			t.Fatal(err)
		}
		front := httptest.NewServer(rt)
		t.Cleanup(func() { front.Close(); rt.Close() })
		owners := map[string]bool{}
		for _, path := range fixtures {
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			body, _ := json.Marshal(map[string]any{"name": path, "source": string(src), "spec": "REDTEST"})
			req, _ := http.NewRequest("GET", front.URL+"/v1/optimize", bytes.NewReader(body))
			req.Header.Set("Content-Type", "application/json")
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			owners[resp.Header.Get("X-Mao-Shard")] = true
		}
		if len(owners) > 1 {
			return front
		}
	}
	t.Fatal("no 2-shard ring spread the fixtures over both shards")
	return nil
}

// TestRouterModeRequiresShardHeader: -router against a plain daemon
// (no X-Mao-Shard) fails the run.
func TestRouterModeRequiresShardHeader(t *testing.T) {
	s := serve.New(serve.Config{})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })
	fixtures, _ := filepath.Glob(filepath.Join("..", "..", "internal", "corpus", "testdata", "*.s"))
	bin := buildMaoload(t)
	out, err := exec.Command(bin, "-addr", ts.URL, "-router", "-n", "4", "-spec", "REDTEST", fixtures[0]).CombinedOutput()
	if err == nil {
		t.Errorf("-router against a shardless daemon exited 0:\n%s", out)
	}
	if !strings.Contains(string(out), "not a maorouter") {
		t.Errorf("missing diagnosis:\n%s", out)
	}
}

// sleepPass mirrors the serve package's test pass: it pins a worker
// for ms[N] milliseconds, so concurrent identical requests reliably
// overlap in flight — the window miss coalescing needs.
type sleepPass struct{}

func (sleepPass) Name() string        { return "SLEEPTEST" }
func (sleepPass) Description() string { return "test pass that sleeps" }
func (sleepPass) Effectful() bool     { return true }
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

// scrapeCounter reads one counter's value off a maod /metrics page.
func scrapeCounter(t *testing.T, baseURL, name string) int {
	t.Helper()
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	m := regexp.MustCompile(`(?m)^` + name + ` (\d+)$`).FindStringSubmatch(string(body))
	if m == nil {
		t.Fatalf("%s not found in /metrics:\n%s", name, body)
	}
	v, _ := strconv.Atoi(m[1])
	return v
}

// TestDupRateCoalescingReducesPipelineRuns is the coalescing
// regression proof: the same duplicate-heavy load (-dup-rate 1, every
// request identical, result cache off) costs strictly fewer shard-side
// pipeline runs with coalescing on than with it disabled, and the
// report carries the coalesced verdicts that explain the difference.
func TestDupRateCoalescingReducesPipelineRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("coalescing comparison under -short")
	}
	fixtures, err := filepath.Glob(filepath.Join("..", "..", "internal", "corpus", "testdata", "*.s"))
	if err != nil || len(fixtures) == 0 {
		t.Fatalf("no corpus fixtures: %v", err)
	}
	bin := buildMaoload(t)

	run := func(cfg serve.Config) (report string, pipelineRuns int) {
		s := serve.New(cfg)
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(func() { ts.Close(); s.Close() })
		args := []string{
			"-addr", ts.URL, "-c", "8", "-n", "24", "-dup-rate", "1",
			"-spec", "SLEEPTEST=ms[150]:REDTEST",
		}
		out, err := exec.Command(bin, append(args, fixtures[0])...).CombinedOutput()
		if err != nil {
			t.Fatalf("maoload: %v\n%s", err, out)
		}
		return string(out), scrapeCounter(t, ts.URL, "maod_batch_jobs_total")
	}

	// The result cache is disabled on both servers: only in-flight
	// coalescing can deduplicate the identical requests.
	coalescedReport, coalescedRuns := run(serve.Config{ResultCacheEntries: -1})
	_, disabledRuns := run(serve.Config{ResultCacheEntries: -1, DisableCoalesce: true})

	if coalescedRuns >= disabledRuns {
		t.Errorf("coalescing did not reduce pipeline runs: %d with vs %d without\n%s",
			coalescedRuns, disabledRuns, coalescedReport)
	}
	m := regexp.MustCompile(`result cache: \d+ hits, \d+ misses, (\d+) coalesced`).FindStringSubmatch(coalescedReport)
	if m == nil {
		t.Fatalf("coalesced breakdown missing from report:\n%s", coalescedReport)
	}
	if n, _ := strconv.Atoi(m[1]); n == 0 {
		t.Errorf("report shows 0 coalesced requests despite -dup-rate 1:\n%s", coalescedReport)
	}
}

func TestLoadGeneratorUsage(t *testing.T) {
	bin := buildMaoload(t)
	if err := exec.Command(bin).Run(); err == nil {
		t.Error("no-fixture invocation must fail")
	}
}
