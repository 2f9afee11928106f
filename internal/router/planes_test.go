package router

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"testing"

	"mao/internal/scope"
	"mao/internal/serve"
)

var update = flag.Bool("update", false, "rewrite testdata/metrics_layout.golden")

// metricsLayout reduces a /metrics page to its layout: one line per
// metric family in page order, "family TYPE label-keys", where the
// label keys are the sorted union over the family's samples
// (histogram _bucket/_sum/_count series included; "-" for none).
// Values, label values and sample counts are traffic- and
// host-dependent; the layout is what dashboards and the benchmark's
// scrapers depend on.
func metricsLayout(t *testing.T, page []byte) string {
	t.Helper()
	m, err := scope.ParseProm(bytes.NewReader(page))
	if err != nil {
		t.Fatalf("/metrics does not parse: %v", err)
	}
	var b strings.Builder
	sc := bufio.NewScanner(bytes.NewReader(page))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 4 || f[0] != "#" || f[1] != "TYPE" {
			continue
		}
		family := f[2]
		keys := map[string]bool{}
		for _, series := range []string{family, family + "_bucket", family + "_sum", family + "_count"} {
			for _, s := range m[series] {
				for k := range s.Labels {
					keys[k] = true
				}
			}
		}
		var ks []string
		for k := range keys {
			ks = append(ks, k)
		}
		sort.Strings(ks)
		if len(ks) == 0 {
			ks = []string{"-"}
		}
		fmt.Fprintf(&b, "%s %s %s\n", family, f[3], strings.Join(ks, ","))
	}
	return b.String()
}

func getBody(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestMetricsLayoutGolden pins the family order, types and label keys
// of both exposition planes — maod's (with quotas on, so every family
// it can emit is present) and maorouter's — against a checked-in
// golden file. Run with -update to rewrite it after a deliberate
// change.
func TestMetricsLayoutGolden(t *testing.T) {
	s := serve.New(serve.Config{QuotaRate: 1000})
	shard := httptest.NewServer(s.Handler())
	t.Cleanup(func() { shard.Close(); s.Close() })
	r, err := New(Config{Shards: []string{shard.URL}, ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(r)
	t.Cleanup(func() { front.Close(); r.Close() })

	// One plain and one verified optimize through the router, so the
	// per-code, per-pass, per-shard and per-client series all exist.
	optimizeVia(t, front.URL, "layout.s")
	body, _ := json.Marshal(&serve.OptimizeRequest{Name: "layout.s", Source: testSource, Spec: "REDTEST"})
	resp, err := http.Post(front.URL+"/v1/optimize?verify=1", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	got := "# maod\n" + metricsLayout(t, getBody(t, shard.URL+"/metrics")) +
		"# maorouter\n" + metricsLayout(t, getBody(t, front.URL+"/metrics"))
	const golden = "testdata/metrics_layout.golden"
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("/metrics layout drifted from %s (rerun with -update if deliberate)\ngot:\n%s\nwant:\n%s", golden, got, want)
	}
}

// TestClientIdentitySharedAcrossPlanes: one request crossing the
// router into maod lands in both flight recorders under the same
// Client — the X-Mao-Client header when sent, otherwise the remote
// host without its port (the router and the shard see different
// ephemeral ports, but both hops run on the loopback host).
func TestClientIdentitySharedAcrossPlanes(t *testing.T) {
	s := serve.New(serve.Config{})
	shard := httptest.NewServer(s.Handler())
	t.Cleanup(func() { shard.Close(); s.Close() })
	r, err := New(Config{Shards: []string{shard.URL}, ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(r)
	t.Cleanup(func() { front.Close(); r.Close() })

	for _, tc := range []struct{ header, want string }{{"", "127.0.0.1"}, {"tenant-a", "tenant-a"}} {
		body, _ := json.Marshal(&serve.OptimizeRequest{Name: "client-" + tc.want + ".s", Source: testSource, Spec: "REDTEST"})
		req, _ := http.NewRequest("POST", front.URL+"/v1/optimize", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		if tc.header != "" {
			req.Header.Set("X-Mao-Client", tc.header)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()

		rec := httptest.NewRecorder()
		s.DebugHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/scope/recent", nil))
		var payload struct {
			Records []scope.FlightRecord `json:"records"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &payload); err != nil || len(payload.Records) == 0 {
			t.Fatalf("maod flight view: %v (%d records)", err, len(payload.Records))
		}
		routerRecs := r.flight.Recent()
		if len(routerRecs) == 0 {
			t.Fatal("router flight recorder is empty")
		}
		maodClient, routerClient := payload.Records[0].Client, routerRecs[0].Client
		if maodClient != tc.want || routerClient != tc.want {
			t.Errorf("header %q: flight Client maod %q, maorouter %q, want %q on both",
				tc.header, maodClient, routerClient, tc.want)
		}
	}
}
