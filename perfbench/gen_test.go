package main

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"mao/internal/router"
	"mao/internal/scope"
	"mao/internal/serve"
)

func mustGenerate(t *testing.T, name string, seed uint64, n int) *inputs {
	t.Helper()
	w, ok := findWorkload(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	in, err := generate(w, seed, n)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestSameSeedSameBodies(t *testing.T) {
	for _, w := range workloads {
		a, b := mustGenerate(t, w.name, 7, 120), mustGenerate(t, w.name, 7, 120)
		for _, pair := range [][2][]*unit{{a.warmup, b.warmup}, {a.timed, b.timed}, {a.sample, b.sample}} {
			if len(pair[0]) != len(pair[1]) {
				t.Fatalf("%s: %d vs %d units", w.name, len(pair[0]), len(pair[1]))
			}
			for i := range pair[0] {
				if !bytes.Equal(pair[0][i].body, pair[1][i].body) {
					t.Fatalf("%s: body %d differs between two generations from the same seed", w.name, i)
				}
			}
		}
	}
}

func TestSeedsGiveDisjointColdUnits(t *testing.T) {
	// Timed units never repeat, never equal a (seed-independent)
	// warm-up or fill unit, and never recur under another seed.
	sources := func(in *inputs) map[string]bool {
		fixed := append(append([]*unit(nil), in.warmup...), in.fill...)
		out := map[string]bool{}
		for _, u := range append(fixed, in.timed...) {
			if out[u.source] {
				t.Fatalf("unit %s repeats within one seed", u.name)
			}
			out[u.source] = true
		}
		for _, u := range fixed {
			delete(out, u.source)
		}
		return out
	}
	a := sources(mustGenerate(t, "cold-fresh", 1, 300))
	for src := range sources(mustGenerate(t, "cold-fresh", 2, 300)) {
		if a[src] {
			t.Fatal("seeds 1 and 2 share a cold-fresh unit")
		}
	}
}

// TestHotPoolFitsResultCache sends the hot-fleet pool twice to one
// daemon with production defaults: every second answer must come from
// the result cache, so a shard that owns any subset of the pool serves
// all of it from cache.
func TestHotPoolFitsResultCache(t *testing.T) {
	in := mustGenerate(t, "hot-fleet", 1, 10)
	if len(in.warmup) != hotPool {
		t.Fatalf("pool has %d units, want %d", len(in.warmup), hotPool)
	}
	srv := serve.New(serve.Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := ts.Client()
	var buf bytes.Buffer
	for round, want := range []string{"miss", "hit"} {
		for _, u := range in.warmup {
			h, err := post(client, ts.URL, u.body, &buf)
			if err != nil {
				t.Fatalf("round %d, %s: %v", round, u.name, err)
			}
			if got := h.Get("X-Mao-Cache"); got != want {
				t.Fatalf("round %d, %s: X-Mao-Cache %q, want %q", round, u.name, got, want)
			}
		}
	}
}

func TestEditedUnitsPassExecutorOracle(t *testing.T) {
	in := mustGenerate(t, "warm-rebuild", 3, 24)
	checked := 0
	for _, u := range in.timed {
		if !u.edited {
			continue
		}
		entry := bases()[u.base].EntryName()
		orig, err := execute(u.name, findPoolSource(t, in, u), entry)
		if err != nil {
			t.Fatal(err)
		}
		edited, err := execute(u.name, u.source, entry)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameState(orig, edited); err != nil {
			t.Errorf("%s: edit changed the end state: %v", u.name, err)
		}
		opt, err := reference(u.name, u.source, warmSpec)
		if err != nil {
			t.Fatal(err)
		}
		optimized, err := execute(u.name, opt, entry)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameState(orig, optimized); err != nil {
			t.Errorf("%s: optimized edit changed the end state: %v", u.name, err)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no edited units generated")
	}
}

// findPoolSource returns the unedited pool source an edited unit was
// derived from: the one pool unit the edit's two inserted lines turn
// into the edited source.
func findPoolSource(t *testing.T, in *inputs, u *unit) string {
	t.Helper()
	var lines []string
	for _, l := range strings.SplitAfter(u.source, "\n") {
		if !strings.Contains(l, "(%r11), %r11") {
			lines = append(lines, l)
		}
	}
	stripped := strings.Join(lines, "")
	for _, p := range in.warmup {
		if p.source == stripped {
			return p.source
		}
	}
	t.Fatalf("%s: no pool unit matches the unedited source", u.name)
	return ""
}

// TestEditOfEveryEntryIsInert edits the entry function of every base,
// which always runs, so the inserted pair is executed.
func TestEditOfEveryEntryIsInert(t *testing.T) {
	g := newGen(workloads[1], 1)
	for b, cw := range g.bases {
		u := g.original(b, cw.Name+".s")
		fn := strings.Count(u.source[:strings.Index(u.source, "\t.type "+cw.EntryName()+",")], ",@function")
		src, err := editUnit(u.source, fn, 4242)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(src, cw.EntryName()+":\n\tleaq 4242(%r11), %r11\n") {
			t.Fatalf("%s: edit did not land at the entry", cw.Name)
		}
		a, err := execute(u.name, u.source, cw.EntryName())
		if err != nil {
			t.Fatal(err)
		}
		e, err := execute(u.name, src, cw.EntryName())
		if err != nil {
			t.Fatal(err)
		}
		if err := sameState(a, e); err != nil {
			t.Errorf("%s: %v", cw.Name, err)
		}
	}
}

func TestSampleIsSeedIndependent(t *testing.T) {
	for _, w := range workloads {
		a, b := mustGenerate(t, w.name, 1, 40), mustGenerate(t, w.name, 2, 40)
		if len(a.sample) != len(bases()) {
			t.Fatalf("%s: sample has %d units, want one per base", w.name, len(a.sample))
		}
		for i := range a.sample {
			if !bytes.Equal(a.sample[i].body, b.sample[i].body) {
				t.Fatalf("%s: sample unit %d depends on the seed", w.name, i)
			}
		}
	}
}

// TestMetricsMatchBenchmarkJSON pins the printed metric names and units
// to the ones BENCHMARK.json declares, and the counter series the
// benchmark reads to the ones a real daemon and router export.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	live := liveScrape(t)
	rep := &replayReport{units: 1, layerMS: map[string]float64{}, totalMS: map[string]float64{}}
	layers, err := layerMetrics(1, 0, 0, rep, live, live)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		got  map[string]metric
		want []struct{ Name, Unit string }
	}{
		{endToEnd(1, 1, 1, 1, 1, 1, oracleResult{}), spec.EndToEnd},
		{layers, spec.PerLayer},
	} {
		if len(c.got) != len(c.want) {
			t.Errorf("%d metrics printed, %d declared", len(c.got), len(c.want))
		}
		for _, m := range c.want {
			if got, ok := c.got[m.Name]; !ok || got.Unit != m.Unit {
				t.Errorf("%s: printed %+v, declared unit %q", m.Name, got, m.Unit)
			}
		}
	}
}

// TestMissingSeriesFails checks that a counter series absent from a
// scrape fails the run rather than reading as 0.
func TestMissingSeriesFails(t *testing.T) {
	empty := &fleetScrape{shards: []scope.Metrics{{}}, router: scope.Metrics{}}
	rep := &replayReport{units: 1, layerMS: map[string]float64{}, totalMS: map[string]float64{}}
	if _, err := layerMetrics(1, 0, 0, rep, empty, empty); err == nil || !strings.Contains(err.Error(), "maod_memo_hits_total") {
		t.Errorf("layerMetrics on an empty scrape: err = %v, want maod_memo_hits_total missing", err)
	}
	live := liveScrape(t)
	for _, w := range workloads {
		err := selfCheck(w, &inputs{}, empty, empty)
		if err == nil || !strings.Contains(err.Error(), "missing from /metrics") {
			t.Errorf("%s: selfCheck on an empty scrape: err = %v, want missing series", w.name, err)
		}
		if err := selfCheck(w, &inputs{}, live, live); err != nil && strings.Contains(err.Error(), "missing from /metrics") {
			t.Errorf("%s: selfCheck on a live scrape: %v", w.name, err)
		}
	}
}

// liveScrape scrapes a daemon with production defaults and a router in
// front of it, both in-process.
func liveScrape(t *testing.T) *fleetScrape {
	t.Helper()
	srv := serve.New(serve.Config{})
	t.Cleanup(srv.Close)
	shard := httptest.NewServer(srv.Handler())
	t.Cleanup(shard.Close)
	rt, err := router.New(router.Config{Shards: []string{shard.URL}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	front := httptest.NewServer(rt)
	t.Cleanup(front.Close)
	shardM, err := scrape(shard.URL)
	if err != nil {
		t.Fatal(err)
	}
	routerM, err := scrape(front.URL)
	if err != nil {
		t.Fatal(err)
	}
	return &fleetScrape{shards: []scope.Metrics{shardM}, router: routerM}
}
