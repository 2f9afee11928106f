// Command perfbench is MAO's end-to-end and per-layer benchmark. It
// drives real maod and maorouter processes over loopback HTTP with one
// of four seeded workloads, checks the answers, and prints one JSON
// result line. See README.md for the workloads and metrics; run it via
// run.sh, which builds the servers from the same checkout:
//
//	bash perfbench/run.sh --workload cold-fresh --seed 1 --seconds 10 --trace 0
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"time"
)

// setupRepeats is how many times a run sets the fleet up; setup_s is
// the median and the last fleet serves the timed phase.
const setupRepeats = 3

// minRound is the smallest timed round: 1,000 requests leave 10
// samples above the round's p99.
const minRound = 1000

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	binDir   string
	outDir   string
}

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload: cold-fresh, warm-rebuild, hot-fleet or verify-fresh")
	flag.Uint64Var(&o.seed, "seed", 1, "seed of the generated inputs")
	flag.IntVar(&o.seconds, "seconds", 10, "nominal run length; the run sends the workload's nominal rate times this many requests")
	flag.IntVar(&traceFlag, "trace", 0, "0 reports the end-to-end metrics; 1 adds the traced replay and reports the per-layer metrics")
	flag.StringVar(&o.binDir, "bin", "", "directory holding the maod and maorouter binaries")
	flag.StringVar(&o.outDir, "out", "", "directory for the span files of traced runs")
	flag.Parse()
	o.trace = traceFlag == 1
	if o.binDir == "" || o.outDir == "" || o.seconds < 1 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench -bin DIR -out DIR --workload NAME --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	res, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func run(o options) (*result, error) {
	w, ok := findWorkload(o.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	n := int(math.Ceil(w.rate * float64(o.seconds)))
	in, err := generate(w, o.seed, n)
	if err != nil {
		return nil, err
	}
	client := newClient()
	shards := 1
	if w.fleet {
		shards = 2
	}

	// Set-up: start the fleet, wait until every process is ready, send
	// the warm-up traffic. Repeated, each time from scratch.
	var setups []float64
	var f *fleet
	defer func() {
		if f != nil {
			f.stop()
		}
	}()
	for k := 0; k < setupRepeats; k++ {
		if f != nil {
			f.stop()
			client.CloseIdleConnections()
		}
		t0 := time.Now()
		if f, err = startFleet(o.binDir, shards, w.fleet); err != nil {
			return nil, err
		}
		if warm := newLoader(client, f.target()).closedLoop(in.warmup); warm.failed > 0 {
			return nil, fmt.Errorf("set-up traffic: %d failed, first: %w", warm.failed, warm.err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	if fill := newLoader(client, f.target()).closedLoop(in.fill); fill.failed > 0 {
		return nil, fmt.Errorf("memo fill traffic: %d failed, first: %w", fill.failed, fill.err)
	}

	// Timed phase, in rounds of at least minRound requests: throughput
	// and latency percentiles are medians over the rounds, so one burst
	// of interference on the shared machine moves one round, not the
	// result.
	before, err := f.scrape()
	if err != nil {
		return nil, err
	}
	cpu0, _, err := f.usage()
	if err != nil {
		return nil, err
	}
	// Set-up answers are misses and timed ones may be hits, which differ
	// in their "cached" field, so answers are compared within the timed
	// phase only.
	ld := newLoader(client, f.target())
	rounds := max(1, n/minRound)
	var rates, p50s, p99s []float64
	var failed int
	for r := 0; r < rounds; r++ {
		load := ld.closedLoop(in.timed[r*n/rounds : (r+1)*n/rounds])
		if load.failed > 0 {
			failed += load.failed
			fmt.Fprintf(os.Stderr, "perfbench: %d timed requests failed, first: %v\n", load.failed, load.err)
		}
		sorted := slices.Sorted(slices.Values(load.lat))
		p50, _ := quantile(sorted, 0.50)
		p99, above := quantile(sorted, 0.99)
		if above < 10 {
			return nil, fmt.Errorf("only %d samples above p99; the run is too short", above)
		}
		rates = append(rates, float64(len(load.lat))/load.wall.Seconds())
		p50s, p99s = append(p50s, ms(p50)), append(p99s, ms(p99))
	}
	cpu1, _, err := f.usage()
	if err != nil {
		return nil, err
	}
	after, err := f.scrape()
	if err != nil {
		return nil, err
	}
	if err := selfCheck(w, in, before, after); err != nil {
		return nil, fmt.Errorf("traffic self-check: %w", err)
	}

	oracle := checkSample(client, f.target(), w, in.sample)
	if oracle.failed > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d oracle checks failed, first: %v\n", oracle.failed, oracle.attempted, oracle.err)
	}

	cpuMS := ms(cpu1-cpu0) / float64(n)
	res := &result{
		Attempted: n + oracle.attempted,
		Failed:    failed + oracle.failed,
	}
	res.Correct = res.Failed == 0

	if o.trace {
		spans := filepath.Join(o.outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, o.seed))
		rep, err := replay(w, in, spans)
		if err != nil {
			return nil, err
		}
		var hopMS float64
		if w.fleet {
			if hopMS, err = routerHop(client, f, in.timed); err != nil {
				return nil, err
			}
		}
		if res.Metrics, err = layerMetrics(n, cpuMS, hopMS, rep, before, after); err != nil {
			return nil, err
		}
		return res, nil
	}

	_, rss, err := f.usage()
	if err != nil {
		return nil, err
	}
	res.Metrics = endToEnd(median(setups), median(rates), median(p50s), median(p99s), cpuMS, rss, oracle)
	return res, nil
}

// endToEnd names the end-to-end metrics as BENCHMARK.json lists them.
func endToEnd(setupS, unitsPerS, p50MS, p99MS, cpuMS, rssMiB float64, oracle oracleResult) map[string]metric {
	return map[string]metric{
		"setup_s":          {setupS, "s"},
		"units_per_s":      {unitsPerS, "1/s"},
		"latency_p50_ms":   {p50MS, "ms"},
		"latency_p99_ms":   {p99MS, "ms"},
		"cpu_ms_per_unit":  {cpuMS, "ms"},
		"peak_rss_mb":      {rssMiB, "MiB"},
		"code_speedup_pct": {oracle.speedupPct, "%"},
		"text_bytes":       {float64(oracle.textBytes), "bytes"},
	}
}

// selfCheck fails the run when the daemon counters show traffic other
// than the workload's definition: numbers from a run whose requests
// missed (or hit) the wrong caches would describe another workload.
func selfCheck(w workload, in *inputs, before, after *fleetScrape) error {
	var errs []error
	c := newCounters(before, after)
	d := c.delta
	var wantHits, wantMisses float64
	for _, u := range in.timed {
		if u.edited {
			wantMisses += float64(u.funcs)
		} else {
			wantHits += float64(u.funcs)
		}
	}
	check := func(ok bool, format string, args ...any) {
		if !ok {
			errs = append(errs, fmt.Errorf(format, args...))
		}
	}
	switch w.name {
	case "cold-fresh":
		check(d("maod_memo_hits_total") == 0, "%v memo hits, want 0", d("maod_memo_hits_total"))
		check(d("maod_result_cache_hits_total") == 0, "%v result-cache hits, want 0", d("maod_result_cache_hits_total"))
		check(d("maod_memo_evictions_total") > 0, "the memo never evicted, want it full")
	case "warm-rebuild":
		check(d("maod_memo_hits_total") == wantHits, "%v memo hits, want %v (every function of the unchanged half)", d("maod_memo_hits_total"), wantHits)
		check(d("maod_memo_misses_total") == wantMisses, "%v memo misses, want %v (every function of the edited half)", d("maod_memo_misses_total"), wantMisses)
		check(d("maod_result_cache_hits_total") == 0, "%v result-cache hits, want 0", d("maod_result_cache_hits_total"))
	case "hot-fleet":
		hits, misses := d("maod_result_cache_hits_total"), d("maod_result_cache_misses_total")
		check(hits > 0 && misses == 0, "result-cache hit rate %v/%v, want 1", hits, hits+misses)
	case "verify-fresh":
		for _, s := range []string{"maod_memo_hits_total", "maod_memo_misses_total", "maod_memo_stores_total"} {
			check(d(s) == 0, "%s moved by %v, want 0 (verified runs bypass the memo)", s, d(s))
		}
	}
	return errors.Join(append(errs, c.err())...)
}

// routerHop is the router's added latency: the median of sequential
// requests through the router minus the median of the same requests
// sent straight to the shard the router chose (both result-cache hits).
func routerHop(client *http.Client, f *fleet, units []*unit) (float64, error) {
	const samples = 200
	var viaRouter, direct []float64
	var buf bytes.Buffer
	for i := 0; i < samples && i < len(units); i++ {
		t0 := time.Now()
		h, err := post(client, f.router.url, units[i].body, &buf)
		if err != nil {
			return 0, err
		}
		viaRouter = append(viaRouter, ms(time.Since(t0)))
		shard := h.Get("X-Mao-Shard")
		t0 = time.Now()
		if _, err := post(client, shard, units[i].body, &buf); err != nil {
			return 0, err
		}
		direct = append(direct, ms(time.Since(t0)))
	}
	return median(viaRouter) - median(direct), nil
}
