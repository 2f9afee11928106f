package main

// passNames are the passes the workloads' specs run; each gets a
// pass.<NAME>_ms metric.
var passNames = []string{"REDZEXT", "REDTEST", "REDMOV", "ADDADD", "LOOP16", "BRALIGN", "SCHED"}

// layerMetrics derives every per-layer metric of a traced run: T from
// the replay, D from the daemon and router counters scraped around the
// timed phase. A layer the workload never runs reads 0; a counter
// series missing from a scrape is an error.
func layerMetrics(units int, cpuMS, hopMS float64, rep *replayReport, before, after *fleetScrape) (map[string]metric, error) {
	c := newCounters(before, after)
	d := c.delta
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	perK := func(v float64) float64 { return v / float64(units) * 1000 }
	t := func(name string) float64 { return rep.layerMS[name] }

	queued := d("maod_queue_wait_seconds_count")
	requests := d("maod_request_duration_seconds_count")
	coalesced := d("maod_coalesced_total") + c.routerDelta("maorouter_coalesced_total")
	routerGC := c.routerDelta("maorouter_go_gc_cycles_total")
	rcHits, rcMisses := d("maod_result_cache_hits_total"), d("maod_result_cache_misses_total")
	memoHits, memoMisses := d("maod_memo_hits_total"), d("maod_memo_misses_total")
	relaxHits, relaxMisses := d("maod_relaxcache_hits_total"), d("maod_relaxcache_misses_total")

	m := map[string]metric{
		"serve.decode_ms":               {t("serve.decode"), "ms"},
		"serve.encode_ms":               {t("serve.encode"), "ms"},
		"serve.queue_wait_ms":           {ratio(d("maod_queue_wait_seconds_sum"), queued) * 1000, "ms"},
		"serve.service_ms":              {ratio(d("maod_request_duration_seconds_sum")-d("maod_queue_wait_seconds_sum"), requests) * 1000, "ms"},
		"serve.jobs_per_batch":          {ratio(d("maod_batch_jobs_total"), d("maod_batches_total")), "count"},
		"serve.result_cache_hit_rate":   {ratio(rcHits, rcHits+rcMisses), "ratio"},
		"serve.coalesced_share":         {ratio(coalesced, float64(units)), "ratio"},
		"serve.unattributed_ms":         {cpuMS - rep.attributedMS(), "ms"},
		"cachekey.key_ms":               {t("cachekey.key"), "ms"},
		"asm.parse_ms":                  {t("asm.parse"), "ms"},
		"asm.parse_mb_per_s":            {rep.parseMBps, "MB/s"},
		"asm.allocs_per_unit":           {rep.parseAllocs, "count"},
		"memo.plan_ms":                  {t("memo.plan"), "ms"},
		"memo.lookup_ms":                {t("memo.lookup"), "ms"},
		"memo.splice_ms":                {t("memo.splice"), "ms"},
		"memo.fill_ms":                  {t("memo.fill"), "ms"},
		"memo.hit_rate":                 {ratio(memoHits, memoHits+memoMisses), "ratio"},
		"memo.entries":                  {c.level("maod_memo_entries"), "count"},
		"pass.pipeline_ms":              {t("pass.pipeline"), "ms"},
		"pass.allocs_per_unit":          {rep.passAllocs, "count"},
		"relax.cache_hit_rate":          {ratio(relaxHits, relaxHits+relaxMisses), "ratio"},
		"ir.analyze_ms":                 {t("ir.analyze"), "ms"},
		"ir.emit_ms":                    {t("ir.emit"), "ms"},
		"verify.certify_ms":             {t("verify.certify"), "ms"},
		"verify.nonproved":              {float64(rep.nonproved), "count"},
		"router.hop_ms":                 {hopMS, "ms"},
		"router.gc_cycles_per_kreq":     {perK(routerGC), "count/kreq"},
		"runtime.gc_cycles_per_kunit":   {perK(d("maod_go_gc_cycles_total")), "count/kunit"},
		"runtime.gc_pause_ms_per_kunit": {perK(d("maod_go_gc_pause_seconds_sum") * 1000), "ms/kunit"},
		"runtime.heap_inuse_mb":         {c.level("maod_go_heap_inuse_bytes") / (1 << 20), "MiB"},
		"trace.overhead_ms":             {rep.overheadMS, "ms"},
	}
	for _, p := range passNames {
		m["pass."+p+"_ms"] = metric{t("pass." + p), "ms"}
	}
	return m, c.err()
}
