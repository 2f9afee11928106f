package router

import (
	"fmt"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"mao/internal/scope"
)

// routerMetrics is the router's observability plane, rendered on its
// own /metrics by scope's exposition writer, like maod's. Per-shard
// series are keyed by the configured shard URL.
type routerMetrics struct {
	order  []string // shard names in configured order (stable exposition)
	shards map[string]*shardMetrics

	retries    atomic.Int64 // forwards retried on a failover candidate
	rebalances atomic.Int64 // shard health transitions (ownership moved)
	unrouted   atomic.Int64 // requests refused: no shard reachable
	coalesced  atomic.Int64 // requests that rode another request's forward
}

type shardMetrics struct {
	requests atomic.Int64     // responses relayed from this shard
	errors   atomic.Int64     // forwards that died at the transport layer
	latency  *scope.Histogram // forward round-trip, first byte to last
}

// latencyBuckets mirror maod's request buckets: the router adds
// sub-millisecond overhead on top of shard-side queueing + pipeline.
var latencyBuckets = []float64{
	.0005, .001, .0025, .005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10,
}

func newRouterMetrics(names []string) *routerMetrics {
	m := &routerMetrics{order: names, shards: make(map[string]*shardMetrics, len(names))}
	for _, n := range names {
		m.shards[n] = &shardMetrics{latency: scope.NewHistogram(latencyBuckets)}
	}
	return m
}

// shard returns the metrics bundle for a shard name. Names come from
// the router's own backend list, so the lookup cannot miss.
func (m *routerMetrics) shard(name string) *shardMetrics {
	return m.shards[name]
}

// handleMetrics renders GET /metrics.
func (r *Router) handleMetrics(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	m := r.met

	var reqPairs, errPairs, healthPairs []string
	for _, name := range m.order {
		label := fmt.Sprintf(`{shard=%q}`, name)
		reqPairs = append(reqPairs, label, strconv.FormatInt(m.shards[name].requests.Load(), 10))
		errPairs = append(errPairs, label, strconv.FormatInt(m.shards[name].errors.Load(), 10))
	}
	for _, b := range r.backends {
		h := "0"
		if b.isHealthy() {
			h = "1"
		}
		healthPairs = append(healthPairs, fmt.Sprintf(`{shard=%q}`, b.name), h)
	}
	scope.WriteMetric(w, "Responses relayed, by shard.", "counter",
		"maorouter_requests_total", reqPairs...)
	scope.WriteMetric(w, "Forwards that failed at the transport layer, by shard.", "counter",
		"maorouter_errors_total", errPairs...)
	scope.WriteMetric(w, "Shard passes its /readyz probe (1) or is marked down (0).", "gauge",
		"maorouter_shard_healthy", healthPairs...)

	// Per-shard forward latency histograms.
	scope.WriteFamily(w, "Forward round-trip latency, by shard.", "histogram",
		"maorouter_request_duration_seconds")
	for _, name := range m.order {
		m.shards[name].latency.WriteSeries(w, "maorouter_request_duration_seconds", fmt.Sprintf("shard=%q", name))
	}

	scope.WriteMetric(w, "Forwards retried on a failover shard.", "counter",
		"maorouter_retries_total", "", strconv.FormatInt(m.retries.Load(), 10))
	scope.WriteMetric(w, "Shard health transitions (each moves ring key ownership).", "counter",
		"maorouter_rebalances_total", "", strconv.FormatInt(m.rebalances.Load(), 10))
	scope.WriteMetric(w, "Requests refused because no shard was reachable (502).", "counter",
		"maorouter_no_shard_total", "", strconv.FormatInt(m.unrouted.Load(), 10))
	scope.WriteMetric(w, "Requests that coalesced onto another in-flight identical forward.", "counter",
		"maorouter_coalesced_total", "", strconv.FormatInt(m.coalesced.Load(), 10))
	scope.WriteMetric(w, "Seconds since the router started.", "gauge",
		"maorouter_uptime_seconds", "", strconv.FormatFloat(time.Since(r.started).Seconds(), 'f', 3, 64))

	// Go runtime health: goroutine count, heap in use, GC pause
	// distribution — the signals that say "the router itself is sick"
	// when per-shard numbers look fine.
	scope.WriteRuntimeMetrics(w, "maorouter")
}
